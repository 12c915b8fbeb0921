//! `bench_gate` — the benchmark regression gate.
//!
//! Reads the freshly emitted `BENCH_solver.json`, `BENCH_cache.json`,
//! `BENCH_sweep.json`, `BENCH_batch.json` and `BENCH_synth.json` from the
//! workspace root, compares their speedups against the checked-in floors,
//! and search counts and the synthesis passes' cost per AND node against
//! its ceilings
//! (`crates/bench/floors.json`, keyed by the document's own `mode` field so
//! CI's quick smokes and full release runs each gate against appropriate
//! expectations), and exits nonzero on any regression. The batch document
//! additionally must attest `bit_identical: true`, and its serial-speedup
//! floor scales with the measuring machine's `hardware_threads` — flat
//! wall-clock scaling on a 1-core container is physics, not a regression,
//! while a multi-core runner is held to real scaling.
//!
//! ```text
//! bench_gate [--dir <workspace root>] [--floors <floors.json>]
//!            [--require solver,cache,sweep,batch,synth]
//! ```
//!
//! Without `--require`, every `BENCH_*.json` that exists is gated and
//! missing ones are skipped with a note; `--require` turns absence into a
//! failure (CI passes the artifacts it just generated).

use isdc_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Keyed reads of a document's fields.
trait Field {
    fn number(&self, key: &str) -> Option<f64>;
    fn text(&self, key: &str) -> Option<&str>;
    fn array(&self, key: &str) -> Option<&[Value]>;
}

impl Field for Value {
    fn number(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    fn array(&self, key: &str) -> Option<&[Value]> {
        self.get(key)?.as_array()
    }
}

/// The bound one check holds a measured value to.
#[derive(Clone, Copy, Debug)]
enum Limit {
    /// The value must be at least this (speedups, ratios).
    Floor(f64),
    /// The value must be at most this (search counts).
    Ceiling(f64),
}

/// One floor or ceiling violation (or pass) line.
struct Check {
    /// Which `BENCH_*.json` the check came from — on failure, that
    /// document is diffed against its `.baseline.json` for attribution.
    bench: &'static str,
    label: String,
    limit: Limit,
    actual: f64,
}

impl Check {
    fn ok(&self) -> bool {
        match self.limit {
            Limit::Floor(floor) => self.actual >= floor,
            Limit::Ceiling(ceiling) => self.actual <= ceiling,
        }
    }

    /// The check's line: `= actual (floor x)` on a pass, `= actual below
    /// floor x` on a failure.
    fn describe(&self) -> String {
        let (word, bound, missed) = match self.limit {
            Limit::Floor(floor) => ("floor", floor, "below"),
            Limit::Ceiling(ceiling) => ("ceiling", ceiling, "above"),
        };
        if self.ok() {
            format!("{} = {:.2} ({word} {bound:.2})", self.label, self.actual)
        } else {
            format!("{} = {:.2} {missed} {word} {bound:.2}", self.label, self.actual)
        }
    }
}

/// The ranked regression attribution printed when a floor goes red:
/// which metrics moved between the baseline and current document, by
/// contribution to the wall-clock delta.
fn attribution_report(baseline: &Value, current: &Value) -> String {
    let (total, rows) =
        isdc_telemetry::attribute(&json::flatten(baseline), &json::flatten(current));
    isdc_telemetry::render_attribution(total, &rows, 15)
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Floors for one (bench, mode) pair, straight from floors.json.
fn floors_for<'a>(floors: &'a Value, bench: &str, mode: &str) -> Result<&'a Value, String> {
    floors
        .get(bench)
        .and_then(|b| b.get(mode))
        .ok_or_else(|| format!("floors.json has no entry for bench `{bench}` mode `{mode}`"))
}

fn floor_number(entry: &Value, key: &str) -> Result<f64, String> {
    entry.number(key).ok_or_else(|| format!("floors entry lacks `{key}`"))
}

fn gate_solver(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc.text("mode").unwrap_or("full");
    let entry = floors_for(floors, "solver", mode)?;
    let designs = doc.array("designs").ok_or("solver doc lacks `designs`")?;
    let speedups: Vec<f64> = designs.iter().filter_map(|d| d.number("speedup")).collect();
    if speedups.is_empty() {
        return Err("solver doc has no per-design speedups".into());
    }
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] min warm speedup"),
        limit: Limit::Floor(floor_number(entry, "warm_speedup_min")?),
        actual: speedups.iter().copied().fold(f64::INFINITY, f64::min),
    });
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] geomean warm speedup"),
        limit: Limit::Floor(floor_number(entry, "warm_speedup_geomean")?),
        actual: geomean(&speedups),
    });
    // Eq. 2 sparsification: the densest design (crc32 — always in the
    // quick subset) must keep pruning at least the floored fraction of the
    // dense emission, i.e. a ratio of 0.5 is a 2x constraint-count cut.
    let crc32 = designs
        .iter()
        .find(|d| d.text("name") == Some("crc32"))
        .ok_or("solver doc lacks a crc32 design row")?;
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] crc32 LP pruning ratio"),
        limit: Limit::Floor(floor_number(entry, "pruning_ratio_min")?),
        actual: crc32.number("pruning_ratio").ok_or("crc32 row lacks `pruning_ratio`")?,
    });
    // The cold solve's search size: the tightened start and the
    // deficits-first tie rule cut crc32's cold drain to under a quarter of
    // the nodes the plain Bellman-Ford start settled. A count, so it does
    // not drift with the host's speed.
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] crc32 cold nodes settled"),
        limit: Limit::Ceiling(floor_number(entry, "crc32_cold_nodes_settled_max")?),
        actual: crc32.number("cold_nodes_settled").ok_or("crc32 row lacks `cold_nodes_settled`")?,
    });
    // The bulk-retarget drain rows: the largest one's search size, a count
    // host speed cannot move, plus the sanity check that the drain never
    // runs more Dijkstra searches than it delivers augmenting paths.
    let drain = doc.array("drain").ok_or("solver doc lacks `drain` (bulk-retarget rows)")?;
    let largest = drain.iter().max_by_key(|row| row.number("n").map_or(0, |n| n as u64));
    let largest = largest.ok_or("solver doc has no drain rows")?;
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] largest drain nodes settled"),
        limit: Limit::Ceiling(floor_number(entry, "drain_nodes_settled_max")?),
        actual: largest.number("nodes_settled").ok_or("drain row lacks `nodes_settled`")?,
    });
    for row in drain {
        let n = row.number("n").unwrap_or(0.0);
        let dijkstras = row.number("dijkstras").ok_or("drain row lacks dijkstras")?;
        let paths = row.number("paths").ok_or("drain row lacks paths")?;
        if dijkstras > paths {
            return Err(format!("drain row n={n}: {dijkstras} Dijkstras exceed {paths} paths"));
        }
    }
    Ok(())
}

fn gate_cache(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc.text("mode").unwrap_or("full");
    let entry = floors_for(floors, "cache", mode)?;
    for key in ["warm_speedup_vs_uncached", "warm_speedup_vs_cold"] {
        checks.push(Check {
            bench: "cache",
            label: format!("cache[{mode}] {key}"),
            limit: Limit::Floor(floor_number(entry, key)?),
            actual: doc.number(key).ok_or_else(|| format!("cache doc lacks `{key}`"))?,
        });
    }
    Ok(())
}

fn gate_sweep(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc.text("mode").unwrap_or("full");
    let entry = floors_for(floors, "sweep", mode)?;
    let key = "speedup_vs_independent";
    checks.push(Check {
        bench: "sweep",
        label: format!("sweep[{mode}] {key}"),
        limit: Limit::Floor(floor_number(entry, key)?),
        actual: doc.number(key).ok_or_else(|| format!("sweep doc lacks `{key}`"))?,
    });
    drain_sanity(doc.array("runs").unwrap_or(&[]), "sweep run")?;
    Ok(())
}

/// Structural sanity over the frame-derived drain fields rows now
/// carry: SSP pushes at least one augmenting path per Dijkstra pass, so
/// `drain_dijkstras <= drain_paths` whenever any path was pushed. Rows
/// without the fields (older documents) pass vacuously — the gate
/// tolerates enrichment, it doesn't require it.
fn drain_sanity(rows: &[Value], what: &str) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let (Some(dijkstras), Some(paths)) =
            (row.number("drain_dijkstras"), row.number("drain_paths"))
        else {
            continue;
        };
        if paths > 0.0 && dijkstras > paths {
            return Err(format!("{what} {i}: {dijkstras} drain Dijkstras exceed {paths} paths"));
        }
    }
    Ok(())
}

fn gate_batch(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc.text("mode").unwrap_or("full");
    let entry = floors_for(floors, "batch", mode)?;
    if doc.get("bit_identical") != Some(&Value::Bool(true)) {
        return Err("batch doc does not attest bit_identical: true".into());
    }
    // Robustness attestation: a bench that dropped jobs, or only survived
    // via the retry machinery, is not a valid measurement. The fields are
    // required — their absence means the document predates them.
    for key in ["jobs_failed", "jobs_retried", "jobs_timed_out"] {
        match doc.number(key) {
            None => return Err(format!("batch doc lacks `{key}`")),
            Some(n) if n != 0.0 => return Err(format!("batch doc attests {key} = {n}, want 0")),
            Some(_) => {}
        }
    }
    let hardware = doc.number("hardware_threads").unwrap_or(1.0);
    let max_threads = doc.number("max_threads_measured").ok_or("batch doc lacks scaling")?;
    let best = doc
        .array("scaling")
        .and_then(|rows| rows.iter().find(|r| r.number("threads") == Some(max_threads)).cloned())
        .ok_or("batch doc lacks the max-threads scaling row")?;
    checks.push(Check {
        bench: "batch",
        label: format!("batch[{mode}] speedup vs independent @ {max_threads} threads"),
        limit: Limit::Floor(floor_number(entry, "vs_independent_at_max_threads")?),
        actual: best
            .number("speedup_vs_independent")
            .ok_or("batch scaling row lacks speedup_vs_independent")?,
    });
    // Wall-clock scaling against the serial session sweep is gated to what
    // the measuring hardware can express: a 1-core container cannot scale,
    // an 8-core runner must.
    let expected_threads = hardware.min(max_threads);
    let floor = floor_number(entry, "vs_serial_abs_floor")?
        .max(floor_number(entry, "vs_serial_per_expected_thread")? * expected_threads);
    checks.push(Check {
        bench: "batch",
        label: format!(
            "batch[{mode}] speedup vs serial @ {max_threads} threads ({hardware} hw threads)"
        ),
        limit: Limit::Floor(floor),
        actual: doc
            .number("speedup_at_max_threads")
            .ok_or("batch doc lacks speedup_at_max_threads")?,
    });
    drain_sanity(doc.array("runs").unwrap_or(&[]), "batch run")?;
    Ok(())
}

fn gate_synth(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc.text("mode").unwrap_or("full");
    let entry = floors_for(floors, "synth", mode)?;
    // The oracle's passes per AND node they emit: the unit of work the
    // passes cannot avoid, so re-hashing or copying shows up as a rise.
    checks.push(Check {
        bench: "synth",
        label: format!("synth[{mode}] passes ns per output AND"),
        limit: Limit::Ceiling(floor_number(entry, "passes_ns_per_and_max")?),
        actual: doc.number("passes_ns_per_and").ok_or("synth doc lacks `passes_ns_per_and`")?,
    });
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = flag_value(&args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let floors_path = flag_value(&args, "--floors")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("floors.json"));
    let required: Vec<&str> =
        flag_value(&args, "--require").map(|v| v.split(',').collect()).unwrap_or_default();
    const KNOWN: [&str; 5] = ["solver", "cache", "sweep", "batch", "synth"];
    // A typo in --require must fail loudly, not silently un-require a bench.
    for name in &required {
        if !KNOWN.contains(name) {
            eprintln!("bench_gate: unknown bench `{name}` in --require (known: {KNOWN:?})");
            return ExitCode::FAILURE;
        }
    }

    let floors = match load(&floors_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    type GateFn = fn(&Value, &Value, &mut Vec<Check>) -> Result<(), String>;
    let benches: [(&str, GateFn); 5] = [
        ("solver", gate_solver),
        ("cache", gate_cache),
        ("sweep", gate_sweep),
        ("batch", gate_batch),
        ("synth", gate_synth),
    ];
    let mut checks: Vec<Check> = Vec::new();
    let mut failures = 0usize;
    let mut loaded: Vec<(&'static str, Value)> = Vec::new();
    let mut red: Vec<&'static str> = Vec::new();
    for (name, gate) in benches {
        let path = dir.join(format!("BENCH_{name}.json"));
        if !path.exists() {
            if required.contains(&name) {
                eprintln!("FAIL  {name}: required artifact {} is missing", path.display());
                failures += 1;
            } else {
                println!("skip  {name}: no {} (not required)", path.display());
            }
            continue;
        }
        match load(&path) {
            Ok(doc) if doc.text("mode") == Some("cli") => {
                // A one-off `isdc-cli batch --out` measurement has no
                // baselines and no bit-identity attestation; it is not a
                // regression-gateable document.
                println!("skip  {name}: {} is a cli measurement, not a bench", path.display());
            }
            Ok(doc) => {
                if let Err(e) = gate(&doc, &floors, &mut checks) {
                    eprintln!("FAIL  {name}: {e}");
                    failures += 1;
                    red.push(name);
                }
                loaded.push((name, doc));
            }
            Err(e) => {
                eprintln!("FAIL  {name}: {e}");
                failures += 1;
            }
        }
    }
    for check in &checks {
        if check.ok() {
            println!("pass  {}", check.describe());
        } else {
            eprintln!("FAIL  {}", check.describe());
            failures += 1;
            red.push(check.bench);
        }
    }
    // Regression attribution: every red bench whose baseline artifact is
    // checked in (`BENCH_<name>.baseline.json`, e.g. copied from the last
    // green run) gets its metric deltas ranked by wall-clock impact.
    red.sort_unstable();
    red.dedup();
    for bench in red {
        let Some((_, doc)) = loaded.iter().find(|(n, _)| *n == bench) else { continue };
        let baseline_path = dir.join(format!("BENCH_{bench}.baseline.json"));
        if !baseline_path.exists() {
            eprintln!("note  {bench}: no {} to attribute against", baseline_path.display());
            continue;
        }
        match load(&baseline_path) {
            Ok(baseline) => {
                eprintln!("{bench}: regression vs {}:", baseline_path.display());
                eprint!("{}", attribution_report(&baseline, doc));
            }
            Err(e) => eprintln!("note  {bench}: {e}"),
        }
    }
    if failures > 0 {
        eprintln!("bench_gate: {failures} regression(s)");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all {} checks passed", checks.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal-but-valid solver document for `gate_solver`.
    fn doc(warm_ns: f64, speedup: f64) -> Value {
        json::parse(&format!(
            r#"{{"mode": "quick",
                 "designs": [
                   {{"name": "crc32", "speedup": {speedup}, "pruning_ratio": 0.9,
                     "cold_nodes_settled": 20000, "warm_ns": {warm_ns}}},
                   {{"name": "sha256", "speedup": 3.0, "warm_ns": 1000.0}}
                 ],
                 "drain": [{{"n": 64, "dijkstras": 9, "paths": 9, "nodes_settled": 300}},
                           {{"n": 32, "dijkstras": 5, "paths": 5, "nodes_settled": 900}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn ceiling_fails_above_its_bound() {
        let red = |drain_max: u32| {
            let floors = json::parse(&format!(
                r#"{{"solver": {{"quick": {{
                    "warm_speedup_min": 1.0,
                    "warm_speedup_geomean": 1.0,
                    "pruning_ratio_min": 0.5,
                    "crc32_cold_nodes_settled_max": 10000,
                    "drain_nodes_settled_max": {drain_max}}}}}}}"#
            ))
            .unwrap();
            let mut checks = Vec::new();
            gate_solver(&doc(500.0, 4.0), &floors, &mut checks).expect("structurally valid doc");
            checks.iter().filter(|c| !c.ok()).map(Check::describe).collect::<Vec<_>>()
        };
        let cold = "solver[quick] crc32 cold nodes settled = 20000.00 above ceiling 10000.00";
        assert_eq!(red(400), [cold]);
        // The drain ceiling reads the largest row (n = 64, 300 settled),
        // not the smaller row that settled more.
        let drain = "solver[quick] largest drain nodes settled = 300.00 above ceiling 200.00";
        assert_eq!(red(200), [cold, drain]);
    }

    #[test]
    fn synth_ceiling_holds_the_passes_cost_per_and() {
        let floors =
            json::parse(r#"{"synth": {"quick": {"passes_ns_per_and_max": 200}}}"#).unwrap();
        let verdicts: Vec<bool> = [150.0, 250.0]
            .iter()
            .map(|ns| {
                let doc =
                    json::parse(&format!(r#"{{"mode": "quick", "passes_ns_per_and": {ns}}}"#))
                        .unwrap();
                let mut checks = Vec::new();
                gate_synth(&doc, &floors, &mut checks).expect("structurally valid doc");
                checks.iter().all(Check::ok)
            })
            .collect();
        assert_eq!(verdicts, [true, false]);
        let mut checks = Vec::new();
        let err = gate_synth(&json::parse(r#"{"mode": "quick"}"#).unwrap(), &floors, &mut checks);
        assert_eq!(err, Err("synth doc lacks `passes_ns_per_and`".to_string()));
    }

    #[test]
    fn deliberately_failed_floor_prints_ranked_attribution() {
        let floors = json::parse(
            r#"{"solver": {"quick": {
                "warm_speedup_min": 1000.0,
                "warm_speedup_geomean": 1000.0,
                "pruning_ratio_min": 0.5,
                "crc32_cold_nodes_settled_max": 50000,
                "drain_nodes_settled_max": 1000}}}"#,
        )
        .unwrap();
        let current = doc(50_000.0, 4.0);
        let mut checks = Vec::new();
        gate_solver(&current, &floors, &mut checks).expect("structurally valid doc");
        let red: Vec<&Check> = checks.iter().filter(|c| !c.ok()).collect();
        assert!(!red.is_empty(), "the 1000x floor must fail");
        assert!(red.iter().all(|c| c.bench == "solver"));

        // The attribution the gate prints for that red bench: crc32's
        // warm solve time grew 100x and must rank first, with its share
        // of the wall-clock delta.
        let baseline = doc(500.0, 40.0);
        let report = attribution_report(&baseline, &current);
        assert!(report.starts_with("attribution: total wall-clock delta"), "{report}");
        let first_row = report.lines().nth(1).expect("at least one ranked row");
        assert!(first_row.trim_start().starts_with("designs/crc32/warm_ns"), "{report}");
        assert!(first_row.contains("of delta"), "{report}");
    }
}
