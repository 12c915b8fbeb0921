//! The batch job model and its on-disk JSON spec format.
//!
//! A **job** names a design and a unit of scheduling work over it — a
//! clock-period sweep or a minimum-feasible-period search. Jobs are what
//! users hand the batch engine (CLI `batch --jobs spec.json`); the engine's
//! planner then splits sweeps into period *shards* for the worker pool
//! ([`crate::plan_shards`]).
//!
//! The spec file is one object:
//!
//! ```json
//! {
//!   "jobs": [
//!     {"design": "crc32", "type": "sweep", "from": 2500, "to": 5000, "points": 10},
//!     {"design": "rrot",  "type": "sweep", "periods": [2500, 2600, 3000]},
//!     {"design": "sha256", "type": "min_period", "lo": 1, "hi": 5000, "tol": 10}
//!   ]
//! }
//! ```
//!
//! Sweep jobs give either an explicit `periods` array (run in the given
//! order — ascending recommended, so shards warm-start internally) or a
//! `from`/`to`/`points` linear grid. Every period-valued field (`periods`
//! entries, `from`, `to`, `lo`, `hi`, `tol`) must be a finite number of
//! picoseconds above 0, the rule the CLI applies to its period flags.
//! Unknown keys are ignored so the format can grow. The codec is
//! hand-rolled on [`isdc_cache::json`] (the build environment has no
//! `serde_json`).

use isdc_cache::json::Parser;
use isdc_core::linear_grid;
use isdc_techlib::Picos;
use isdc_telemetry::escape_json;
use std::fmt::Write as _;

/// What a [`Job`] asks the engine to do with its design.
#[derive(Clone, Debug, PartialEq)]
pub enum JobKind {
    /// Run every period in order through a session
    /// ([`isdc_core::sweep_clock_period`] semantics, point for point).
    Sweep {
        /// The clock periods to schedule for, in execution order.
        periods: Vec<Picos>,
    },
    /// Binary-search the smallest feasible period
    /// ([`isdc_core::min_feasible_period`] semantics).
    MinPeriod {
        /// Lower search bound (may be infeasible).
        lo: Picos,
        /// Upper search bound (should be feasible).
        hi: Picos,
        /// Search resolution in picoseconds.
        tol_ps: Picos,
    },
}

/// One unit of user-facing batch work: a design plus a [`JobKind`].
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// The design's name, resolved against the engine's design table.
    pub design: String,
    /// The work to run.
    pub kind: JobKind,
    /// Per-job wall-clock budget in milliseconds, measured from the job's
    /// first shard claim. When it trips, the job reports
    /// `JobStatus::TimedOut` (terminal — never retried) and its points are
    /// withheld like any other non-Ok status. `None` = unbounded. Spec key:
    /// `deadline_ms`.
    pub deadline_ms: Option<u64>,
}

impl Job {
    /// A sweep job over an explicit period list.
    pub fn sweep(design: impl Into<String>, periods: Vec<Picos>) -> Self {
        Self { design: design.into(), kind: JobKind::Sweep { periods }, deadline_ms: None }
    }

    /// A minimum-feasible-period search job.
    pub fn min_period(design: impl Into<String>, lo: Picos, hi: Picos, tol_ps: Picos) -> Self {
        Self {
            design: design.into(),
            kind: JobKind::MinPeriod { lo, hi, tol_ps },
            deadline_ms: None,
        }
    }

    /// Builder: sets the per-job deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Number of session runs the job performs up front (probes of a search
    /// are counted as 0 — they depend on feasibility outcomes).
    pub fn planned_points(&self) -> usize {
        match &self.kind {
            JobKind::Sweep { periods } => periods.len(),
            JobKind::MinPeriod { .. } => 0,
        }
    }
}

/// Serializes jobs in the spec format (stable field order, roundtrips
/// bit-identically through [`parse_jobs`]).
pub fn render_jobs(jobs: &[Job]) -> String {
    let mut out = String::from("{\"jobs\":[\n");
    for (i, job) in jobs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "  {{\"design\":\"{}\",", escape_json(&job.design));
        if let Some(ms) = job.deadline_ms {
            let _ = write!(out, "\"deadline_ms\":{ms},");
        }
        match &job.kind {
            JobKind::Sweep { periods } => {
                out.push_str("\"type\":\"sweep\",\"periods\":[");
                for (j, p) in periods.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{p:?}");
                }
                out.push_str("]}");
            }
            JobKind::MinPeriod { lo, hi, tol_ps } => {
                let _ = write!(
                    out,
                    "\"type\":\"min_period\",\"lo\":{lo:?},\"hi\":{hi:?},\"tol\":{tol_ps:?}}}"
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Parses a job-spec document (see the [module docs](self) for the format).
///
/// # Errors
///
/// Returns a description of the first malformed construct: unknown job
/// types, sweeps without periods, a period-valued field that is not a
/// finite number above 0, grids with `points == 0` or `to < from`, searches
/// with `lo > hi`.
pub fn parse_jobs(json: &str) -> Result<Vec<Job>, String> {
    let mut p = Parser::new(json);
    let mut jobs: Vec<Job> = Vec::new();
    p.expect(b'{')?;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        if key == "jobs" {
            p.expect(b'[')?;
            if !p.peek_close(b']') {
                loop {
                    jobs.push(parse_job(&mut p)?);
                    if !p.comma_or_close(b']')? {
                        break;
                    }
                }
            }
        } else {
            p.skip_value()?;
        }
        if !p.comma_or_close(b'}')? {
            break;
        }
    }
    Ok(jobs)
}

fn parse_job(p: &mut Parser<'_>) -> Result<Job, String> {
    let mut design: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut periods: Option<Vec<Picos>> = None;
    let (mut from, mut to, mut points) = (None, None, None);
    let (mut lo, mut hi, mut tol) = (None, None, None);
    let mut deadline_ms: Option<u64> = None;
    p.expect(b'{')?;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "design" => design = Some(p.string()?),
            "type" => kind = Some(p.string()?),
            "periods" => {
                let mut list = Vec::new();
                p.expect(b'[')?;
                if !p.peek_close(b']') {
                    loop {
                        list.push(p.number()?);
                        if !p.comma_or_close(b']')? {
                            break;
                        }
                    }
                }
                periods = Some(list);
            }
            "from" => from = Some(p.number()?),
            "to" => to = Some(p.number()?),
            "points" => points = Some(p.number()? as usize),
            "lo" => lo = Some(p.number()?),
            "hi" => hi = Some(p.number()?),
            "tol" => tol = Some(p.number()?),
            "deadline_ms" => {
                let ms = p.number()?;
                if !(ms.is_finite() && ms >= 0.0) {
                    return Err("deadline_ms must be a nonnegative number".to_string());
                }
                deadline_ms = Some(ms as u64);
            }
            _ => p.skip_value()?,
        }
        if !p.comma_or_close(b'}')? {
            break;
        }
    }
    let design = design.ok_or("job without a design name")?;
    for (key, value) in [("from", from), ("to", to), ("lo", lo), ("hi", hi), ("tol", tol)] {
        value.map_or(Ok(()), |v| check_picos(&design, key, v))?;
    }
    for &period in periods.iter().flatten() {
        check_picos(&design, "periods", period)?;
    }
    let kind = match kind.as_deref() {
        Some("sweep") | None => {
            let periods = match (periods, from) {
                (Some(list), _) if !list.is_empty() => list,
                (Some(_), _) => return Err(format!("job `{design}`: empty periods array")),
                (None, Some(from)) => {
                    let points = points.unwrap_or(10);
                    let to = to.unwrap_or(from * 2.0);
                    if points == 0 || to < from {
                        return Err(format!(
                            "job `{design}`: grid needs points >= 1 and to >= from"
                        ));
                    }
                    linear_grid(from, to, points)
                }
                (None, None) => {
                    return Err(format!("job `{design}`: sweep needs `periods` or `from`"));
                }
            };
            JobKind::Sweep { periods }
        }
        Some("min_period") => {
            let hi = hi.ok_or_else(|| format!("job `{design}`: min_period needs `hi`"))?;
            let lo = lo.unwrap_or(1.0);
            let tol_ps = tol.unwrap_or(10.0);
            if lo > hi {
                return Err(format!("job `{design}`: min_period needs lo <= hi"));
            }
            JobKind::MinPeriod { lo, hi, tol_ps }
        }
        Some(other) => return Err(format!("job `{design}`: unknown type `{other}`")),
    };
    Ok(Job { design, kind, deadline_ms })
}

/// Checks one period-valued field: a finite number of picoseconds above 0.
fn check_picos(design: &str, key: &str, value: Picos) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("job `{design}`: bad {key} `{value}` (want a finite number of ps above 0)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_periods_roundtrip() {
        let jobs = vec![
            Job::sweep("crc32", vec![2500.0, 3000.0, 1.0 / 3.0]),
            Job::min_period("sha256", 1.0, 5000.0, 10.0),
            Job::sweep("rrot", vec![2500.0]).with_deadline_ms(750),
        ];
        let parsed = parse_jobs(&render_jobs(&jobs)).unwrap();
        assert_eq!(parsed, jobs, "render/parse must roundtrip bit-identically");
    }

    #[test]
    fn deadline_ms_parses_and_validates() {
        let jobs = parse_jobs(
            r#"{"jobs":[{"design":"d","type":"sweep","periods":[1500],"deadline_ms":250}]}"#,
        )
        .unwrap();
        assert_eq!(jobs[0].deadline_ms, Some(250));
        assert!(parse_jobs(
            r#"{"jobs":[{"design":"d","type":"sweep","periods":[1500],"deadline_ms":-1}]}"#
        )
        .is_err());
    }

    #[test]
    fn grid_form_expands_like_linear_grid() {
        let json =
            r#"{"jobs":[{"design":"d", "type":"sweep", "from":1000, "to":2000, "points":5}]}"#;
        let jobs = parse_jobs(json).unwrap();
        assert_eq!(jobs[0].kind, JobKind::Sweep { periods: linear_grid(1000.0, 2000.0, 5) });
        // Defaults: to = 2*from, points = 10, type = sweep.
        let jobs = parse_jobs(r#"{"jobs":[{"design":"d","from":1000}]}"#).unwrap();
        assert_eq!(jobs[0].kind, JobKind::Sweep { periods: linear_grid(1000.0, 2000.0, 10) });
        assert_eq!(jobs[0].planned_points(), 10);
    }

    #[test]
    fn min_period_defaults_and_validation() {
        let jobs =
            parse_jobs(r#"{"jobs":[{"design":"d","type":"min_period","hi":2500}]}"#).unwrap();
        assert_eq!(jobs[0].kind, JobKind::MinPeriod { lo: 1.0, hi: 2500.0, tol_ps: 10.0 });
        for bad in [
            r#"{"jobs":[{"design":"d","type":"min_period"}]}"#,
            r#"{"jobs":[{"design":"d","type":"min_period","hi":10,"lo":20}]}"#,
            r#"{"jobs":[{"design":"d","type":"min_period","hi":10,"tol":0}]}"#,
            r#"{"jobs":[{"design":"d","type":"warp"}]}"#,
            r#"{"jobs":[{"design":"d","type":"sweep"}]}"#,
            r#"{"jobs":[{"design":"d","type":"sweep","periods":[]}]}"#,
            r#"{"jobs":[{"type":"sweep","from":1000}]}"#,
        ] {
            assert!(parse_jobs(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn non_positive_or_non_finite_periods_rejected() {
        for (bad, key) in [
            (r#"{"jobs":[{"design":"d","periods":[-2500,0]}]}"#, "periods `-2500`"),
            (r#"{"jobs":[{"design":"d","periods":[2500,0]}]}"#, "periods `0`"),
            (r#"{"jobs":[{"design":"d","periods":[1e999]}]}"#, "periods `inf`"),
            (r#"{"jobs":[{"design":"d","from":-1000}]}"#, "from `-1000`"),
            (r#"{"jobs":[{"design":"d","from":1000,"to":0}]}"#, "to `0`"),
            (r#"{"jobs":[{"design":"d","type":"min_period","lo":-50,"hi":10}]}"#, "lo `-50`"),
            (r#"{"jobs":[{"design":"d","type":"min_period","hi":-1e999}]}"#, "hi `-inf`"),
            (r#"{"jobs":[{"design":"d","type":"min_period","hi":10,"tol":0}]}"#, "tol `0`"),
        ] {
            let err = parse_jobs(bad).expect_err(bad);
            assert!(err.contains(&format!("job `d`: bad {key}")), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_keys_and_whitespace_tolerated() {
        let json = r#" { "comment": {"made by": ["a", "future", "version"]},
                         "jobs" : [ { "design" : "d" , "priority" : 3 ,
                                      "type" : "sweep" , "periods" : [ 1500 ] } ] } "#;
        let jobs = parse_jobs(json).unwrap();
        assert_eq!(jobs, vec![Job::sweep("d", vec![1500.0])]);
        assert_eq!(parse_jobs(r#"{"jobs":[]}"#).unwrap(), Vec::new());
    }
}
