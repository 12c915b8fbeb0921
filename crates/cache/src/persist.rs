//! On-disk snapshots of a [`DelayCache`] as JSON.
//!
//! The format is a single object:
//!
//! ```json
//! {
//!   "version": 2,
//!   "oracle": "synthesis",
//!   "entries": [
//!     {"key": "<32 hex digits>", "delay_ps": 812.5, "aig_depth": 14,
//!      "and_count": 220, "arrivals": [[0, 812.5], [2, 640.0]]}
//!   ],
//!   "potentials": [
//!     {"key": "<32 hex digits>", "clock_ps": 2500, "pi": [0, -1, -2]}
//!   ]
//! }
//! ```
//!
//! The `oracle` tag records which [`DelayOracle`](isdc_synth::DelayOracle)
//! (by `name()`) produced the entries; loading rejects a mismatch, so a
//! snapshot cached from one downstream flow is never silently replayed
//! against another. Oracles that time differently (custom script, different
//! library) must therefore report distinct names.
//!
//! **Versioning.** Version 2 added the `potentials` section — LP solver
//! potentials per (design fingerprint, clock period), the cross-run
//! warm-start currency of [`IsdcSession`](../isdc_core). Version 3 added
//! the crash-safety layer: files are written temp-then-rename (a torn
//! process dies before the rename and leaves the old snapshot intact) and
//! carry a trailing integrity footer line, `#crc32:xxxxxxxx`, covering the
//! JSON body — so truncation and bit corruption are *detected*, not
//! silently merged. The compatibility rule: a loader accepts its own
//! version and every earlier one (v1 has no potentials; v1/v2 have no
//! footer and load unchanged), and always writes the current version.
//! Potentials are guarded three times: by the oracle tag; here, where a
//! `pi` entry that is not an integer within ±2^53 (the largest a JSON
//! number carries exactly) makes the file corrupt; and by the importer,
//! which refuses a vector beyond its own, smaller bound or infeasible for
//! its own LP — so a bad vector costs a cold start, never a wrong schedule
//! or a stalled solve. Delay entries are checked the same way: an entry
//! without a `delay_ps`, with a delay or arrival that is negative or not
//! finite, or with an `aig_depth`, `and_count` or arrival index that is
//! not a non-negative integer in range makes the file corrupt. Replayed, it
//! would fail every run that hits it, set every pair it covers to 0, or
//! move an arrival onto another member.
//!
//! **Recovery.** [`DelayCache::load`] stays strict (an error for every
//! failure); [`DelayCache::load_resilient`] implements the fleet policy: a
//! corrupt file (truncated, checksum mismatch, unparseable, unsupported
//! version) is *quarantined* — renamed to `<name>.corrupt` so the evidence
//! survives and the next save cannot be confused with it — and the run
//! continues on a cold cache, reporting a [`SnapshotLoad::ColdStart`]
//! warning instead of erroring. A snapshot produced by a *different*
//! oracle is foreign, not corrupt: it is left untouched on disk.
//!
//! Floats are written in Rust's shortest-roundtrip form, so a
//! save/load cycle reproduces bit-identical `f64`s. The codec is hand-rolled
//! on [`isdc_telemetry::json`] because the build environment cannot fetch
//! `serde_json`; it accepts any whitespace and ignores unknown object keys
//! (whose values must still be well formed), so the format can grow, and a
//! body with anything after its closing `}` is corrupt.

use crate::fingerprint::Fingerprint;
use crate::store::{CachedDelay, DelayCache, StoredPotentials};
use isdc_faults::FaultKind;
use isdc_telemetry::escape_json;
use isdc_telemetry::json::Parser;
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u64 = 3;

/// Oldest snapshot version [`DelayCache::merge_json`] still accepts.
pub const OLDEST_SUPPORTED_SNAPSHOT_VERSION: u64 = 1;

/// First version whose files must end in a `#crc32:` integrity footer; a
/// v3 body without one is a truncated write, not a valid snapshot.
const FOOTER_REQUIRED_VERSION: u64 = 3;

/// CRC-32 (IEEE 802.3, reflected, the `cksum -o3`/zlib polynomial) over
/// `data`. Bitwise rather than table-driven: snapshots are small enough
/// that the simpler code wins over 1 KiB of table.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Splits a snapshot file's contents into the JSON body and its verified
/// footer checksum, if a footer is present.
///
/// Accepts exactly the footer [`DelayCache::save`] writes:
/// `\n#crc32:xxxxxxxx\n` after the body.
fn split_footer(data: &str) -> Result<(&str, Option<u32>), String> {
    let trimmed = data.strip_suffix('\n').unwrap_or(data);
    let Some(at) = trimmed.rfind("\n#crc32:") else {
        return Ok((data, None));
    };
    let (body, footer) = (&trimmed[..at], &trimmed[at + "\n#crc32:".len()..]);
    let stored = u32::from_str_radix(footer, 16)
        .map_err(|_| format!("malformed integrity footer `#crc32:{footer}`"))?;
    Ok((body, Some(stored)))
}

/// Best-effort peek at the body's `version` field without mutating
/// anything; `None` when the body is malformed (the merge will report it).
fn peek_version(json: &str) -> Option<u64> {
    let mut p = Parser::new(json);
    p.expect(b'{').ok()?;
    loop {
        let key = p.string().ok()?;
        p.expect(b':').ok()?;
        if key == "version" {
            return Some(p.number().ok()? as u64);
        }
        p.skip_value().ok()?;
        if !p.comma_or_close(b'}').ok()? {
            return None;
        }
    }
}

/// Why a snapshot failed to load, classified for the recovery policy.
enum LoadFailure {
    /// The file could not be read at all.
    Io(std::io::ErrorKind, String),
    /// The bytes are not a valid snapshot — quarantine material.
    Corrupt(String),
    /// A valid snapshot from a different oracle — left untouched on disk.
    Foreign(String),
}

/// The outcome of a resilient snapshot load
/// ([`DelayCache::load_resilient`]): the fleet keeps running on a cold
/// cache instead of erroring when a snapshot is unusable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotLoad {
    /// The snapshot merged cleanly.
    Loaded {
        /// Delay entries merged.
        entries: usize,
    },
    /// No snapshot exists at the path — a normal first run.
    Missing,
    /// The snapshot was unusable; the run proceeds cold.
    ColdStart {
        /// Human-readable cause (checksum mismatch, truncation, foreign
        /// oracle, I/O failure…).
        reason: String,
        /// Where the corrupt file was moved (`<name>.corrupt`), when it
        /// was quarantined. `None` for foreign/I/O causes.
        quarantined: Option<PathBuf>,
    },
}

impl DelayCache {
    /// Serializes every entry to the snapshot JSON format, stamped with the
    /// producing oracle's name (escaped as needed).
    pub fn to_json(&self, oracle: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"version\":");
        let _ = write!(out, "{SNAPSHOT_VERSION}");
        let _ = write!(out, ",\"oracle\":\"{}\"", escape_json(oracle));
        out.push_str(",\"entries\":[");
        for (i, (fp, entry)) in self.entries().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":\"{fp}\",\"delay_ps\":{:?},\"aig_depth\":{},\"and_count\":{},\"arrivals\":[",
                entry.delay_ps, entry.aig_depth, entry.and_count
            );
            for (j, (idx, ps)) in entry.arrivals.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{idx},{ps:?}]");
            }
            out.push_str("]}");
        }
        out.push_str("],\"potentials\":[");
        for (i, (fp, stored)) in self.potential_entries().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"key\":\"{fp}\",\"clock_ps\":{:?},\"pi\":[", stored.clock_ps);
            for (j, p) in stored.pi.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{p}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Merges entries from snapshot JSON into this cache (silently, without
    /// touching the hit/miss/insert counters). Returns the number of entries
    /// merged.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct, and rejects
    /// snapshots whose `oracle` tag is missing or differs from `oracle` —
    /// delays measured by one downstream flow must not be replayed against
    /// another.
    pub fn merge_json(&self, json: &str, oracle: &str) -> Result<usize, String> {
        let mut p = Parser::new(json);
        // Parse fully before touching the cache, so a rejected snapshot
        // (bad tag, malformed tail) merges nothing.
        let mut parsed: Vec<(Fingerprint, CachedDelay)> = Vec::new();
        let mut potentials: Vec<(Fingerprint, StoredPotentials)> = Vec::new();
        let mut tagged: Option<String> = None;
        p.expect(b'{')?;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "version" => {
                    let v = p.number()? as u64;
                    if !(OLDEST_SUPPORTED_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&v) {
                        return Err(format!("unsupported snapshot version {v}"));
                    }
                }
                "oracle" => {
                    let tag = p.string()?;
                    if tag != oracle {
                        return Err(format!(
                            "snapshot was produced by oracle `{tag}`, not `{oracle}`"
                        ));
                    }
                    tagged = Some(tag);
                }
                "entries" => {
                    p.expect(b'[')?;
                    if !p.peek_close(b']') {
                        loop {
                            parsed.push(parse_entry(&mut p)?);
                            if !p.comma_or_close(b']')? {
                                break;
                            }
                        }
                    }
                }
                "potentials" => {
                    p.expect(b'[')?;
                    if !p.peek_close(b']') {
                        loop {
                            potentials.push(parse_potentials(&mut p)?);
                            if !p.comma_or_close(b']')? {
                                break;
                            }
                        }
                    }
                }
                _ => p.skip_value()?,
            }
            if !p.comma_or_close(b'}')? {
                break;
            }
        }
        p.finish()?;
        if tagged.is_none() {
            return Err("snapshot has no oracle tag".to_string());
        }
        let merged = parsed.len();
        for (fp, entry) in parsed {
            self.insert_silent(fp, entry);
        }
        for (fp, stored) in potentials {
            self.store_potentials(fp, stored.clock_ps, stored.pi);
        }
        Ok(merged)
    }

    /// Loads and verifies a snapshot file, classifying any failure for the
    /// recovery policy. Verification (footer checksum, version/footer
    /// agreement, full parse) happens before anything merges, so a
    /// rejected file merges nothing.
    fn load_classified(&self, path: &Path, oracle: &str) -> Result<usize, LoadFailure> {
        let data = std::fs::read_to_string(path)
            .map_err(|e| LoadFailure::Io(e.kind(), format!("reading {}: {e}", path.display())))?;
        if data.is_empty() {
            return Err(LoadFailure::Corrupt("snapshot file is empty".to_string()));
        }
        let (body, footer) = split_footer(&data).map_err(LoadFailure::Corrupt)?;
        if let Some(stored) = footer {
            let actual = crc32(body.as_bytes());
            if actual != stored {
                return Err(LoadFailure::Corrupt(format!(
                    "integrity check failed: footer crc32 {stored:08x}, body crc32 {actual:08x}"
                )));
            }
        } else if peek_version(body).is_some_and(|v| v >= FOOTER_REQUIRED_VERSION) {
            return Err(LoadFailure::Corrupt(
                "snapshot is truncated: version requires an integrity footer, none found"
                    .to_string(),
            ));
        }
        self.merge_json(body, oracle).map_err(|e| {
            // The one non-corruption rejection merge_json produces is the
            // oracle-tag mismatch (see the message it formats above).
            if e.starts_with("snapshot was produced by oracle") {
                LoadFailure::Foreign(e)
            } else {
                LoadFailure::Corrupt(e)
            }
        })
    }

    /// Strict convenience: [`DelayCache::merge_json`] from a file, with the
    /// v3 integrity footer verified when present.
    ///
    /// # Errors
    ///
    /// Returns the I/O, integrity, or parse failure, including an
    /// oracle-tag mismatch. For the degrade-instead-of-error policy use
    /// [`DelayCache::load_resilient`].
    pub fn load(&self, path: &Path, oracle: &str) -> Result<usize, String> {
        self.load_classified(path, oracle).map_err(|failure| match failure {
            LoadFailure::Io(_, e) | LoadFailure::Corrupt(e) | LoadFailure::Foreign(e) => e,
        })
    }

    /// The fleet's snapshot-load policy: merge when the file is intact,
    /// otherwise degrade to a cold start instead of erroring. A *corrupt*
    /// file (truncated/torn write, checksum mismatch, unparseable,
    /// unsupported version) is quarantined by renaming it to
    /// `<name>.corrupt`; a missing file or a foreign oracle's snapshot is
    /// reported without touching the disk. Never panics, never errors.
    pub fn load_resilient(&self, path: &Path, oracle: &str) -> SnapshotLoad {
        match self.load_classified(path, oracle) {
            Ok(entries) => SnapshotLoad::Loaded { entries },
            Err(LoadFailure::Io(std::io::ErrorKind::NotFound, _)) => SnapshotLoad::Missing,
            Err(LoadFailure::Io(_, reason)) | Err(LoadFailure::Foreign(reason)) => {
                SnapshotLoad::ColdStart { reason, quarantined: None }
            }
            Err(LoadFailure::Corrupt(reason)) => {
                let mut name = path.as_os_str().to_os_string();
                name.push(".corrupt");
                let target = PathBuf::from(name);
                let quarantined = std::fs::rename(path, &target).ok().map(|()| target);
                SnapshotLoad::ColdStart { reason, quarantined }
            }
        }
    }

    /// Writes the snapshot to `path` crash-safely, creating parent
    /// directories: the JSON body plus its `#crc32:` footer land in a
    /// sibling `<name>.tmp` file which is then renamed over `path`, so a
    /// crash mid-write can tear only the temp file — the previous snapshot
    /// survives intact — and a torn rename target is detectable by the
    /// footer check.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure (or an injected `snapshot/write` fault).
    pub fn save(&self, path: &Path, oracle: &str) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating {}: {e}", parent.display()))?;
            }
        }
        let body = self.to_json(oracle);
        let data = format!("{body}\n#crc32:{:08x}\n", crc32(body.as_bytes()));
        match isdc_faults::check("snapshot/write") {
            // A torn write: half the bytes land at the final path with no
            // rename barrier, and the caller is told nothing — exactly the
            // evidence a mid-write crash leaves. The next load must detect
            // and quarantine it.
            Some(FaultKind::TruncateWrite) => {
                return std::fs::write(path, &data.as_bytes()[..data.len() / 2])
                    .map_err(|e| format!("writing {}: {e}", path.display()));
            }
            Some(FaultKind::Error) => {
                return Err(format!("injected error fault at snapshot/write ({})", path.display()));
            }
            Some(FaultKind::Panic) => panic!("injected panic fault at snapshot/write"),
            // A stall sleeps inside the hook and surfaces as None.
            Some(FaultKind::Stall) | None => {}
        }
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        std::fs::write(&tmp, &data).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("renaming {} over {}: {e}", tmp.display(), path.display()))
    }
}

/// The largest integer magnitude a JSON number carries exactly, 2^53.
const EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// Reads a number that must be an integer within `range`.
fn integer(p: &mut Parser<'_>, what: &str, range: RangeInclusive<f64>) -> Result<f64, String> {
    let x = p.number()?;
    if x.fract() == 0.0 && range.contains(&x) {
        Ok(x)
    } else {
        Err(format!("{what} {x} is not an integer within {}..={}", range.start(), range.end()))
    }
}

/// Reads a delay in picoseconds, which must be finite and at least 0.
fn delay(p: &mut Parser<'_>, what: &str) -> Result<f64, String> {
    let x = p.number()?;
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!("{what} {x} is not a finite delay at least 0"))
    }
}

fn parse_entry(p: &mut Parser<'_>) -> Result<(Fingerprint, CachedDelay), String> {
    let mut fp: Option<Fingerprint> = None;
    let mut delay_ps: Option<f64> = None;
    let mut entry = CachedDelay { delay_ps: 0.0, aig_depth: 0, and_count: 0, arrivals: Vec::new() };
    p.expect(b'{')?;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "key" => {
                let s = p.string()?;
                fp = Some(Fingerprint::parse(&s).ok_or_else(|| format!("bad fingerprint `{s}`"))?);
            }
            "delay_ps" => delay_ps = Some(delay(p, "delay_ps")?),
            "aig_depth" => entry.aig_depth = integer(p, "aig_depth", 0.0..=u32::MAX.into())? as u32,
            "and_count" => entry.and_count = integer(p, "and_count", 0.0..=EXACT_INTEGER)? as usize,
            "arrivals" => {
                p.expect(b'[')?;
                if !p.peek_close(b']') {
                    loop {
                        p.expect(b'[')?;
                        let idx = integer(p, "arrival index", 0.0..=u32::MAX.into())? as u32;
                        p.expect(b',')?;
                        let ps = delay(p, "arrival")?;
                        p.expect(b']')?;
                        entry.arrivals.push((idx, ps));
                        if !p.comma_or_close(b']')? {
                            break;
                        }
                    }
                }
            }
            _ => p.skip_value()?,
        }
        if !p.comma_or_close(b'}')? {
            break;
        }
    }
    let fp = fp.ok_or("entry without key")?;
    entry.delay_ps = delay_ps.ok_or("entry without delay_ps")?;
    Ok((fp, entry))
}

fn parse_potentials(p: &mut Parser<'_>) -> Result<(Fingerprint, StoredPotentials), String> {
    let mut fp: Option<Fingerprint> = None;
    let mut stored = StoredPotentials { clock_ps: 0.0, pi: Vec::new() };
    p.expect(b'{')?;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "key" => {
                let s = p.string()?;
                fp = Some(Fingerprint::parse(&s).ok_or_else(|| format!("bad fingerprint `{s}`"))?);
            }
            "clock_ps" => stored.clock_ps = p.number()?,
            "pi" => {
                p.expect(b'[')?;
                if !p.peek_close(b']') {
                    loop {
                        let x = integer(p, "potential", -EXACT_INTEGER..=EXACT_INTEGER)?;
                        stored.pi.push(x as i64);
                        if !p.comma_or_close(b']')? {
                            break;
                        }
                    }
                }
            }
            _ => p.skip_value()?,
        }
        if !p.comma_or_close(b'}')? {
            break;
        }
    }
    let fp = fp.ok_or("potentials without key")?;
    Ok((fp, stored))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DelayCache {
        let cache = DelayCache::new();
        cache.insert(
            Fingerprint(0xdeadbeef),
            CachedDelay {
                delay_ps: 812.625,
                aig_depth: 14,
                and_count: 220,
                arrivals: vec![(0, 812.625), (2, 1.0 / 3.0)],
            },
        );
        cache.insert(
            Fingerprint(7),
            CachedDelay { delay_ps: 0.25, aig_depth: 1, and_count: 2, arrivals: vec![] },
        );
        cache
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        let cache = sample();
        let restored = DelayCache::new();
        let merged = restored.merge_json(&cache.to_json("synthesis"), "synthesis").unwrap();
        assert_eq!(merged, 2);
        assert_eq!(restored.entries(), cache.entries());
    }

    #[test]
    fn file_roundtrip() {
        let cache = sample();
        let path = std::env::temp_dir()
            .join(format!("isdc-cache-persist-test-{}.json", std::process::id()));
        cache.save(&path, "synthesis").unwrap();
        let restored = DelayCache::new();
        assert_eq!(restored.load(&path, "synthesis").unwrap(), 2);
        assert_eq!(restored.entries(), cache.entries());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn whitespace_and_unknown_keys_tolerated() {
        let json = r#" {
            "version" : 1 ,
            "oracle" : "synthesis" ,
            "comment" : "made by a future version, with sneaky } and ] brackets" ,
            "entries" : [ {
                "key" : "000000000000000000000000000000ff" ,
                "future_field" : [ 1 , { "x" : 2 , "note" : "a}b]c" } ] ,
                "delay_ps" : 10.5 ,
                "aig_depth" : 2 ,
                "and_count" : 3 ,
                "arrivals" : [ [ 1 , 10.5 ] ]
            } ]
        } "#;
        let cache = DelayCache::new();
        assert_eq!(cache.merge_json(json, "synthesis").unwrap(), 1);
        let got = cache.get(Fingerprint(0xff)).unwrap();
        assert_eq!(got.delay_ps, 10.5);
        assert_eq!(got.arrivals, vec![(1, 10.5)]);
    }

    #[test]
    fn potentials_roundtrip_with_entries() {
        let cache = sample();
        cache.store_potentials(Fingerprint(0xabc), 2500.0, vec![0, -1, -2, 7]);
        cache.store_potentials(Fingerprint(0xabc), 3000.0, vec![0, 0, -1, 5]);
        let restored = DelayCache::new();
        restored.merge_json(&cache.to_json("synthesis"), "synthesis").unwrap();
        assert_eq!(restored.entries(), cache.entries());
        assert_eq!(restored.potential_entries(), cache.potential_entries());
        assert_eq!(
            restored.nearest_potentials(Fingerprint(0xabc), 2600.0),
            Some((2500.0, vec![0, -1, -2, 7])),
        );
    }

    #[test]
    fn version_1_snapshot_still_loads_without_potentials() {
        // The compatibility rule: all versions back to 1 are accepted; a
        // v1 snapshot just carries no potentials section.
        let json = r#"{"version":1,"oracle":"synthesis","entries":[
            {"key":"0000000000000000000000000000000a","delay_ps":3.5,
             "aig_depth":1,"and_count":2,"arrivals":[[0,3.5]]}]}"#;
        let cache = DelayCache::new();
        assert_eq!(cache.merge_json(json, "synthesis").unwrap(), 1);
        assert!(cache.potential_entries().is_empty());
    }

    #[test]
    fn wrong_version_rejected() {
        let cache = DelayCache::new();
        let err = cache
            .merge_json(r#"{"version":99,"oracle":"synthesis","entries":[]}"#, "synthesis")
            .unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn oracle_mismatch_rejected() {
        let cache = sample();
        let json = cache.to_json("synthesis");
        let restored = DelayCache::new();
        let err = restored.merge_json(&json, "aig-depth").unwrap_err();
        assert!(err.contains("synthesis") && err.contains("aig-depth"), "{err}");
        assert!(restored.is_empty(), "a rejected snapshot must merge nothing");
    }

    #[test]
    fn awkward_oracle_names_roundtrip() {
        // Nothing forbids quotes or backslashes in a custom oracle's name;
        // persistence must escape rather than panic or corrupt.
        let name = r#"my "fast\slow" oracle"#;
        let cache = sample();
        let restored = DelayCache::new();
        assert_eq!(restored.merge_json(&cache.to_json(name), name).unwrap(), 2);
        assert_eq!(restored.entries(), cache.entries());
        assert!(restored.merge_json(&cache.to_json(name), "other").is_err());
    }

    #[test]
    fn untagged_snapshot_rejected() {
        let cache = DelayCache::new();
        let err = cache.merge_json(r#"{"version":1,"entries":[]}"#, "synthesis").unwrap_err();
        assert!(err.contains("no oracle tag"), "{err}");
    }

    #[test]
    fn malformed_input_rejected() {
        let cache = DelayCache::new();
        assert!(cache.merge_json("not json", "synthesis").is_err());
        let missing_key = r#"{"version":1,"oracle":"synthesis","entries":[{"delay_ps":1}]}"#;
        assert!(cache.merge_json(missing_key, "synthesis").is_err());
    }

    #[test]
    fn empty_cache_roundtrip() {
        let cache = DelayCache::new();
        let restored = DelayCache::new();
        assert_eq!(restored.merge_json(&cache.to_json("synthesis"), "synthesis").unwrap(), 0);
        assert!(restored.is_empty());
    }

    /// A unique temp path per test so `cargo test`'s parallel threads
    /// never collide.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("isdc-persist-{tag}-{}.json", std::process::id()))
    }

    /// Asserts a written-then-mangled snapshot loads as a quarantined cold
    /// start: nothing merged, file moved aside to `.corrupt`, no panic.
    fn assert_quarantined(tag: &str, mangle: impl FnOnce(Vec<u8>) -> Vec<u8>) {
        let path = temp_path(tag);
        sample().save(&path, "synthesis").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, mangle(bytes)).unwrap();
        let cold = DelayCache::new();
        let outcome = cold.load_resilient(&path, "synthesis");
        let SnapshotLoad::ColdStart { reason, quarantined } = outcome else {
            panic!("{tag}: expected a cold start, got {outcome:?}");
        };
        let moved = quarantined.expect("corrupt file must be quarantined");
        assert!(moved.to_string_lossy().ends_with(".corrupt"), "{moved:?}");
        assert!(moved.exists(), "{tag}: quarantined file must survive as evidence");
        assert!(!path.exists(), "{tag}: the bad file must be moved out of the way");
        assert!(cold.is_empty(), "{tag}: nothing may merge from a corrupt file ({reason})");
        // The quarantined path is free again: a fresh save+load succeeds.
        sample().save(&path, "synthesis").unwrap();
        assert_eq!(cold.load_resilient(&path, "synthesis"), SnapshotLoad::Loaded { entries: 2 });
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&moved);
    }

    #[test]
    fn save_writes_footer_and_roundtrips() {
        let path = temp_path("footer");
        let cache = sample();
        cache.store_potentials(Fingerprint(0xabc), 2500.0, vec![0, -1]);
        cache.save(&path, "synthesis").unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        assert!(data.contains("\"version\":3"));
        assert!(data.trim_end().lines().last().unwrap().starts_with("#crc32:"), "{data}");
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        assert!(!std::path::Path::new(&tmp_name).exists(), "temp file must be renamed away");
        let restored = DelayCache::new();
        assert_eq!(restored.load(&path, "synthesis").unwrap(), 2);
        assert_eq!(restored.entries(), cache.entries());
        assert_eq!(restored.potential_entries(), cache.potential_entries());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_snapshot_quarantines_and_cold_starts() {
        assert_quarantined("truncated", |bytes| bytes[..bytes.len() / 2].to_vec());
    }

    #[test]
    fn truncation_that_only_drops_the_footer_is_still_detected() {
        // The subtlest torn write: a bytewise-valid v3 JSON body whose
        // footer never made it to disk. The version-aware loader knows v3
        // requires a footer.
        assert_quarantined("footerless", |bytes| {
            let text = String::from_utf8(bytes).unwrap();
            let body = &text[..text.rfind("\n#crc32:").unwrap()];
            body.as_bytes().to_vec()
        });
    }

    #[test]
    fn flipped_byte_fails_the_checksum_and_quarantines() {
        assert_quarantined("bitflip", |mut bytes| {
            // Flip a digit inside a delay value: still perfectly
            // parseable JSON — only the checksum can catch it.
            let at = bytes.iter().position(|&b| b == b'8').unwrap();
            bytes[at] = b'9';
            bytes
        });
    }

    #[test]
    fn zero_length_snapshot_quarantines_and_cold_starts() {
        assert_quarantined("empty", |_| Vec::new());
    }

    #[test]
    fn trailing_content_after_the_body_quarantines() {
        // A body that goes on after its closing `}` is corrupt even when
        // its footer checksums every byte of it.
        assert_quarantined("trailing", |bytes| {
            let text = String::from_utf8(bytes).unwrap();
            let body = format!("{} {{}}", &text[..text.rfind("\n#crc32:").unwrap()]);
            format!("{body}\n#crc32:{:08x}\n", crc32(body.as_bytes())).into_bytes()
        });
        let err = DelayCache::new().merge_json(r#"{"oracle":"synthesis"} x"#, "synthesis");
        assert_eq!(err.unwrap_err(), "trailing content at byte 23");
    }

    #[test]
    fn unknown_future_version_quarantines_and_cold_starts() {
        assert_quarantined("future", |bytes| {
            let text = String::from_utf8(bytes).unwrap();
            let body =
                text[..text.rfind("\n#crc32:").unwrap()].replace("\"version\":3", "\"version\":99");
            // A well-formed future snapshot, correct checksum and all —
            // rejected by version, not by integrity.
            format!("{body}\n#crc32:{:08x}\n", crc32(body.as_bytes())).into_bytes()
        });
    }

    #[test]
    fn foreign_oracle_snapshot_is_not_quarantined() {
        let path = temp_path("foreign");
        sample().save(&path, "synthesis").unwrap();
        let cold = DelayCache::new();
        let outcome = cold.load_resilient(&path, "aig-depth");
        let SnapshotLoad::ColdStart { reason, quarantined } = outcome else {
            panic!("expected cold start, got {outcome:?}");
        };
        assert!(quarantined.is_none(), "a foreign snapshot is valid — leave it alone");
        assert!(reason.contains("synthesis"), "{reason}");
        assert!(path.exists());
        assert!(cold.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_snapshot_is_reported_as_missing() {
        let cold = DelayCache::new();
        let path = temp_path("missing-never-created");
        assert_eq!(cold.load_resilient(&path, "synthesis"), SnapshotLoad::Missing);
    }

    #[test]
    fn footerless_v1_and_v2_files_round_trip_unchanged() {
        // Pre-v3 snapshots have no footer; both the strict and the
        // resilient loaders must accept them as-is.
        for (version, potentials) in [(1u64, ""), (2, r#","potentials":[]"#)] {
            let json = format!(
                r#"{{"version":{version},"oracle":"synthesis","entries":[
                    {{"key":"0000000000000000000000000000000a","delay_ps":3.5,
                     "aig_depth":1,"and_count":2,"arrivals":[[0,3.5]]}}]{potentials}}}"#
            );
            let path = temp_path(&format!("v{version}"));
            std::fs::write(&path, &json).unwrap();
            let cache = DelayCache::new();
            assert_eq!(cache.load(&path, "synthesis").unwrap(), 1, "strict v{version}");
            let resilient = DelayCache::new();
            assert_eq!(
                resilient.load_resilient(&path, "synthesis"),
                SnapshotLoad::Loaded { entries: 1 },
                "resilient v{version}"
            );
            assert!(path.exists());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn snapshot_potentials_must_be_exact_integers() {
        // A potential that is fractional or beyond ±2^53 used to load as a
        // rounded or saturated i64; the file is now corrupt.
        for (tag, pi) in [("huge", "1e300"), ("half", "0.5"), ("wide", "9007199254740994")] {
            let json = format!(
                r#"{{"version":2,"oracle":"synthesis","entries":[],"potentials":[
                    {{"key":"0000000000000000000000000000000a","clock_ps":2500,"pi":[0,{pi}]}}]}}"#
            );
            let path = temp_path(&format!("pi-{tag}"));
            std::fs::write(&path, &json).unwrap();
            let err = DelayCache::new().load(&path, "synthesis").unwrap_err();
            assert!(err.contains("not an integer within"), "{tag}: {err}");
            let cache = DelayCache::new();
            let outcome = cache.load_resilient(&path, "synthesis");
            let SnapshotLoad::ColdStart { quarantined: Some(moved), .. } = outcome else {
                panic!("{tag}: expected a quarantine, got {outcome:?}");
            };
            assert!(cache.potential_entries().is_empty(), "{tag}");
            let _ = std::fs::remove_file(&moved);
        }
        let exact = r#"{"version":2,"oracle":"synthesis","entries":[],"potentials":[
            {"key":"0000000000000000000000000000000a","clock_ps":2500,
             "pi":[0,-9007199254740992,9007199254740992]}]}"#;
        let cache = DelayCache::new();
        cache.merge_json(exact, "synthesis").unwrap();
        let bound = 1i64 << 53;
        assert_eq!(
            cache.nearest_potentials(Fingerprint(10), 2500.0).unwrap().1,
            [0, -bound, bound]
        );
    }

    /// Asserts that a footerless v2 snapshot holding `entry` is corrupt:
    /// `load` fails naming `cause`, and `load_resilient` quarantines the
    /// file and cold-starts.
    fn assert_corrupt_entry(tag: &str, entry: &str, cause: &str) {
        let json = format!(
            r#"{{"version":2,"oracle":"synthesis","entries":[
                {{"key":"0000000000000000000000000000000a",{entry}}}],"potentials":[]}}"#
        );
        let path = temp_path(&format!("entry-{tag}"));
        std::fs::write(&path, &json).unwrap();
        let err = DelayCache::new().load(&path, "synthesis").unwrap_err();
        assert!(err.contains(cause), "{tag}: {err}");
        let cache = DelayCache::new();
        let outcome = cache.load_resilient(&path, "synthesis");
        let SnapshotLoad::ColdStart { quarantined: Some(moved), .. } = outcome else {
            panic!("{tag}: expected a quarantine, got {outcome:?}");
        };
        assert!(cache.is_empty(), "{tag}");
        assert!(!path.exists(), "{tag}");
        let _ = std::fs::remove_file(&moved);
    }

    #[test]
    fn snapshot_delays_must_be_finite_and_non_negative() {
        // Loaded, a negative delay failed every later run as a malformed
        // oracle report and left the file in place.
        let arrivals = r#""aig_depth":1,"and_count":2,"arrivals":[[0,3.5]]"#;
        for (tag, value) in [("negative", "-1"), ("tiny", "-1e-300"), ("infinite", "1e400")] {
            let entry = format!(r#""delay_ps":{value},{arrivals}"#);
            assert_corrupt_entry(&format!("delay-{tag}"), &entry, "not a finite delay");
            let entry =
                format!(r#""delay_ps":3.5,"aig_depth":1,"and_count":2,"arrivals":[[0,{value}]]"#);
            assert_corrupt_entry(&format!("arrival-{tag}"), &entry, "not a finite delay");
        }
    }

    #[test]
    fn snapshot_entries_need_a_delay() {
        // A missing `delay_ps` used to read as 0 ps, lowering every pair
        // the entry covers.
        let entry = r#""aig_depth":1,"and_count":2,"arrivals":[[0,3.5]]"#;
        assert_corrupt_entry("no-delay", entry, "entry without delay_ps");
    }

    #[test]
    fn snapshot_counts_and_indices_must_be_integers_in_range() {
        // `as` casts used to truncate these: an arrival index of 1.5 moved
        // the arrival onto member 1.
        for (tag, fields) in [
            ("depth-half", r#""aig_depth":1.5,"and_count":2,"arrivals":[]"#),
            ("depth-wide", r#""aig_depth":4294967296,"and_count":2,"arrivals":[]"#),
            ("ands-negative", r#""aig_depth":1,"and_count":-2,"arrivals":[]"#),
            ("ands-half", r#""aig_depth":1,"and_count":0.5,"arrivals":[]"#),
            ("index-half", r#""aig_depth":1,"and_count":2,"arrivals":[[1.5,3.5]]"#),
            ("index-negative", r#""aig_depth":1,"and_count":2,"arrivals":[[-1,3.5]]"#),
        ] {
            let entry = format!(r#""delay_ps":3.5,{fields}"#);
            assert_corrupt_entry(tag, &entry, "is not an integer within");
        }
        let exact = r#"{"version":2,"oracle":"synthesis","entries":[
            {"key":"0000000000000000000000000000000a","delay_ps":0,
             "aig_depth":4294967295,"and_count":0,"arrivals":[[4294967295,0]]}]}"#;
        let cache = DelayCache::new();
        assert_eq!(cache.merge_json(exact, "synthesis").unwrap(), 1);
        let got = cache.get(Fingerprint(10)).unwrap();
        assert_eq!((got.aig_depth, got.arrivals), (u32::MAX, vec![(u32::MAX, 0.0)]));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE reference vector plus an empty-input sanity check.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
    }

    #[test]
    fn injected_truncate_write_fault_produces_a_detectable_torn_file() {
        let path = temp_path("fault-torn");
        isdc_faults::install(isdc_faults::FaultPlan::new().with(
            "snapshot/write",
            0,
            FaultKind::TruncateWrite,
        ));
        let save_result = sample().save(&path, "synthesis");
        isdc_faults::clear();
        save_result.expect("a torn write reports success — the crash hides the loss");
        let cold = DelayCache::new();
        let outcome = cold.load_resilient(&path, "synthesis");
        assert!(
            matches!(outcome, SnapshotLoad::ColdStart { quarantined: Some(_), .. }),
            "torn file must quarantine: {outcome:?}"
        );
        assert!(cold.is_empty());
        let _ = std::fs::remove_file(&path);
        let mut corrupt = path.as_os_str().to_os_string();
        corrupt.push(".corrupt");
        let _ = std::fs::remove_file(corrupt);
    }

    #[test]
    fn load_does_not_touch_counters() {
        let cache = sample();
        let restored = DelayCache::new();
        restored.merge_json(&cache.to_json("synthesis"), "synthesis").unwrap();
        let stats = restored.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 0, 0));
    }
}
