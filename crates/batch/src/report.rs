//! `BENCH_batch.json` rendering: batch totals, per-thread-count scaling
//! against the serial session sweep, and per-job records.

use crate::engine::{BatchReport, JobStatus};
use crate::spec::JobKind;
use isdc_core::StageKind;
use isdc_telemetry::escape_json;
use std::fmt::Write as _;
use std::time::Duration;

/// One measured thread count in the scaling table.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Worker threads the batch ran with.
    pub threads: usize,
    /// Batch wall-clock at that thread count.
    pub total: Duration,
}

/// Everything the `BENCH_batch.json` document reports.
pub struct BatchBenchDoc<'a> {
    /// `"full"` or `"quick"` (CI smoke).
    pub mode: &'a str,
    /// Designs in the batch's table.
    pub designs: usize,
    /// The canonical run whose per-job records are listed (by convention
    /// the highest thread count measured).
    pub report: &'a BatchReport,
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// scaling numbers are meaningless without it.
    pub hardware_threads: usize,
    /// How many times each timed configuration was run; the document's
    /// wall-clock numbers are the median run (`--repeat N`), so the gate's
    /// floors are evaluated on medians rather than single noisy samples.
    pub repeats: usize,
    /// Wall-clock of the serial session sweep baseline
    /// ([`crate::serial_reference`]), when measured — the bench always
    /// measures it; a lone CLI batch run has nothing to compare against and
    /// omits the speedup fields.
    pub serial_total: Option<Duration>,
    /// Optional wall-clock of the independent-runs baseline
    /// ([`isdc_core::sweep_clock_period_independent`] per job: no cache, no
    /// session), for the long-lever speedup.
    pub independent_total: Option<Duration>,
    /// One row per measured thread count.
    pub scaling: &'a [ScalingRow],
    /// Whether every batch schedule was verified bit-identical to the
    /// serial baseline before rendering.
    pub bit_identical: bool,
}

fn speedup(baseline: Duration, total: Duration) -> f64 {
    baseline.as_nanos() as f64 / (total.as_nanos().max(1)) as f64
}

/// Serializes the document. Rates are always finite (zero-lookup divisions
/// render as 0.0), so the output is parseable JSON end to end.
pub fn render_batch_json(doc: &BatchBenchDoc<'_>) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"batch\",\n");
    let _ = writeln!(out, "  \"mode\": \"{}\",", escape_json(doc.mode));
    let _ = writeln!(
        out,
        "  \"designs\": {}, \"jobs\": {}, \"shards\": {}, \"points\": {},",
        doc.designs,
        doc.report.jobs.len(),
        doc.report.shards,
        doc.report.total_points()
    );
    let _ = writeln!(out, "  \"hardware_threads\": {},", doc.hardware_threads);
    let _ = writeln!(out, "  \"repeats\": {},", doc.repeats);
    let _ = writeln!(out, "  \"bit_identical\": {},", doc.bit_identical);
    // Robustness attestation: all zero on a clean run (the bench gate
    // asserts it — a benchmark that survived only via retries, dropped
    // jobs, or deadline cuts is not a valid measurement).
    let _ = writeln!(
        out,
        "  \"jobs_failed\": {}, \"jobs_retried\": {}, \"jobs_timed_out\": {},",
        doc.report.jobs_failed(),
        doc.report.jobs_retried(),
        doc.report.jobs_timed_out()
    );
    if let Some(serial) = doc.serial_total {
        let _ = writeln!(out, "  \"serial_total_ns\": {},", serial.as_nanos());
    }
    if let Some(independent) = doc.independent_total {
        let _ = writeln!(out, "  \"independent_total_ns\": {},", independent.as_nanos());
    }
    out.push_str("  \"scaling\": [\n");
    for (i, row) in doc.scaling.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "    {{\"threads\": {}, \"total_ns\": {}",
            row.threads,
            row.total.as_nanos()
        );
        if let Some(serial) = doc.serial_total {
            let _ = write!(out, ", \"speedup_vs_serial\": {:.2}", speedup(serial, row.total));
        }
        if let Some(independent) = doc.independent_total {
            let speedup = speedup(independent, row.total);
            let _ = write!(out, ", \"speedup_vs_independent\": {speedup:.2}");
        }
        out.push('}');
    }
    out.push_str("\n  ],\n");
    if let (Some(serial), Some(best)) =
        (doc.serial_total, doc.scaling.iter().max_by_key(|r| r.threads))
    {
        let _ = writeln!(
            out,
            "  \"max_threads_measured\": {}, \"speedup_at_max_threads\": {:.2},",
            best.threads,
            speedup(serial, best.total)
        );
    }
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
         \"entries_inserted\": {}, \"evictions\": {}}},",
        doc.report.cache.hits,
        doc.report.cache.misses,
        doc.report.cache_hit_rate(),
        doc.report.cache.inserts,
        doc.report.cache.evictions
    );
    // Fleet totals, summed out of the batch's merged metrics frame. Only
    // leaves that are unique across the metric namespace are meaningful
    // here (per-stage `ns`/`calls` leaves would collide).
    let totals = doc.report.metrics.totals();
    let fleet = |leaf: &str| totals.get(leaf).copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "  \"fleet\": {{\"drain_dijkstras\": {}, \"drain_paths\": {}, \
         \"drain_flow_pushed\": {}, \"iterations\": {}}},",
        fleet("dijkstras"),
        fleet("paths"),
        fleet("flow_pushed"),
        fleet("iterations")
    );
    out.push_str("  \"runs\": [\n");
    for (i, job) in doc.report.jobs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let kind = match &job.job.kind {
            JobKind::Sweep { .. } => "sweep",
            JobKind::MinPeriod { .. } => "min_period",
        };
        let feasible = job.points.iter().filter(|p| p.feasible).count();
        let status = match &job.status {
            JobStatus::Ok => "ok",
            JobStatus::Failed(_) => "failed",
            JobStatus::TimedOut { .. } => "timed_out",
            JobStatus::Skipped => "skipped",
        };
        let _ = write!(
            out,
            "    {{\"design\": \"{}\", \"type\": \"{kind}\", \"status\": \"{status}\", \
             \"retries\": {}, \"shards\": {}, \
             \"points\": {}, \"feasible\": {feasible}, \"cache_hit_rate\": {:.4}, \
             \"elapsed_ns\": {}",
            escape_json(&job.job.design),
            job.retries,
            job.shards,
            job.points.len(),
            job.cache_hit_rate(),
            job.elapsed.as_nanos()
        );
        if let JobStatus::Failed(error) = &job.status {
            let _ = write!(out, ", \"error\": \"{}\"", escape_json(&error.to_string()));
        }
        if let JobStatus::TimedOut { elapsed_ms, points_completed, .. } = &job.status {
            let _ = write!(
                out,
                ", \"timed_out_after_ms\": {elapsed_ms}, \"points_completed\": {points_completed}"
            );
        }
        if let Some(min) = job.min_period_ps {
            let _ = write!(out, ", \"min_period_ps\": {min:?}");
        }
        if let Some(floor) = job.floor_ps {
            let _ = write!(out, ", \"floor_ps\": {floor:?}");
        }
        let drain = |leaf: &str| job.points.iter().map(|p| p.drain_total(leaf)).sum::<u64>();
        let _ = write!(
            out,
            ", \"drain_dijkstras\": {}, \"drain_paths\": {}, \"drain_flow_pushed\": {}",
            drain("dijkstras"),
            drain("paths"),
            drain("flow_pushed")
        );
        out.push_str(", \"stage_us\": {");
        for (si, stage) in StageKind::ALL.iter().enumerate() {
            if si > 0 {
                out.push_str(", ");
            }
            let us: u64 = job.points.iter().map(|p| p.stage_micros(*stage)).sum();
            let _ = write!(out, "\"{}\": {us}", stage.name());
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobError, JobErrorKind, JobResult};
    use crate::spec::Job;
    use isdc_cache::CacheStats;
    use isdc_telemetry::json::Parser;

    /// A one-job report whose only point is infeasible: zero lookups.
    fn one_job_report(status: JobStatus) -> BatchReport {
        let infeasible = isdc_core::SweepPoint {
            clock_period_ps: 100.0,
            feasible: false,
            register_bits: 0,
            num_stages: 0,
            iterations: 0,
            warm_start: false,
            warm_solves: 0,
            cold_solves: 0,
            cache_hits: 0,
            cache_misses: 0,
            elapsed: Duration::ZERO,
            schedule: None,
            metrics: isdc_telemetry::MetricsFrame::new(),
        };
        BatchReport {
            jobs: vec![JobResult {
                job: Job::sweep("tiny", vec![100.0]),
                points: vec![infeasible],
                min_period_ps: None,
                floor_ps: None,
                shards: 1,
                elapsed: Duration::from_nanos(5),
                status,
                retries: 0,
            }],
            threads: 8,
            shards: 1,
            elapsed: Duration::from_nanos(500),
            cache: CacheStats::default(),
            metrics: isdc_telemetry::MetricsFrame::new(),
        }
    }

    #[test]
    fn json_shape_is_stable_and_nan_free() {
        // The rate of a zero-lookup job must render as 0.0000 — NaN would
        // make the document unparseable.
        let report = one_job_report(JobStatus::Ok);
        let doc = BatchBenchDoc {
            mode: "quick",
            designs: 1,
            report: &report,
            hardware_threads: 4,
            repeats: 1,
            serial_total: Some(Duration::from_nanos(2000)),
            independent_total: Some(Duration::from_nanos(8000)),
            scaling: &[
                ScalingRow { threads: 1, total: Duration::from_nanos(1900) },
                ScalingRow { threads: 8, total: Duration::from_nanos(500) },
            ],
            bit_identical: true,
        };
        let json = render_batch_json(&doc);
        for needle in [
            "\"bench\": \"batch\"",
            "\"hardware_threads\": 4",
            "\"repeats\": 1",
            "\"bit_identical\": true",
            "\"jobs_failed\": 0, \"jobs_retried\": 0, \"jobs_timed_out\": 0",
            "\"evictions\": 0",
            "\"status\": \"ok\", \"retries\": 0",
            "\"serial_total_ns\": 2000",
            "\"speedup_vs_serial\": 4.00",
            "\"independent_total_ns\": 8000",
            "\"speedup_vs_independent\": 16.00",
            "\"max_threads_measured\": 8, \"speedup_at_max_threads\": 4.00",
            "\"cache_hit_rate\": 0.0000",
            "\"hit_rate\": 0.0000",
            "\"feasible\": 0",
            "\"fleet\": {\"drain_dijkstras\": 0",
            "\"drain_paths\": 0",
            "\"stage_us\": {\"extract\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(!json.contains("NaN"), "rates must be guarded: {json}");
    }

    #[test]
    fn min_period_rows_carry_their_answer_and_floor() {
        let mut report = one_job_report(JobStatus::Ok);
        report.jobs[0].job = Job::min_period("tiny", 1.0, 2500.0, 10.0);
        report.jobs[0].min_period_ps = Some(346.6796875);
        report.jobs[0].floor_ps = Some(338.25);
        let doc = BatchBenchDoc {
            mode: "cli",
            designs: 1,
            report: &report,
            hardware_threads: 2,
            repeats: 1,
            serial_total: None,
            independent_total: None,
            scaling: &[],
            bit_identical: false,
        };
        let json = render_batch_json(&doc);
        assert!(json.contains("\"type\": \"min_period\""), "{json}");
        assert!(json.contains("\"min_period_ps\": 346.6796875, \"floor_ps\": 338.25"), "{json}");
    }

    #[test]
    fn failed_job_message_round_trips_through_the_parser() {
        // An `assert_eq!`-style panic message: multi-line, with a tab,
        // quotes and a control character, none of which JSON allows raw.
        let error = JobError {
            job: 0,
            shard: 0,
            design: "tiny".into(),
            kind: JobErrorKind::Panic,
            message: "assertion failed\n  left: \"a\"\tright: \u{1}".into(),
            retries: 0,
            flight: Vec::new(),
        };
        let expected = error.to_string();
        let report = one_job_report(JobStatus::Failed(error));
        let doc = BatchBenchDoc {
            mode: "cli",
            designs: 1,
            report: &report,
            hardware_threads: 2,
            repeats: 1,
            serial_total: None,
            independent_total: None,
            scaling: &[],
            bit_identical: false,
        };
        let json = render_batch_json(&doc);
        assert!(json.contains(r#"failed\n  left: \"a\"\tright: \u0001""#), "{json}");
        let at = json.find("\"error\": ").expect("the failed job carries its error") + 9;
        assert_eq!(Parser::new(&json[at..]).string().unwrap(), expected);
    }
}
