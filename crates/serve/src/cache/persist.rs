//! The result cache's spill-log codec (`--persist`).
//!
//! The daemon's memoized results are pure functions of their key (see
//! the memoization contract in [`crate::server`]), which makes them
//! safe to persist across restarts: a warm-started cache hit is
//! `fingerprint()`-identical to a fresh computation. The
//! [`AppendLog`](crate::append_log::AppendLog) keeps them; this codec
//! only says what a record looks like: its key, its charged cost, and
//! the report in the wire layout of
//! [`report_to_json`](crate::wire::report_to_json), except that a
//! non-finite float is written `"inf"`, `"-inf"` or `"NaN"` instead of
//! `null`. Decoding goes through [`report_from_json`], which checks the
//! stored fingerprint, so a reloaded report is fingerprint-exact. The
//! caller-supplied `wall_time` and the phase timings are not restored:
//! they are excluded from fingerprints and meaningless across restarts.
//!
//! Only wire-producible reports (`Estimate`, `Sprt`, `Robustness`,
//! `Stability`, `Lint`) are persisted; in-process-only kinds are
//! counted in [`LogStats::unsupported`](crate::append_log::LogStats)
//! and served from memory as usual.

use crate::append_log::RecordCodec;
use crate::json::Json;
use crate::wire::{exact_float, report_from_json, report_json_with, u64_from_json, u64_to_json};
use biocheck_engine::{Report, Value};
use std::sync::Arc;

/// One memoized result.
pub struct CacheRecord {
    /// The full memoization key.
    pub key: String,
    /// The byte cost the entry was charged.
    pub cost: usize,
    /// The report.
    pub report: Arc<Report>,
}

/// [`RecordCodec`] for [`CacheRecord`]s.
pub struct CacheCodec;

impl RecordCodec for CacheCodec {
    type Record = CacheRecord;
    const HEADER: &'static str = "biocheck-cache v2";

    fn key(record: &CacheRecord) -> &str {
        &record.key
    }

    fn encode(record: &CacheRecord) -> Option<Json> {
        // Falsify / Therapy / Calibrate never travel the wire, so the
        // serving cache only memoizes them in-process.
        let persistable = matches!(
            record.report.value,
            Value::Estimate(_)
                | Value::Sprt(_)
                | Value::Robustness(_)
                | Value::Stability(_)
                | Value::Lint(_)
        );
        persistable.then(|| {
            Json::obj([
                ("key", Json::str(record.key.clone())),
                ("cost", u64_to_json(record.cost as u64)),
                ("report", report_json_with(&record.report, exact_float)),
            ])
        })
    }

    fn decode(v: &Json) -> Option<CacheRecord> {
        Some(CacheRecord {
            key: v.get("key")?.as_str()?.to_string(),
            cost: usize::try_from(u64_from_json(v.get("cost")?)?).ok()?,
            report: Arc::new(report_from_json(v.get("report")?)?),
        })
    }

    #[cfg(feature = "fault-injection")]
    fn inject_io_error() -> bool {
        crate::faults::persist_io_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append_log::{testkit, AppendLog};
    use biocheck_engine::{
        Diagnostic, FalsificationOutcome, Outcome, Provenance, QueryKind, RobustnessSummary,
        Severity, StabilityReport,
    };
    use biocheck_interval::Interval;
    use biocheck_smc::{Estimate, SprtOutcome, SprtResult};

    fn report(kind: QueryKind, value: Value) -> Report {
        Report {
            kind,
            outcome: Outcome::Complete,
            value,
            provenance: Provenance::default(),
        }
    }

    fn record(key: &str, report: Report) -> CacheRecord {
        CacheRecord {
            key: key.into(),
            cost: 512,
            report: Arc::new(report),
        }
    }

    fn estimate(key: &str, seed: u64) -> CacheRecord {
        let value = Value::Estimate(Estimate {
            p_hat: 1.0 / 3.0, // a float with no short decimal form
            samples: 120,
            half_width: f64::MIN_POSITIVE,
            confidence: 0.95,
        });
        let provenance = Provenance {
            seed,
            samples: 120,
            early_stop_rate: 0.25,
            avg_steps: 37.5,
            ..Provenance::default()
        };
        record(
            key,
            Report {
                provenance,
                ..report(QueryKind::Estimate, value)
            },
        )
    }

    fn assert_same(a: &CacheRecord, b: &CacheRecord) {
        assert_eq!((&a.key, a.cost), (&b.key, b.cost));
        assert_eq!(
            a.report.fingerprint(),
            b.report.fingerprint(),
            "persisted report must be fingerprint-identical"
        );
    }

    #[test]
    fn roundtrip_preserves_fingerprints_including_nonfinite() {
        let robustness = Value::Robustness(RobustnessSummary {
            p_hat: f64::NAN,
            mean: -0.0,
            min: f64::NEG_INFINITY,
        });
        let sprt = Value::Sprt(SprtResult {
            outcome: SprtOutcome::Inconclusive,
            samples: 40,
            p_hat: 0.5,
        });
        let stability = Value::Stability(Some(StabilityReport {
            equilibrium: vec![0.1, -2.5e-300, f64::INFINITY],
            lyapunov: "V(x) = xᵀPx".into(),
            iterations: 12,
            certified: true,
        }));
        let exhausted = Report {
            outcome: Outcome::Exhausted,
            ..report(QueryKind::Robustness, robustness)
        };
        let records = [
            estimate("model|q|seed=1|caps", 7),
            record("r", exhausted),
            record("s", report(QueryKind::Sprt, sprt)),
            record("t", report(QueryKind::Stability, stability)),
            record("u", report(QueryKind::Stability, Value::Stability(None))),
        ];
        for r in &records {
            assert_same(&testkit::roundtrip::<CacheCodec>(r), r);
        }
        // `-0.0` keeps its sign bit, not just its fingerprint.
        let back = testkit::roundtrip::<CacheCodec>(&records[1]);
        let Value::Robustness(rb) = &back.report.value else {
            panic!("wrong value kind")
        };
        assert!(rb.mean == 0.0 && rb.mean.is_sign_negative());
    }

    #[test]
    fn lint_reports_roundtrip_bit_exactly() {
        let lint = Value::Lint(vec![
            Diagnostic {
                code: "L002".into(),
                severity: Severity::Error,
                site: "d(x)/dt".into(),
                message: "`ln` argument `x - 5` is never positive".into(),
                expr: Some("ln(x - 5)".into()),
                witness: vec![
                    ("x - 5".into(), Interval::new(-5.0, -4.0)),
                    ("x".into(), Interval::new(0.0, f64::INFINITY)),
                    ("bad".into(), Interval::EMPTY),
                ],
            },
            Diagnostic {
                code: "L101".into(),
                severity: Severity::Info,
                site: "state `y`".into(),
                message: "unused".into(),
                expr: None,
                witness: vec![],
            },
        ]);
        let r = record("m|lint|seed=0|caps", report(QueryKind::Lint, lint));
        let back = testkit::roundtrip::<CacheCodec>(&r);
        assert_same(&back, &r);
        let Value::Lint(diags) = &back.report.value else {
            panic!("wrong value kind")
        };
        // The witness boxes themselves (not just the fingerprint)
        // survive: unbounded and empty intervals included.
        assert_eq!(diags[0].witness[1].1, Interval::new(0.0, f64::INFINITY));
        assert!(diags[0].witness[2].1.is_empty());
        assert_eq!(diags[1].expr, None);
    }

    #[test]
    fn unsupported_kinds_are_refused_not_mangled() {
        let falsify = Value::Falsify(FalsificationOutcome::Undecided);
        let refused = [
            record("f", report(QueryKind::Falsify, falsify)),
            record("t", report(QueryKind::Therapy, Value::Therapy(None))),
            record("c", report(QueryKind::Calibrate, Value::Calibration(None))),
        ];
        let path = testkit::tmp_path("cache-unsupported");
        let (mut log, _) = AppendLog::<CacheCodec>::open(&path).unwrap();
        for r in &refused {
            assert!(CacheCodec::encode(r).is_none());
            log.append(r);
        }
        assert_eq!((log.stats().unsupported, log.stats().appended), (3, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let mut second = estimate("k2", 2);
        second.cost = 200;
        let records = [estimate("k1", 1), second];
        let (stats, loaded) = testkit::reopen::<CacheCodec>("cache-reopen", &records);
        assert_eq!((stats.loaded, stats.skipped), (2, 0));
        assert_eq!(loaded.len(), 2);
        assert_same(&loaded[0], &records[0]);
        assert_same(&loaded[1], &records[1]);
    }

    #[test]
    fn corrupt_lines_and_torn_tails_are_skipped_then_compacted_away() {
        testkit::corrupt_and_torn_lines_are_skipped_then_compacted::<CacheCodec>(
            "cache-corrupt",
            &estimate("good", 9),
            &estimate("good2", 10),
        );
    }

    #[test]
    fn unknown_header_invalidates_the_file_without_crashing() {
        let r = estimate("k", 3);
        // The previous (bit-hex) format is skipped and rewritten, not
        // misread; so is an unknown future version.
        for header in ["biocheck-cache v1", "biocheck-cache v999"] {
            testkit::foreign_header_invalidates_the_file::<CacheCodec>("cache-header", header, &r);
        }
    }
}
