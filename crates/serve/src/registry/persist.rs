//! The model registry's log codec (`--registry`).
//!
//! A registration that lived only in memory would come back empty
//! after a crash, so every client would have to re-register before its
//! warm cache hits were reachable. The
//! [`AppendLog`](crate::append_log::AppendLog) keeps each
//! registration as the model's name plus its canonical
//! [`ModelSource`]. Because a model's fingerprint is a hash of that
//! canonical source, replaying the log reproduces the exact
//! fingerprints of the original registrations — so persisted cache
//! keys (which embed fingerprints) warm-hit immediately, and replies
//! after a `kill -9` restart are `fingerprint()`-identical to the
//! pre-crash daemon with **no client re-registration**. Compaction
//! keeps the last registration per name (earlier ones were replaced),
//! so re-registering in a loop cannot grow the log without bound.

use crate::append_log::RecordCodec;
use crate::json::Json;
use crate::wire::ModelSource;

/// One registration.
#[derive(Clone, Debug, PartialEq)]
pub struct Registration {
    /// The name the model registered under.
    pub name: String,
    /// Its canonical source; building it reproduces the original
    /// fingerprint exactly (JSON float rendering round-trips bits).
    pub source: ModelSource,
}

/// [`RecordCodec`] for [`Registration`]s; every one encodes.
pub struct RegistryCodec;

impl RecordCodec for RegistryCodec {
    type Record = Registration;
    const HEADER: &'static str = "biocheck-registry v1";

    fn key(record: &Registration) -> &str {
        &record.name
    }

    fn encode(record: &Registration) -> Option<Json> {
        Some(Json::obj([
            ("model", Json::str(record.name.clone())),
            ("source", record.source.to_json()),
        ]))
    }

    fn decode(v: &Json) -> Option<Registration> {
        Some(Registration {
            name: v.get("model")?.as_str()?.to_string(),
            source: ModelSource::from_json(v.get("source")?).ok()?,
        })
    }

    #[cfg(feature = "fault-injection")]
    fn inject_io_error() -> bool {
        crate::faults::registry_io_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append_log::{testkit, AppendLog};
    use crate::registry::{fingerprint64, Registry};

    fn reg(name: &str, rhs: &str) -> Registration {
        Registration {
            name: name.into(),
            source: ModelSource {
                states: vec![("x".into(), rhs.into())],
                consts: vec![("k".into(), 0.25)],
            },
        }
    }

    #[test]
    fn roundtrip_preserves_fingerprints() {
        let src = ModelSource {
            states: vec![
                ("u".into(), "v - u^3 + k*u".into()),
                ("v".into(), "-0.5*v - u".into()),
            ],
            // A const with no short decimal form: the JSON number
            // rendering must round-trip its bits for the fingerprint
            // to survive.
            consts: vec![("k".into(), 1.0 / 3.0)],
        };
        let r = Registration {
            name: "fitzhugh".into(),
            source: src.clone(),
        };
        let back = testkit::roundtrip::<RegistryCodec>(&r);
        assert_eq!(back, r);
        assert_eq!(
            fingerprint64(&back.source.canonical()),
            fingerprint64(&src.canonical()),
            "replayed registration must reproduce the fingerprint"
        );
    }

    #[test]
    fn open_append_reopen_recovers_and_replays() {
        let records = [reg("a", "-k*x"), reg("b", "-2*k*x")];
        let (stats, loaded) = testkit::reopen::<RegistryCodec>("registry-reopen", &records);
        assert_eq!((stats.loaded, stats.skipped), (2, 0));
        // Replaying into a registry reproduces the original entries.
        let replayed = Registry::new();
        for r in &loaded {
            replayed.register(&r.name, &r.source).unwrap();
        }
        let (direct, _) = Registry::new().register("a", &records[0].source).unwrap();
        assert_eq!(
            replayed.get("a").unwrap().fingerprint(),
            direct.fingerprint(),
            "replayed fingerprint identical to direct registration"
        );
    }

    #[test]
    fn compaction_keeps_only_the_last_registration_per_name() {
        let records = [reg("m", "-k*x"), reg("other", "-x"), reg("m", "-3*k*x")];
        let path = testkit::tmp_path("registry-dedup");
        let (mut log, _) = AppendLog::<RegistryCodec>::open(&path).unwrap();
        for r in &records {
            log.append(r);
        }
        drop(log);
        let (log, loaded) = AppendLog::<RegistryCodec>::open(&path).unwrap();
        assert_eq!((log.stats().loaded, log.stats().deduped), (2, 1));
        // Replay order is the order of last writes.
        assert_eq!(
            loaded,
            [records[1].clone(), records[2].clone()],
            "last registration wins"
        );
        // Compaction scrubbed the superseded record for good.
        let (log, _) = AppendLog::<RegistryCodec>::open(&path).unwrap();
        assert_eq!(log.stats().deduped, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_and_torn_tails_are_skipped_then_compacted_away() {
        testkit::corrupt_and_torn_lines_are_skipped_then_compacted::<RegistryCodec>(
            "registry-corrupt",
            &reg("good", "-k*x"),
            &reg("good2", "-2*x"),
        );
    }

    #[test]
    fn unknown_header_invalidates_the_file_without_crashing() {
        testkit::foreign_header_invalidates_the_file::<RegistryCodec>(
            "registry-header",
            "biocheck-registry v999",
            &reg("k", "-x"),
        );
    }
}
