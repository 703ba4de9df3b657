//! The one append-only, checksummed, crash-recoverable log behind the
//! result-cache spill file (`--persist`, [`crate::cache::persist`]) and
//! the registry log (`--registry`, [`crate::registry::persist`]):
//!
//! ```text
//! <header, e.g. biocheck-cache v2>
//! <fnv1a64 of payload> <payload JSON>
//! <fnv1a64 of payload> <payload JSON>
//! ...
//! ```
//!
//! [`AppendLog`] owns the whole discipline; a [`RecordCodec`] only maps
//! a record to its payload JSON and back.
//!
//! **Durability model.** Records are appended and flushed to the OS as
//! they are produced, so a crash — SIGKILL included — loses at most the
//! torn tail record the process was writing. **Loading is
//! corruption-tolerant, never fatal**: a record that fails its
//! checksum, does not parse, or does not decode is counted in
//! [`LogStats::skipped`] and skipped; a missing or unknown header (an
//! older format version, or garbage) invalidates everything after it.
//! Opening then *compacts*: the last record per key survives (earlier
//! ones were replaced in memory anyway, counted in
//! [`LogStats::deduped`]), and the survivors are rewritten to a
//! temporary file that is fsynced and atomically renamed over the log,
//! so corruption and superseded records never accumulate and the file
//! never holds a partially-written rewrite.

use crate::json::{parse_json, Json};
use crate::registry::fingerprint64;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::marker::PhantomData;
use std::path::Path;

/// Maps one kind of record to its payload JSON and back; everything
/// else about the log lives in [`AppendLog`].
pub trait RecordCodec {
    /// The record type.
    type Record;
    /// The file's first line. A file that starts with anything else is
    /// not trusted, so bump the version when the payload layout changes.
    const HEADER: &'static str;
    /// The compaction key: of several records with one key, the last
    /// wins.
    fn key(record: &Self::Record) -> &str;
    /// The payload, or `None` when the record cannot be persisted
    /// (counted in [`LogStats::unsupported`]).
    fn encode(record: &Self::Record) -> Option<Json>;
    /// The record back from its payload; `None` skips the line.
    fn decode(payload: &Json) -> Option<Self::Record>;
    /// Fault hook: `true` fails this append as an I/O error would.
    #[cfg(feature = "fault-injection")]
    fn inject_io_error() -> bool;
}

/// Lifetime counters for one [`AppendLog`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Distinct records recovered at open time (after compaction).
    pub loaded: usize,
    /// Lines discarded at open time (checksum, parse, or decode
    /// failure — torn tails land here — or an unknown header).
    pub skipped: usize,
    /// Superseded records dropped by compaction (an earlier record of
    /// a key that was written again later).
    pub deduped: usize,
    /// Records appended since open.
    pub appended: usize,
    /// Append attempts that failed at the I/O layer (the in-memory
    /// state is unaffected; persistence is best-effort).
    pub append_errors: usize,
    /// Records the codec refused to persist.
    pub unsupported: usize,
}

impl LogStats {
    /// The block in the `stats` reply.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("loaded", Json::num(self.loaded as f64)),
            ("skipped", Json::num(self.skipped as f64)),
            ("deduped", Json::num(self.deduped as f64)),
            ("appended", Json::num(self.appended as f64)),
            ("append_errors", Json::num(self.append_errors as f64)),
            ("unsupported", Json::num(self.unsupported as f64)),
        ])
    }

    /// `(name suffix, help, value)` for each counter the `metrics`
    /// exposition renders as `biocheckd_<log>_<suffix>`.
    pub fn counters(&self) -> [(&'static str, &'static str, f64); 3] {
        [
            ("appended_total", "Records appended", self.appended as f64),
            (
                "append_errors_total",
                "Append failures (best-effort, request unaffected)",
                self.append_errors as f64,
            ),
            (
                "loaded_total",
                "Records recovered at boot",
                self.loaded as f64,
            ),
        ]
    }
}

/// An open, append-mode log of `C` records.
pub struct AppendLog<C: RecordCodec> {
    writer: BufWriter<File>,
    stats: LogStats,
    codec: PhantomData<fn() -> C>,
}

impl<C: RecordCodec> AppendLog<C> {
    /// Opens (creating if absent) the log at `path`: recovers every
    /// valid record, keeps the last one per key, compacts the file down
    /// to exactly those, and leaves the log open for appending. Corrupt
    /// content is skipped, never an error; only a filesystem-level
    /// failure to (re)create the file is.
    pub fn open(path: &Path) -> std::io::Result<(AppendLog<C>, Vec<C::Record>)> {
        let mut stats = LogStats::default();
        let records = match File::open(path) {
            Ok(f) => read_records::<C>(f, &mut stats),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let tmp = path.with_extension("tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            writeln!(w, "{}", C::HEADER)?;
            // Loaded records decoded, so they re-encode.
            for line in records.iter().filter_map(frame::<C>) {
                writeln!(w, "{line}")?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        let writer = BufWriter::new(OpenOptions::new().append(true).open(path)?);
        let log = AppendLog {
            writer,
            stats,
            codec: PhantomData,
        };
        Ok((log, records))
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Appends one record and flushes it to the OS, so a crash right
    /// after the reply that produced it was sent cannot lose it. All
    /// failure modes are absorbed into the counters: persistence must
    /// never fail a request.
    pub fn append(&mut self, record: &C::Record) {
        let Some(line) = frame::<C>(record) else {
            self.stats.unsupported += 1;
            return;
        };
        #[cfg(feature = "fault-injection")]
        if C::inject_io_error() {
            self.stats.append_errors += 1;
            return;
        }
        match writeln!(self.writer, "{line}").and_then(|()| self.writer.flush()) {
            Ok(()) => self.stats.appended += 1,
            Err(_) => self.stats.append_errors += 1,
        }
    }

    /// Best-effort fsync (shutdown path).
    pub fn sync(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().sync_all();
    }
}

/// `<checksum> <payload>` for one record; `None` when the codec
/// refuses it.
fn frame<C: RecordCodec>(record: &C::Record) -> Option<String> {
    let payload = C::encode(record)?.render();
    Some(format!("{} {payload}", fingerprint64(&payload)))
}

fn unframe<C: RecordCodec>(line: &str) -> Option<C::Record> {
    let (checksum, payload) = line.split_once(' ')?;
    if checksum != fingerprint64(payload) {
        return None;
    }
    C::decode(&parse_json(payload).ok()?)
}

fn read_records<C: RecordCodec>(f: File, stats: &mut LogStats) -> Vec<C::Record> {
    let mut reader = BufReader::new(f);
    // Each key's latest record sits at its index in `slots`; superseded
    // slots are emptied, so replay order is the order of last writes.
    let mut latest: HashMap<String, usize> = HashMap::new();
    let mut slots: Vec<Option<C::Record>> = Vec::new();
    let mut header_seen = false;
    let mut line = String::new();
    loop {
        line.clear();
        // A line that is not UTF-8 (or any other read error) ends
        // recovery: framing below the failure point is untrustworthy.
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => {
                stats.skipped += 1;
                break;
            }
        }
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        if !header_seen {
            if line != C::HEADER {
                // Unknown version or garbage where the header should
                // be: nothing after it can be trusted.
                stats.skipped += 1;
                break;
            }
            header_seen = true;
            continue;
        }
        let Some(record) = unframe::<C>(line) else {
            stats.skipped += 1;
            continue;
        };
        if let Some(old) = latest.insert(C::key(&record).to_string(), slots.len()) {
            slots[old] = None;
            stats.deduped += 1;
        }
        slots.push(Some(record));
    }
    let records: Vec<C::Record> = slots.into_iter().flatten().collect();
    stats.loaded = records.len();
    records
}

/// Checks every codec's log runs through, shared by the codec modules'
/// tests.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use std::path::PathBuf;

    /// A per-process temp path, with any leftover removed.
    pub fn tmp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("biocheck-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// One record through framing (checksum included) and back.
    pub fn roundtrip<C: RecordCodec>(record: &C::Record) -> C::Record {
        unframe::<C>(&frame::<C>(record).expect("encodable")).expect("decodable")
    }

    /// Appends `records` to a fresh log, then reopens it.
    pub fn reopen<C: RecordCodec>(name: &str, records: &[C::Record]) -> (LogStats, Vec<C::Record>) {
        let path = tmp_path(name);
        let (mut log, loaded) = AppendLog::<C>::open(&path).unwrap();
        assert!(loaded.is_empty());
        for r in records {
            log.append(r);
        }
        assert_eq!(log.stats().appended, records.len());
        drop(log);
        let (log, loaded) = AppendLog::<C>::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (log.stats(), loaded)
    }

    /// Two intact records around four kinds of damage and a torn tail:
    /// exactly the two load, in order, and compaction scrubs the rest.
    pub fn corrupt_and_torn_lines_are_skipped_then_compacted<C: RecordCodec>(
        name: &str,
        first: &C::Record,
        second: &C::Record,
    ) {
        let path = tmp_path(name);
        let good = frame::<C>(first).unwrap();
        let (checksum, payload) = good.split_once(' ').unwrap();
        let mut content = format!("{}\n{good}\n", C::HEADER);
        content.push_str("0000000000000000 {\"not\":\"matching\"}\n"); // bad checksum
        content.push_str(&format!("{checksum} {}\n", &payload[..payload.len() / 2])); // truncated
        content.push_str("complete garbage, not even a record\n");
        content.push_str(&format!("{}\n", frame::<C>(second).unwrap()));
        content.push_str(&good[..good.len() / 2]); // torn tail, no newline
        std::fs::write(&path, content).unwrap();
        let (log, recs) = AppendLog::<C>::open(&path).unwrap();
        assert_eq!(log.stats().loaded, 2, "both intact records recovered");
        assert_eq!(log.stats().skipped, 4, "four corrupt lines skipped");
        assert_eq!(C::key(&recs[0]), C::key(first));
        assert_eq!(C::key(&recs[1]), C::key(second));
        drop(log);
        let (log, recs) = AppendLog::<C>::open(&path).unwrap();
        assert_eq!(log.stats().loaded, 2);
        assert_eq!(log.stats().skipped, 0, "corruption scrubbed by compaction");
        assert_eq!(recs.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// Records behind `header` (not the codec's) are not trusted, and
    /// the file is rewritten under the current header.
    pub fn foreign_header_invalidates_the_file<C: RecordCodec>(
        name: &str,
        header: &str,
        record: &C::Record,
    ) {
        let path = tmp_path(name);
        let line = frame::<C>(record).unwrap();
        std::fs::write(&path, format!("{header}\n{line}\n")).unwrap();
        let (log, recs) = AppendLog::<C>::open(&path).unwrap();
        assert!(recs.is_empty(), "records behind {header:?} are not trusted");
        assert!(log.stats().skipped >= 1);
        drop(log);
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten, format!("{}\n", C::HEADER));
        let _ = std::fs::remove_file(&path);
    }
}
