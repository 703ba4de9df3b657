//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (and, for TCP requests, imported from the daemon's per-request
//! span tree in the reply). Each thread records into its own [`Spans`];
//! they are merged and written out once, at exit, as Chrome trace-event
//! JSON (`about://tracing`, Perfetto).

use biocheck_serve::Json;
use std::time::Instant;

/// One completed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id the span belongs to (0 = none).
    pub request: u64,
    /// Recording thread, used as the trace-event `tid`.
    pub thread: u64,
}

/// A per-thread span log sharing the run's epoch.
pub struct Spans {
    epoch: Instant,
    thread: u64,
    next_id: u64,
    pub done: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, thread: u64) -> Spans {
        Spans {
            epoch,
            thread,
            // Disjoint id ranges per thread keep merged ids unique.
            next_id: thread << 40 | 1,
            done: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an already-timed span and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.done.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            request,
            thread: self.thread,
        });
        id
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &str, parent: u64, request: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, parent, request, start, end);
        out
    }

    /// Imports the daemon's span tree from a traced reply, nested under
    /// `parent`. The daemon's clock is not ours: its root is centred in
    /// the client-side interval `[start_ns, end_ns]`, which splits the
    /// transport time evenly between the two directions.
    pub fn import_reply_trace(
        &mut self,
        trace: &Json,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let Some(spans) = trace.get("spans").and_then(Json::as_arr) else {
            return;
        };
        let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let root_dur = spans
            .iter()
            .filter(|s| field(s, "parent") == 0.0)
            .map(|s| field(s, "dur_us"))
            .fold(0.0, f64::max);
        let slack = (end_ns - start_ns) as f64 - root_dur * 1e3;
        let offset = start_ns as f64 + slack.max(0.0) / 2.0;
        let mut ids = std::collections::HashMap::new();
        // Records are pushed at span end, so children precede parents;
        // assign ids first, then link.
        for s in spans {
            let id = self.next_id;
            self.next_id += 1;
            ids.insert(field(s, "id") as u64, id);
        }
        for s in spans {
            let start = offset + field(s, "start_us") * 1e3;
            let parent_id = match field(s, "parent") as u64 {
                0 => parent,
                p => ids.get(&p).copied().unwrap_or(parent),
            };
            self.done.push(Span {
                id: ids[&(field(s, "id") as u64)],
                parent: parent_id,
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                start_ns: start as u64,
                end_ns: (start + field(s, "dur_us") * 1e3) as u64,
                request,
                thread: self.thread,
            });
        }
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// Renders spans as Chrome trace-event JSON.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name.clone())),
                ("ph", Json::str("X")),
                ("ts", Json::num(s.start_ns as f64 / 1e3)),
                ("dur", Json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::num(1.0)),
                ("tid", Json::num(s.thread as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::num(s.id as f64)),
                        ("parent", Json::num(s.parent as f64)),
                        ("request", Json::num(s.request as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .render()
}
