//! The TCP workloads (`smc_sweep`, `hit_mix`): a fresh `biocheckd`
//! child process, the three case-study models registered over the wire,
//! and a closed-loop generator replaying a request list derived from the
//! workload seed.

use crate::host::RefClock;
use crate::spans::Spans;
use biocheck_expr::RelOp;
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, PropSpec, QueryRequest, QuerySpec, Request, SmcSpecWire,
};
use biocheck_serve::{case_study_source, Client, ClientConfig, Json};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon flags, spelled out (rather than left to defaults) so they are
/// part of every run's stamp.
pub const DAEMON_FLAGS: [&str; 4] = ["--concurrency", "2", "--max-queue", "16"];

/// Worker-pool width for the daemon and the in-process session. On a
/// small host shared with other work, a query split over two workers
/// finishes when the slower one does, so its latency follows whatever
/// else holds the second core: at width 2 the same `smc_sweep` run read
/// 6.6 to 9.8 requests/s; at width 1 it read 6.8 to 7.2.
pub const POOL_WIDTH: &str = "1";

/// The case-study models, registered from `case_studies::case_study_source`.
pub const MODELS: [&str; 3] = ["prostate", "cardiac", "radiation"];

/// Base samples per `smc_sweep` query, per model; `sweep_n` scales
/// them. Each is sized so the daemon's execute time (about 70 to 120 ms
/// at the base count on a 2-core host, depending on its speed at the
/// time) stays above the ~40 ms delayed-ACK timeout: a daemon that
/// answers later than that is not treated as interactive, ACKs the
/// client's first segment at once, and no request pays the client's
/// 44 ms write stall (a ~25 ms query pays it every time). The three
/// models cost about the same at the same scale.
pub const SWEEP_N: [usize; 3] = [6000, 4000, 6000];
/// Scale steps of the sweep's sample counts, geometric from 1 to
/// `SWEEP_SPAN`. When every request costs the same, the host's slow and
/// fast stretches (up to 1.5x apart) make the run's median jump to
/// whichever held the majority of requests; spreading the costs over
/// more than that factor makes the median move in proportion instead.
pub const SWEEP_STEPS: u64 = 8;
pub const SWEEP_SPAN: f64 = 1.75;

/// Samples per fresh `hit_mix` miss (small: a cache write, not a solve).
pub const FRESH_N: usize = 64;
/// One in `FRESH_EVERY` `hit_mix` requests is a fresh miss.
pub const FRESH_EVERY: u64 = 16;
/// Size of the warmed set `hit_mix` replays (the sweep's first queries).
pub const WARM_SET: u64 = 12;
/// Connections per workload.
pub const SWEEP_CONNS: u64 = 1;
pub const HIT_CONNS: u64 = 2;
/// In the traced run, requests alternate between untraced and traced
/// blocks of this many requests (the tracing-overhead comparison).
pub const TRACE_BLOCK: u64 = 8;

/// splitmix64 — the generator behind every derived seed and choice.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn smc_spec(model: &str) -> SmcSpecWire {
    let prop = |expr: &str| PropSpec::Prop {
        expr: expr.into(),
        rel: RelOp::Ge,
    };
    match model {
        // P(PSA = x + y stays below 18 for 100 days).
        "prostate" => SmcSpecWire {
            init: vec![
                DistSpec::Uniform(10.0, 20.0),
                DistSpec::Uniform(0.05, 0.2),
                DistSpec::Uniform(10.0, 14.0),
            ],
            params: vec![],
            property: PropSpec::Globally {
                bound: 100.0,
                inner: Box::new(prop("18 - (x + y)")),
            },
            t_end: 100.0,
        },
        // P(an action potential fires within 30 time units) over a
        // random initial depolarisation.
        "cardiac" => SmcSpecWire {
            init: vec![
                DistSpec::Uniform(0.0, 0.3),
                DistSpec::Uniform(0.9, 1.0),
                DistSpec::Uniform(0.9, 1.0),
            ],
            params: vec![],
            property: PropSpec::Eventually {
                bound: 30.0,
                inner: Box::new(prop("u - 0.8")),
            },
            t_end: 30.0,
        },
        // P(RIP3 commitment within 20 hours) over noisy lipid oxidation.
        _ => {
            let nominal = biocheck_models::radiation::tbi_init();
            let mut init: Vec<DistSpec> = nominal.into_iter().map(DistSpec::Point).collect();
            init[0] = DistSpec::Uniform(0.1, 0.3);
            SmcSpecWire {
                init,
                params: vec![],
                property: PropSpec::Eventually {
                    bound: 20.0,
                    inner: Box::new(prop("rip3 - 1")),
                },
                t_end: 20.0,
            }
        }
    }
}

/// An `estimate` query with `Fixed{n}` on model `m`.
pub fn estimate(m: usize, n: usize, seed: u64) -> QueryRequest {
    QueryRequest {
        model: MODELS[m].into(),
        id: None,
        seed,
        budget: BudgetSpec::default(),
        trace: false,
        query: QuerySpec::Estimate {
            smc: smc_spec(MODELS[m]),
            method: MethodSpec::Fixed { n },
        },
    }
}

/// Samples of sweep request `i`: models round-robin (so the per-model
/// counts are balanced in every run), and per model the scale steps in
/// a fixed interleaved order (3 is coprime with `SWEEP_STEPS`).
pub fn sweep_n(i: u64) -> usize {
    let m = (i % 3) as usize;
    let step = (i / 3 * 3) % SWEEP_STEPS;
    let scale = SWEEP_SPAN.powf(step as f64 / (SWEEP_STEPS - 1) as f64);
    (SWEEP_N[m] as f64 * scale).round() as usize
}

/// Request `i` of the sweep list for `seed`: `sweep_n(i)` samples on
/// model `i % 3`, distinct query seeds.
pub fn sweep_request(seed: u64, i: u64) -> QueryRequest {
    estimate((i % 3) as usize, sweep_n(i), mix(seed).wrapping_add(i))
}

/// The setup warm-up query for model `m`: same spec as the list, a seed
/// the list never uses, few samples — it lowers the RHS and the monitor
/// plan without being timed.
fn warm_request(seed: u64, m: usize) -> QueryRequest {
    estimate(m, 16, mix(seed).wrapping_sub(1 + m as u64))
}

/// What a reply must look like to pass its output check.
#[derive(Clone, Debug)]
pub enum Check {
    /// A computed answer: `cached:false`, exactly `n` samples, p̂ ∈ [0,1].
    Miss { n: usize },
    /// A replay: `cached:true` and the fingerprint of the warming miss.
    Hit { fingerprint: String },
}

/// Checks one reply; `Err` names the first violated expectation.
pub fn check_reply(reply: &Json, check: &Check) -> Result<(), String> {
    let cached = reply.get("cached").and_then(Json::as_bool);
    let report = reply.get("report").ok_or("reply without report")?;
    match check {
        Check::Miss { n } => {
            if cached != Some(false) {
                return Err("expected a computed answer, got a cache hit".into());
            }
            let value = report.get("value").ok_or("report without value")?;
            let samples = value.get("samples").and_then(Json::as_usize);
            let prov = report
                .get("provenance")
                .and_then(|p| p.get("samples"))
                .and_then(Json::as_usize);
            if samples != Some(*n) || prov != Some(*n) {
                return Err(format!("expected {n} samples, got {samples:?}/{prov:?}"));
            }
            let p = value.get("p_hat").and_then(Json::as_f64);
            if !p.is_some_and(|p| (0.0..=1.0).contains(&p)) {
                return Err(format!("p_hat {p:?} outside [0, 1]"));
            }
        }
        Check::Hit { fingerprint } => {
            if cached != Some(true) {
                return Err("expected a cache hit, got a computed answer".into());
            }
            let fp = report.get("fingerprint").and_then(Json::as_str);
            if fp != Some(fingerprint.as_str()) {
                return Err(format!("fingerprint {fp:?} != warmed {fingerprint}"));
            }
        }
    }
    Ok(())
}

/// A `biocheckd` child process.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's later stdout lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port and waits for
    /// its `listening on` line.
    pub fn spawn(path: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0"])
            .args(DAEMON_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", path.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon stdout")?);
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        if read.is_err() || !line.contains("listening on") {
            daemon.kill();
            return Err(format!("daemon did not start: {line:?}"));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn client(&self) -> Result<Client, String> {
        let config = ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        };
        Client::connect_with(self.addr.as_str(), config).map_err(|e| e.to_string())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.client().and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err("daemon did not exit after shutdown".into())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// `VmHWM` from a `/proc/*/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sends one query without retrying: an `overloaded` or `expired`
/// reply is a failure, not something to paper over.
fn send(client: &mut Client, q: &QueryRequest) -> Result<Json, String> {
    client.request(&Request::Query(q.clone()))
}

/// A set-up daemon plus what the generator needs from the warm-up.
pub struct Ready {
    pub daemon: Daemon,
    /// `hit_mix`: fingerprints of the warmed set, by list index.
    pub warm_fingerprints: Vec<String>,
}

/// Spawns a daemon, registers the models and warms it for `workload`.
/// Returns the set-up time in reference-core ms beside the daemon: each
/// step is a lap of its own (see `host`).
pub fn setup(daemon_path: &Path, workload: &str, seed: u64) -> Result<(Ready, f64), String> {
    let mut clock = RefClock::start(true);
    let daemon = Daemon::spawn(daemon_path)?;
    let mut client = daemon.client()?;
    let mut ms = clock.lap().ref_ms;
    for name in MODELS {
        let source = case_study_source(name).ok_or("unknown case study")?;
        client.register(name, &source)?;
        ms += clock.lap().ref_ms;
    }
    for m in 0..MODELS.len() {
        let q = warm_request(seed, m);
        let reply = send(&mut client, &q)?;
        ms += clock.lap().ref_ms;
        check_reply(&reply, &Check::Miss { n: 16 })?;
    }
    let mut warm_fingerprints = Vec::new();
    if workload == "hit_mix" {
        // Two connections, as in the measured loop.
        let lists: Vec<Vec<u64>> = (0..HIT_CONNS)
            .map(|c| (0..WARM_SET).filter(|i| i % HIT_CONNS == c).collect())
            .collect();
        let results: Vec<Result<Vec<(u64, String)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = lists
                .into_iter()
                .map(|idx| {
                    let daemon = &daemon;
                    s.spawn(move || {
                        let mut client = daemon.client()?;
                        idx.into_iter()
                            .map(|i| {
                                let q = sweep_request(seed, i);
                                let reply = send(&mut client, &q)?;
                                check_reply(&reply, &Check::Miss { n: sweep_n(i) })?;
                                let fp = reply
                                    .get("report")
                                    .and_then(|r| r.get("fingerprint"))
                                    .and_then(Json::as_str)
                                    .ok_or("warm reply without fingerprint")?;
                                Ok((i, fp.to_string()))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("warm thread panicked".into()))
                })
                .collect()
        });
        let mut all = Vec::new();
        for r in results {
            all.extend(r?);
        }
        all.sort();
        warm_fingerprints = all.into_iter().map(|(_, fp)| fp).collect();
    }
    ms += clock.lap().ref_ms;
    Ok((
        Ready {
            daemon,
            warm_fingerprints,
        },
        ms,
    ))
}

/// One request's outcome as the generator saw it.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Reference-core ms when the loop is corrected, else wall ms.
    pub latency_ms: f64,
    pub wall_ms: f64,
    /// The host's slow-down over the request (1 when uncorrected).
    pub factor: f64,
    pub ok: bool,
    /// Bernoulli samples the reply carries (`provenance.samples`).
    pub samples: f64,
    pub cached: bool,
    /// Was this request sent with `"trace":true`?
    pub traced: bool,
    /// Model and expected outcome, e.g. `cardiac miss`.
    pub case: String,
    /// First check failure, for the report.
    pub error: Option<String>,
}

/// Generator knobs shared by every connection.
#[derive(Clone)]
pub struct LoopConfig {
    /// Time requests in reference-core ms (`smc_sweep`: one connection
    /// waiting on compute). `hit_mix` requests wait on the delayed-ACK
    /// timer, which the host's speed does not move, so they stay in wall
    /// time.
    pub corrected: bool,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Generator-side delay inside each timed request (sensitivity test).
    pub delay: Duration,
    /// Corrupt one expectation (tamper test).
    pub tamper: bool,
}

/// The `i`-th request of connection `c`, with the check its reply must
/// pass.
fn next_request(cfg: &LoopConfig, warm: &[String], c: u64, i: u64) -> (QueryRequest, Check) {
    if cfg.workload == "smc_sweep" {
        // One connection walks the sweep list.
        let q = sweep_request(cfg.seed, i);
        let n = sweep_n(i);
        let n = if cfg.tamper && i == 0 { n + 1 } else { n };
        return (q, Check::Miss { n });
    }
    let draw = mix(mix(cfg.seed ^ (c << 56)).wrapping_add(i));
    if draw.is_multiple_of(FRESH_EVERY) {
        // A fresh small query: seeds above 2^40 never meet the list's.
        let m = (draw >> 8) as usize % 3;
        let qseed = mix(cfg.seed) ^ (1 << 40 | c << 32 | i);
        return (estimate(m, FRESH_N, qseed), Check::Miss { n: FRESH_N });
    }
    let k = (draw >> 16) % WARM_SET;
    let mut fingerprint = warm[k as usize].clone();
    if cfg.tamper && k == 0 {
        fingerprint.push('0');
    }
    (sweep_request(cfg.seed, k), Check::Hit { fingerprint })
}

/// Runs connection `c`'s closed loop until `deadline`.
fn run_conn(
    daemon: &Daemon,
    cfg: &LoopConfig,
    warm: &[String],
    c: u64,
    deadline: Instant,
    spans: &mut Spans,
) -> Result<Vec<Outcome>, String> {
    let mut client = daemon.client()?;
    let mut out = Vec::new();
    let mut clock = RefClock::start(cfg.corrected);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let (mut q, check) = next_request(cfg, warm, c, i);
        let traced = cfg.traced && (i / TRACE_BLOCK) % 2 == 1;
        q.trace = traced;
        let request_id = c << 32 | i;
        let start_ns = spans.now_ns();
        clock.restart();
        if !cfg.delay.is_zero() {
            std::thread::sleep(cfg.delay);
        }
        let reply = send(&mut client, &q);
        let end_ns = spans.now_ns();
        let lap = clock.lap();
        let (ok, samples, cached, error) = match &reply {
            Ok(r) => {
                let verdict = check_reply(r, &check);
                let samples = r
                    .get("report")
                    .and_then(|r| r.get("provenance"))
                    .and_then(|p| p.get("samples"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let cached = r.get("cached").and_then(Json::as_bool) == Some(true);
                (verdict.is_ok(), samples, cached, verdict.err())
            }
            Err(e) => (false, 0.0, false, Some(e.clone())),
        };
        if traced {
            let root = spans.record("bench.request", 0, request_id, start_ns, end_ns);
            if let Some(trace) = reply.as_ref().ok().and_then(|r| r.get("trace")) {
                spans.import_reply_trace(trace, root, request_id, start_ns, end_ns);
            }
        }
        let expected = match check {
            Check::Miss { .. } => "miss",
            Check::Hit { .. } => "hit",
        };
        out.push(Outcome {
            latency_ms: lap.ref_ms,
            wall_ms: lap.wall_ms,
            factor: lap.factor,
            ok,
            samples: if ok { samples } else { 0.0 },
            cached,
            traced,
            case: format!("{} {expected}", q.model),
            error,
        });
        i += 1;
    }
    Ok(out)
}

/// The measured loop's raw results.
pub struct LoopResult {
    pub outcomes: Vec<Outcome>,
    pub elapsed_s: f64,
    pub spans: Vec<crate::spans::Span>,
}

/// Runs every connection's closed loop for `cfg.seconds`.
pub fn run_loop(ready: &Ready, cfg: &LoopConfig, epoch: Instant) -> Result<LoopResult, String> {
    let conns = if cfg.workload == "smc_sweep" {
        SWEEP_CONNS
    } else {
        HIT_CONNS
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let results: Vec<Result<(Vec<Outcome>, Spans), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut spans = Spans::new(epoch, c + 1);
                    let out = run_conn(
                        &ready.daemon,
                        cfg,
                        &ready.warm_fingerprints,
                        c,
                        deadline,
                        &mut spans,
                    )?;
                    Ok((out, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut outcomes = Vec::new();
    let mut spans = Vec::new();
    for r in results {
        let (o, s) = r?;
        outcomes.extend(o);
        spans.extend(s.done);
    }
    Ok(LoopResult {
        outcomes,
        elapsed_s,
        spans,
    })
}

/// Daemon counters read through the `stats` op after the run.
pub struct DaemonStats {
    pub raw: Json,
}

impl DaemonStats {
    pub fn fetch(daemon: &Daemon) -> Result<DaemonStats, String> {
        Ok(DaemonStats {
            raw: daemon.client()?.stats()?,
        })
    }

    pub fn num(&self, path: &[&str]) -> f64 {
        let mut v = &self.raw;
        for k in path {
            match v.get(k) {
                Some(next) => v = next,
                None => return f64::NAN,
            }
        }
        v.as_f64().unwrap_or(f64::NAN)
    }

    /// Shed, expired, panic replies and watchdog cancels must all be 0.
    pub fn faults(&self) -> Vec<String> {
        [
            ["scheduler", "shed"],
            ["scheduler", "expired"],
            ["server", "panic_replies"],
            ["server", "watchdog_cancelled"],
        ]
        .iter()
        .filter(|p| self.num(&p[..]) != 0.0)
        .map(|p| format!("stats {}.{} = {}", p[0], p[1], self.num(&p[..])))
        .collect()
    }
}
