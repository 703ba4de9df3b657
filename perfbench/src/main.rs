//! BioCheck's end-to-end and per-layer benchmark.
//!
//! ```text
//! biocheck_perfbench --workload smc_sweep|hit_mix|delta_session --seed N
//!     --seconds S --trace 0|1 --daemon PATH
//!     [--delay-ms X] [--tamper] [--rev R] [--toolchain T]
//! ```
//!
//! Prints one `metric value unit` line per metric, a `stamp {...}` line
//! describing the run's configuration, and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload with span
//! recording plus the per-layer ladder and reports the per-layer metrics,
//! writing the spans to `.bench_out/trace-<workload>-<seed>.json`.
//! `--delay-ms` (generator-side delay per request) and `--tamper`
//! (corrupts one expected output) exist for the benchmark's self-tests.
//! See `perfbench/README.md`.

mod delta;
mod host;
mod ladder;
mod spans;
mod stats;
mod tcp;

use biocheck_engine::Budget;
use biocheck_obs::TraceCtx;
use biocheck_serve::Json;
use host::{RefClock, REF_KERNEL_MS};
use spans::{durations_us, Span, Spans};
use stats::{median, quantile, Metrics};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median (in reference-core
/// seconds, see `host`).
const SETUPS: usize = 5;
/// Checked passes over the δ cycle in each `delta_session` set-up (one
/// pass, one measured request, takes ~0.13 s). The host's speed changes
/// on a scale of seconds: over 16 interleaved processes, `setup_s`
/// spread 26% with one pass and 15–20% with three (five did no better).
const DELTA_WARM_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    delay: Duration,
    tamper: bool,
    rev: String,
    toolchain: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let num = |name: &str, default: f64| -> Result<f64, String> {
        flag(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{name}: not a number: {v}"))
        })
    };
    let workload = flag("--workload").ok_or("--workload is required")?;
    if !["smc_sweep", "hit_mix", "delta_session"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = flag("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed: not an integer")?;
    Ok(Args {
        workload,
        seed,
        seconds: num("--seconds", 10.0)?,
        trace: flag("--trace").as_deref() == Some("1"),
        daemon: PathBuf::from(flag("--daemon").unwrap_or_default()),
        delay: Duration::from_secs_f64(num("--delay-ms", 0.0)? / 1e3),
        tamper: argv.iter().any(|a| a == "--tamper"),
        rev: flag("--rev").unwrap_or_else(|| "unknown".into()),
        toolchain: flag("--toolchain").unwrap_or_else(|| "unknown".into()),
    })
}

/// One timed request as the generator saw it.
struct Sample {
    /// In reference-core ms on the compute-bound workloads (`smc_sweep`,
    /// `delta_session`), wall ms on `hit_mix`.
    latency_ms: f64,
    wall_ms: f64,
    /// The host's slow-down over the request (1 when uncorrected).
    factor: f64,
    /// Passed its output check.
    ok: bool,
    /// Work units: Bernoulli samples on the TCP workloads, paver boxes
    /// of the whole cycle on `delta_session`.
    work: f64,
    traced: bool,
    /// What was asked (model and hit/miss, or the δ cycle), for the
    /// per-case lines of the report.
    case: String,
}

/// What a workload hands back for reporting.
struct Run {
    requests: Vec<Sample>,
    elapsed_s: f64,
    /// Are request times corrected for the host's speed?
    corrected: bool,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    pool_width: f64,
    daemon_flags: String,
    /// Failures beyond per-request checks (daemon fault counters).
    faults: Vec<String>,
    /// First few per-request check failures.
    errors: Vec<String>,
    spans: Vec<Span>,
}

fn main() {
    // Fixed before the pool's first use; the daemon inherits it.
    std::env::set_var("BIOCHECK_THREADS", tcp::POOL_WIDTH);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The host's CPU count, read before pinning narrows it.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread or the daemon starts, so all of them inherit it.
    let pinned = if args.workload == "hit_mix" {
        None
    } else {
        match host::pin_to_one_cpu() {
            Ok(cpu) => Some(cpu),
            Err(e) => {
                eprintln!("perfbench: running unpinned: {e}");
                None
            }
        }
    };
    let mut metrics = Metrics::default();
    let outcome = if args.workload == "delta_session" {
        run_delta(&args, &mut metrics)
    } else {
        run_tcp(&args, &mut metrics)
    };
    let run = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    report(&args, run, metrics, nproc, pinned.is_some());
}

fn run_tcp(args: &Args, metrics: &mut Metrics) -> Result<Run, String> {
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for k in 0..SETUPS {
        let (r, ms) = tcp::setup(&args.daemon, &args.workload, args.seed)?;
        setup_s.push(ms / 1e3);
        if k + 1 < SETUPS {
            r.daemon.stop()?;
        } else {
            ready = Some(r);
        }
    }
    let ready = ready.ok_or("no setup ran")?;
    let corrected = args.workload == "smc_sweep";
    let cfg = tcp::LoopConfig {
        corrected,
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        delay: args.delay,
        tamper: args.tamper,
    };
    let result = tcp::run_loop(&ready, &cfg, epoch)?;
    let stats = tcp::DaemonStats::fetch(&ready.daemon)?;
    let peak_rss_mb = ready.daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let mut spans = result.spans;
    if args.trace {
        let mut s = Spans::new(epoch, 100);
        ladder::host_speed(metrics);
        ladder::transport(&ready.daemon.addr, metrics, &mut s)?;
        ladder::serve_layers(args.seed, metrics, &mut s);
        ladder::smc_layers(metrics, &mut s);
        ladder::delta_layers(metrics, &mut s);
        spans.extend(s.done);
        // Workload-derived layer figures, from this daemon and loop.
        let lat = |phase: &str| stats.num(&["latency", phase, "p50_ms"]);
        metrics.put("scheduler.queue_wait_p50_ms", lat("queue_wait"), "ms");
        metrics.put("scheduler.execute_p50_ms", lat("execute"), "ms");
        let n = result.outcomes.len().max(1) as f64;
        let hits = result.outcomes.iter().filter(|o| o.cached).count() as f64;
        metrics.put("cache.hit_share", hits / n, "ratio");
        metrics.put("cache.inserts", stats.num(&["cache", "inserts"]), "count");
        metrics.put(
            "cache.daemon_hit_ratio",
            stats.num(&["cache", "hit_ratio"]),
            "ratio",
        );
        // Per traced request, the server-side time is the daemon's own
        // `serve.request` span plus the wire codec for computed answers,
        // or the warmed-core hit time for replays (hits carry no span
        // tree). What the client saw beyond that and a bare loopback
        // round trip is transport: a request is charged the client's
        // write stall when at least `STALL_MIN_MS` is left over.
        let codec_us = metrics.get("wire.decode_us").unwrap_or(0.0)
            + metrics.get("wire.encode_us").unwrap_or(0.0);
        let hit_us = metrics.get("serve.hit_us").unwrap_or(0.0);
        let raw_ms = metrics.get("tcp.raw_ping_us").unwrap_or(0.0) / 1e3;
        let stall_ms = metrics.get("transport.stall_us").unwrap_or(0.0) / 1e3;
        let residual: Vec<(f64, bool)> = spans
            .iter()
            .filter(|s| s.name == "bench.request")
            .map(|root| {
                let server_us = spans
                    .iter()
                    .find(|c| c.parent == root.id && c.name == "serve.request")
                    .map_or(hit_us, |c| (c.end_ns - c.start_ns) as f64 / 1e3 + codec_us);
                let left = (root.end_ns - root.start_ns) as f64 / 1e6 - server_us / 1e3 - raw_ms;
                let stalled = left >= ladder::STALL_MIN_MS;
                (left - if stalled { stall_ms } else { 0.0 }, stalled)
            })
            .collect();
        let stalled = residual.iter().filter(|r| r.1).count() as f64;
        metrics.put(
            "transport.stalled_share",
            stalled / residual.len().max(1) as f64,
            "ratio",
        );
        let left: Vec<f64> = residual.iter().map(|r| r.0).collect();
        metrics.put("unattributed_ms", median(&left), "ms");
    }
    let flags = tcp::DAEMON_FLAGS.join(" ");
    let run = Run {
        requests: result
            .outcomes
            .iter()
            .map(|o| Sample {
                latency_ms: o.latency_ms,
                wall_ms: o.wall_ms,
                factor: o.factor,
                ok: o.ok,
                work: o.samples,
                traced: o.traced,
                case: o.case.clone(),
            })
            .collect(),
        elapsed_s: result.elapsed_s,
        corrected,
        setup_s,
        peak_rss_mb,
        pool_width: stats.num(&["threads"]),
        daemon_flags: flags,
        faults: stats.faults(),
        errors: result
            .outcomes
            .iter()
            .filter_map(|o| o.error.clone())
            .take(5)
            .collect(),
        spans,
    };
    ready.daemon.stop()?;
    Ok(run)
}

fn run_delta(args: &Args, metrics: &mut Metrics) -> Result<Run, String> {
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut cycle = None;
    // Paver boxes each case processes: the δ-decision unit of work,
    // counted once in the warm-up (the solvers are deterministic, so
    // the count holds for every later run of the case).
    let mut boxes = Vec::new();
    for _ in 0..SETUPS {
        let mut clock = RefClock::start(true);
        let c = delta::Cycle::build();
        let mut ms = clock.lap().ref_ms;
        boxes.clear();
        for pass in 0..DELTA_WARM_PASSES {
            for (i, case) in c.cases.iter().enumerate() {
                let ctx = TraceCtx::new(TraceCtx::DEFAULT_CAPACITY);
                let report = c.run(i, Budget::unlimited().with_trace(ctx.clone()))?;
                ms += clock.lap().ref_ms;
                if !delta::verdict_holds(case.expect, &report) {
                    return Err(format!("warm-up: {} gave the wrong verdict", case.name));
                }
                if pass == 0 {
                    boxes.push(ctx.progress.snapshot().boxes as f64);
                }
            }
        }
        setup_s.push(ms / 1e3);
        cycle = Some(c);
    }
    let cycle = cycle.ok_or("no setup ran")?;
    let mut spans = Spans::new(epoch, 1);
    let mut requests = Vec::new();
    let mut case_ms = vec![Vec::new(); cycle.cases.len()];
    let mut errors = Vec::new();
    let mut unattributed = Vec::new();
    let mut clock = RefClock::start(true);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        // One request is one pass over the whole cycle, in an order drawn
        // from the seed and the request index, so every run does the
        // same work. Single queries would make the percentiles land on
        // one case's latencies, which the host's slow and fast stretches
        // move by more than their share of the run.
        let order = shuffled(cycle.cases.len(), tcp::mix(args.seed).wrapping_add(i));
        let traced = args.trace && (i / tcp::TRACE_BLOCK) % 2 == 1;
        let start_ns = spans.now_ns();
        clock.restart();
        let (mut latency_ms, mut wall_ms, mut slow) = (0.0, 0.0, 0.0);
        if !args.delay.is_zero() {
            std::thread::sleep(args.delay);
            let lap = clock.lap();
            latency_ms += lap.ref_ms;
            wall_ms += lap.wall_ms;
        }
        let mut ok = true;
        let mut queries = Vec::new();
        for case_ix in order {
            let case = &cycle.cases[case_ix];
            let ctx = traced.then(|| TraceCtx::new(TraceCtx::DEFAULT_CAPACITY));
            let budget = match &ctx {
                Some(c) => Budget::unlimited().with_trace(c.clone()),
                None => Budget::unlimited(),
            };
            let q_start = spans.now_ns();
            let report = cycle.run(case_ix, budget);
            let q_end = spans.now_ns();
            // Each query is a lap of its own, so the host's slow-down is
            // read at most one query apart.
            let lap = clock.lap();
            case_ms[case_ix].push(lap.ref_ms);
            latency_ms += lap.ref_ms;
            wall_ms += lap.wall_ms;
            slow += lap.factor * lap.wall_ms;
            let expect = if args.tamper && case_ix == 0 {
                delta::Expect::TAMPERED
            } else {
                case.expect
            };
            if !report
                .as_ref()
                .is_ok_and(|r| delta::verdict_holds(expect, r))
            {
                ok = false;
                if errors.len() < 5 {
                    errors.push(format!("{}: verdict check failed", case.name));
                }
            }
            if let Some(ctx) = ctx {
                queries.push((case.kind.metric(), q_start, q_end, ctx.records()));
            }
        }
        let end_ns = spans.now_ns();
        if traced {
            let root = spans.record("delta.cycle", 0, i, start_ns, end_ns);
            let mut engine_ms = 0.0;
            for (name, q_start, q_end, records) in queries {
                let q = spans.record(name, root, i, q_start, q_end);
                for r in &records {
                    spans.record(r.name, q, i, q_start + r.start_ns, q_start + r.end_ns);
                    if r.name == "engine.query" {
                        engine_ms += (r.end_ns - r.start_ns) as f64 / 1e6;
                    }
                }
            }
            unattributed.push(wall_ms - engine_ms);
        }
        requests.push(Sample {
            latency_ms,
            wall_ms,
            factor: slow / wall_ms.max(f64::MIN_POSITIVE),
            ok,
            work: if ok { boxes.iter().sum() } else { 0.0 },
            traced,
            case: "delta cycle".into(),
        });
        i += 1;
    }
    // Per-query medians, for reading where the cycle's time goes.
    for (case, ms) in cycle.cases.iter().zip(&case_ms) {
        println!(
            "query {:<48} n={:<5} p50={:.3}ms (reference-core)",
            case.name,
            ms.len(),
            median(ms)
        );
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    if args.trace {
        // No daemon in this workload: the transport probe runs against
        // an in-process server, the serving figures come from the
        // ladder's in-process core.
        let core = std::sync::Arc::new(biocheck_serve::ServeCore::new(Default::default()));
        let server = biocheck_serve::serve(core, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = server.addr.to_string();
        let mut s = Spans::new(epoch, 100);
        ladder::host_speed(metrics);
        let probe = ladder::transport(&addr, metrics, &mut s);
        let stop = biocheck_serve::Client::connect(addr.as_str())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown());
        server.join();
        probe?;
        stop?;
        let probe = ladder::serve_layers(args.seed, metrics, &mut s);
        ladder::smc_layers(metrics, &mut s);
        ladder::delta_layers(metrics, &mut s);
        spans.done.extend(s.done);
        metrics.put("scheduler.queue_wait_p50_ms", probe.queue_wait_p50_ms, "ms");
        metrics.put("scheduler.execute_p50_ms", probe.execute_p50_ms, "ms");
        metrics.put("cache.hit_share", probe.hit_share, "ratio");
        metrics.put("cache.inserts", probe.inserts, "count");
        metrics.put("cache.daemon_hit_ratio", probe.daemon_hit_ratio, "ratio");
        metrics.put("unattributed_ms", median(&unattributed), "ms");
    }
    Ok(Run {
        requests,
        elapsed_s,
        corrected: true,
        setup_s,
        peak_rss_mb: tcp::vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN),
        pool_width: rayon::current_num_threads() as f64,
        daemon_flags: "in-process".into(),
        faults: Vec::new(),
        errors,
        spans: spans.done,
    })
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = tcp::mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

fn report(args: &Args, run: Run, mut metrics: Metrics, nproc: usize, pinned: bool) {
    let attempted = run.requests.len();
    let passed = run.requests.iter().filter(|r| r.ok).count();
    let failed = attempted - passed;
    let latencies: Vec<f64> = run.requests.iter().map(|r| r.latency_ms).collect();
    if args.trace {
        let lat = |traced: bool| -> Vec<f64> {
            run.requests
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.latency_ms)
                .collect()
        };
        metrics.put(
            "obs.trace_overhead_pct",
            (median(&lat(true)) / median(&lat(false)) - 1.0) * 100.0,
            "%",
        );
        let dir = PathBuf::from(".bench_out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(&run.spans)));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        // Layer medians of the benchmark's own spans, for reading.
        for name in [
            "bench.request",
            "delta.cycle",
            "serve.request",
            "serve.queue_wait",
            "engine.query",
        ] {
            let d = durations_us(&run.spans, name);
            if !d.is_empty() {
                println!("span {name}: n={} p50={:.1}us", d.len(), median(&d));
            }
        }
    } else {
        metrics = Metrics::default();
        metrics.put("req_p50_ms", median(&latencies), "ms");
        metrics.put("req_p90_ms", quantile(&latencies, 0.9), "ms");
        // One stream of corrected requests is measured over its busy
        // time in reference-core seconds; the uncorrected `hit_mix`
        // connections over the loop's wall time.
        let timed_s = if run.corrected {
            latencies.iter().sum::<f64>() / 1e3
        } else {
            run.elapsed_s
        };
        metrics.put("throughput_rps", passed as f64 / timed_s, "1/s");
        let work: f64 = run.requests.iter().map(|r| r.work).sum();
        metrics.put("work_per_s", work / timed_s, "1/s");
        metrics.put(
            "success_rate",
            passed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        metrics.put("setup_s", median(&run.setup_s), "s");
        metrics.put("peak_rss_mb", run.peak_rss_mb, "MB");
    }
    let beyond_p90 = latencies.len() / 10;
    println!(
        "workload {} seed {} requests {attempted} (>p90: {beyond_p90}) failed {failed} elapsed {:.2}s setups {:?}",
        args.workload, args.seed, run.elapsed_s, run.setup_s
    );
    // Per-case medians, for reading where the request percentiles fall.
    let mut cases: Vec<&str> = run.requests.iter().map(|r| r.case.as_str()).collect();
    cases.sort_unstable();
    cases.dedup();
    for case in cases {
        let lat: Vec<f64> = run
            .requests
            .iter()
            .filter(|r| r.case == case)
            .map(|r| r.latency_ms)
            .collect();
        println!(
            "case {case:<48} n={:<5} p50={:.3}ms",
            lat.len(),
            median(&lat)
        );
    }
    if run.corrected {
        // The same requests in wall time, for reading beside the host's
        // slow-down (not reported as metrics: they follow the host).
        let wall: Vec<f64> = run.requests.iter().map(|r| r.wall_ms).collect();
        let factors: Vec<f64> = run.requests.iter().map(|r| r.factor).collect();
        println!(
            "wall p50={:.3}ms p90={:.3}ms {:.4} req/s; host slow-down p10={:.3} p50={:.3} p90={:.3}",
            median(&wall),
            quantile(&wall, 0.9),
            passed as f64 / run.elapsed_s,
            quantile(&factors, 0.1),
            median(&factors),
            quantile(&factors, 0.9)
        );
    }
    for e in run.errors.iter().chain(&run.faults) {
        println!("failure: {e}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    let stamp = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::num(nproc as f64)),
        ("pool_width", Json::num(run.pool_width)),
        ("pinned_to_one_cpu", Json::Bool(pinned)),
        ("daemon_flags", Json::str(run.daemon_flags)),
        ("rev", Json::str(args.rev.clone())),
        ("toolchain", Json::str(args.toolchain.clone())),
        (
            "clock",
            Json::str(if run.corrected {
                format!("reference-core {REF_KERNEL_MS} ms kernel")
            } else {
                "wall".to_string()
            }),
        ),
        ("delay_ms", Json::num(args.delay.as_secs_f64() * 1e3)),
        ("tamper", Json::Bool(args.tamper)),
    ]);
    println!("stamp {}", stamp.render());
    let correct = failed == 0 && run.faults.is_empty();
    // Rendered by hand: the metric names are not 'static.
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                Json::str(name.clone()).render(),
                Json::num(*value).render(),
                Json::str(*unit).render()
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed,
        body.join(", ")
    );
}
