//! The per-layer ladder: short probes that time calls into each layer's
//! public functions, innermost (expression evaluation) to outermost
//! (the client socket). Every probe runs the same inputs in every traced
//! run, so a layer's figure is comparable across workloads and commits.

use crate::delta::{damped_oscillator, Cycle, Kind};
use crate::spans::Spans;
use crate::stats::{median, Metrics};
use crate::tcp::{estimate, mix, MODELS};
use biocheck_bltl::{Bltl, CompiledBltl, MonitorScratch};
use biocheck_dsmt::{DeltaSmt, Fol};
use biocheck_engine::{Budget, Query, Session};
use biocheck_expr::{Atom, Context, EvalScratch, Program, RelOp};
use biocheck_icp::BranchAndPrune;
use biocheck_interval::{IBox, Interval};
use biocheck_lyapunov::LyapunovSynthesizer;
use biocheck_obs::TraceCtx;
use biocheck_ode::{DormandPrince, OdeScratch, OdeSystem, Rk4, StepControl};
use biocheck_sat::{Lit, SolveResult, Solver};
use biocheck_serve::wire::{report_to_json, Request};
use biocheck_serve::{case_study_source, parse_json, Json, ServeConfig, ServeCore};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Median over `rounds` of the mean time (ns) per call of `f` in a
/// batch of `batch` calls. Batching hides timer overhead for sub-µs
/// calls; the median over rounds drops preempted batches.
fn per_call_ns(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&times)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Host speed: the reference kernel of `host`, which belongs to the
/// benchmark, not the program. When a layer figure moves together with
/// this one, the host changed speed, not the layer (a shared 2-core
/// host swung 1.8x on a fixed loop within a minute).
pub fn host_speed(metrics: &mut Metrics) {
    metrics.put("host.slow_factor", crate::host::slow_factor(), "ratio");
}

/// One case-study model with the sweep's query lowered against it.
struct Lowered {
    session: Session,
    query: Query,
    cx: Context,
    sys: OdeSystem,
    property: Bltl,
    init: Vec<f64>,
}

fn lowered(m: usize, n: usize) -> Lowered {
    let source = case_study_source(MODELS[m]).expect("built-in case study");
    let (mut cx, sys) = source.build().expect("case study builds");
    let query = estimate(m, n, 7)
        .query
        .build(&mut cx)
        .expect("sweep query lowers");
    let Query::Estimate { smc, .. } = &query else {
        unreachable!("the sweep sends estimate queries");
    };
    // The mean of each initial distribution: a typical trajectory.
    let init = smc.init.iter().map(|d| d.mean()).collect();
    Lowered {
        session: Session::from_parts(cx.clone(), sys.clone()),
        property: smc.property.clone(),
        query,
        cx,
        sys,
        init,
    }
}

/// Time beyond a bare loopback round trip from which a request counts as
/// stalled. Loopback round trips take tens of µs; the write stall takes
/// a delayed-ACK timer (about 40 ms).
pub const STALL_MIN_MS: f64 = 5.0;

/// Transport: a `Client::ping` (request line and its `\n` written as
/// two segments) against the same ping sent as one write on a bare
/// `TcpStream`. The difference is the stall the client's write pattern
/// adds to every request.
pub fn transport(addr: &str, metrics: &mut Metrics, spans: &mut Spans) -> Result<(), String> {
    let config = biocheck_serve::ClientConfig {
        retries: 0,
        ..Default::default()
    };
    let mut client =
        biocheck_serve::Client::connect_with(addr, config).map_err(|e| e.to_string())?;
    client.ping()?;
    let mut client_us = Vec::new();
    for _ in 0..24 {
        let t = Instant::now();
        spans.time("client.ping", 0, 0, || client.ping())?;
        client_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut raw_us = Vec::new();
    let mut line = String::new();
    for i in 0..201 {
        let t = Instant::now();
        let start = spans.now_ns();
        writer
            .write_all(b"{\"op\":\"ping\"}\n")
            .map_err(|e| e.to_string())?;
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if !line.contains("\"ok\":true") {
            return Err(format!("raw ping reply {line:?}"));
        }
        if i > 0 {
            raw_us.push(t.elapsed().as_secs_f64() * 1e6);
            spans.record("tcp.raw_ping", 0, 0, start, spans.now_ns());
        }
    }
    let (c, r) = (median(&client_us), median(&raw_us));
    metrics.put("client.ping_us", c, "us");
    metrics.put("tcp.raw_ping_us", r, "us");
    metrics.put("transport.stall_us", c - r, "us");
    // The TCP workloads replace this with their own requests' share.
    let stalled = client_us
        .iter()
        .filter(|&&u| u - r >= STALL_MIN_MS * 1e3)
        .count();
    metrics.put(
        "transport.stalled_share",
        stalled as f64 / client_us.len() as f64,
        "ratio",
    );
    Ok(())
}

/// Counters of the in-process serving probe, for workloads without a
/// daemon of their own.
pub struct ServeProbe {
    pub queue_wait_p50_ms: f64,
    pub execute_p50_ms: f64,
    pub hit_share: f64,
    pub inserts: f64,
    pub daemon_hit_ratio: f64,
}

/// Wire codec and serving core on a warmed in-process `ServeCore`.
pub fn serve_layers(seed: u64, metrics: &mut Metrics, spans: &mut Spans) -> ServeProbe {
    let core = ServeCore::new(ServeConfig::default());
    for name in MODELS {
        let source = case_study_source(name).expect("built-in case study");
        core.register(name, &source).expect("case study registers");
    }
    let hit_req = estimate(0, 256, mix(seed));
    let hit_line = Request::Query(hit_req.clone()).to_json().render();
    let (report, _) = core.run_query(&hit_req).expect("warm query runs");

    let decode = spans.time("wire.decode x3000", 0, 0, || {
        per_call_ns(15, 200, || {
            black_box(Request::from_line(black_box(&hit_line)).ok());
        })
    });
    let encode = spans.time("wire.encode x3000", 0, 0, || {
        per_call_ns(15, 200, || {
            black_box(report_to_json(black_box(&report)).render());
        })
    });
    let hit = spans.time("serve.handle_line(hit) x3000", 0, 0, || {
        per_call_ns(15, 200, || {
            black_box(core.handle_line(black_box(&hit_line)));
        })
    });
    metrics.put("wire.decode_us", decode / 1e3, "us");
    metrics.put("wire.encode_us", encode / 1e3, "us");
    metrics.put("serve.hit_us", hit / 1e3, "us");

    // Misses with "trace":true: the reply's span tree splits the
    // serving layer's own time from the engine's.
    let mut serve_overhead = Vec::new();
    let mut engine_overhead = Vec::new();
    for i in 0..24u64 {
        let mut q = estimate((i % 3) as usize, 64, mix(seed ^ 0x5eed).wrapping_add(i));
        q.trace = true;
        let line = Request::Query(q).to_json().render();
        let start = spans.now_ns();
        let (reply, _) = core.handle_line(&line);
        let end = spans.now_ns();
        let root = spans.record("serve.handle_line(miss)", 0, 1 << 20 | i, start, end);
        let Ok(reply) = parse_json(&reply) else {
            continue;
        };
        let Some(trace) = reply.get("trace") else {
            continue;
        };
        spans.import_reply_trace(trace, root, 1 << 20 | i, start, end);
        let dur = |name: &str| -> Option<f64> {
            trace
                .get("spans")?
                .as_arr()?
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))?
                .get("dur_us")?
                .as_f64()
        };
        if let (Some(req), Some(eng)) = (dur("serve.request"), dur("engine.query")) {
            serve_overhead.push(req - eng);
        }
        if let (Some(eng), Some(kind)) = (dur("engine.query"), dur("engine.smc.estimate")) {
            engine_overhead.push(eng - kind);
        }
    }
    metrics.put("serve.miss_overhead_us", median(&serve_overhead), "us");
    metrics.put("engine.overhead_us", median(&engine_overhead), "us");

    let stats = core.cache_stats();
    let m = core.metrics();
    ServeProbe {
        queue_wait_p50_ms: m.queue_wait.snapshot().quantile(0.5) as f64 / 1e6,
        execute_p50_ms: m.execute.snapshot().quantile(0.5) as f64 / 1e6,
        // Every computed (pure) request inserts once, so hits + inserts
        // counts the probe's requests.
        hit_share: stats.hits as f64 / (stats.hits + stats.inserts) as f64,
        inserts: stats.inserts as f64,
        daemon_hit_ratio: stats.hit_ratio(),
    }
}

/// SMC and the layers under it (ODE integration, expression programs,
/// streaming BLTL), on the sweep's own three case-study queries.
pub fn smc_layers(metrics: &mut Metrics, spans: &mut Spans) {
    let (mut sample_ns, mut samples) = (0.0, 0.0);
    let (mut steps, mut early) = (0.0, 0.0);
    let (mut rk4_ns, mut dp_ns, mut eval_ns, mut push_ns) = (0.0, 0.0, 0.0, 0.0);
    for m in 0..MODELS.len() {
        let l = lowered(m, 300);
        // Warm the session's artifact cache, then time one sequential
        // query through the engine's own span tree.
        let _ = l.session.query(l.query.clone()).sequential().run();
        let ctx = TraceCtx::new(TraceCtx::DEFAULT_CAPACITY);
        let start = spans.now_ns();
        let report = l
            .session
            .query(l.query.clone())
            .seed(11)
            .budget(Budget::unlimited().with_trace(ctx.clone()))
            .sequential()
            .run()
            .expect("sweep query runs");
        spans.record("engine.query(sequential)", 0, 0, start, spans.now_ns());
        let kind = ctx
            .records()
            .iter()
            .find(|r| r.name == "engine.smc.estimate")
            .map_or(0.0, |r| (r.end_ns - r.start_ns) as f64);
        let n = report.provenance.samples as f64;
        sample_ns += kind;
        samples += n;
        steps += report.provenance.avg_steps * n;
        early += report.provenance.early_stop_rate * n;

        // ODE: the compiled RHS under fixed-step RK4 and adaptive DP.
        let ode = l.sys.compile(&l.cx);
        let env = vec![0.0; l.cx.num_vars()];
        let mut ws = OdeScratch::new();
        let t_end = match &l.query {
            Query::Estimate { smc, .. } => smc.t_end,
            _ => unreachable!("the sweep sends estimate queries"),
        };
        let rk4 = Rk4::new(t_end / 4000.0);
        let mut n_steps = 0usize;
        rk4_ns += per_call_ns(5, 1, || {
            let end = rk4
                .integrate_streaming(&ode, &env, &l.init, (0.0, t_end), &mut ws, |_, _, _| {
                    StepControl::Continue
                })
                .expect("nominal trajectory integrates");
            n_steps = end.steps;
        }) / n_steps as f64;
        let dp = DormandPrince::with_tolerances(1e-6, 1e-8);
        dp_ns += per_call_ns(5, 1, || {
            let end = dp
                .integrate_streaming(&ode, &env, &l.init, (0.0, t_end), &mut ws, |_, _, _| {
                    StepControl::Continue
                })
                .expect("nominal trajectory integrates");
            n_steps = end.steps;
        }) / n_steps as f64;

        // Expression programs: one RHS evaluation, per instruction.
        let prog = Program::compile(&l.cx, &l.sys.rhs);
        let mut scratch = EvalScratch::new();
        let mut out = vec![0.0; l.sys.rhs.len()];
        let mut env = env.clone();
        for (v, y) in l.sys.states.iter().zip(&l.init) {
            env[v.index()] = *y;
        }
        eval_ns += per_call_ns(15, 2000, || {
            prog.eval_with(black_box(&env), &mut scratch, &mut out);
            black_box(&out);
        }) / prog.len().max(1) as f64;

        // Streaming BLTL: pushes of a recorded trajectory into the
        // compiled monitor (restarted whenever a verdict decides early).
        let trace = rk4
            .integrate(&ode, &vec![0.0; l.cx.num_vars()], &l.init, (0.0, t_end))
            .expect("nominal trajectory integrates");
        let plan = CompiledBltl::compile(&l.cx, &l.sys.states, &l.property);
        let mut mon = MonitorScratch::new();
        let env0 = vec![0.0; plan.env_len().max(l.cx.num_vars())];
        let points: Vec<(f64, Vec<f64>)> = (0..trace.len())
            .map(|i| (trace.times()[i], trace.state(i).to_vec()))
            .collect();
        push_ns += per_call_ns(9, 1, || {
            plan.begin(&mut mon, &env0);
            for (t, y) in &points {
                if plan.feed(&mut mon, *t, y).decided() {
                    plan.begin(&mut mon, &env0);
                }
            }
        }) / points.len() as f64;
    }
    let k = MODELS.len() as f64;
    metrics.put("smc.sample_us", sample_ns / samples / 1e3, "us");
    metrics.put("ode.steps_per_sample", steps / samples, "count");
    metrics.put("smc.early_stop_rate", early / samples, "ratio");
    metrics.put("ode.rk4_step_ns", rk4_ns / k, "ns");
    metrics.put("ode.dp_step_ns", dp_ns / k, "ns");
    metrics.put("expr.eval_ns_per_instr", eval_ns / k, "ns");
    metrics.put("bltl.push_ns", push_ns / k, "ns");
}

/// The δ-decision layers: the query cycle through the engine (per
/// workflow), plus direct ICP, δ-SMT, CDCL and Lyapunov probes.
pub fn delta_layers(metrics: &mut Metrics, spans: &mut Spans) {
    let cycle = Cycle::build();
    let mut per_kind: Vec<(Kind, Vec<f64>)> = [Kind::Calibrate, Kind::Falsify, Kind::Stability]
        .into_iter()
        .map(|k| (k, Vec::new()))
        .collect();
    let mut depth = 0u64;
    for round in 0..4 {
        let mut totals = [0.0f64; 3];
        for (i, case) in cycle.cases.iter().enumerate() {
            let ctx = TraceCtx::new(TraceCtx::DEFAULT_CAPACITY);
            let start = spans.now_ns();
            let t = Instant::now();
            let _ = cycle.run(i, Budget::unlimited().with_trace(ctx.clone()));
            let elapsed = ms(t);
            spans.record(case.kind.metric(), 0, 0, start, spans.now_ns());
            depth = depth.max(ctx.progress.snapshot().depth);
            let slot = per_kind
                .iter()
                .position(|(k, _)| *k == case.kind)
                .unwrap_or(0);
            totals[slot] += elapsed;
        }
        if round > 0 {
            for (slot, (_, v)) in per_kind.iter_mut().enumerate() {
                v.push(totals[slot]);
            }
        }
    }
    for (kind, v) in &per_kind {
        metrics.put(kind.metric(), median(v), "ms");
    }
    metrics.put("bmc.depth", depth as f64, "count");

    // ICP: branch-and-prune paving of a ring.
    let mut cx = Context::new();
    let lo = cx.parse("x^2 + y^2 - 0.25").expect("static expression");
    let hi = cx.parse("x^2 + y^2 - 1").expect("static expression");
    let atoms = [Atom::new(lo, RelOp::Ge), Atom::new(hi, RelOp::Le)];
    let init = IBox::uniform(2, Interval::new(-1.5, 1.5));
    let mut solver = BranchAndPrune::new(0.01).sequential();
    solver.eps = 0.01;
    solver.max_splits = 200_000;
    let mut boxes = 0usize;
    let pave_ns = spans.time("icp.pave x5", 0, 0, || {
        per_call_ns(5, 1, || {
            let p = solver.pave(&cx, &atoms, &init);
            boxes = p.sat.len() + p.undecided.len();
        })
    });
    metrics.put("icp.boxes", boxes as f64, "count");
    metrics.put("icp.box_us", pave_ns / boxes.max(1) as f64 / 1e3, "us");

    // δ-SMT: the E8 circle ∧ damped-sine intersection at δ = 1e-3.
    let check_ns = spans.time("dsmt.check x7", 0, 0, || {
        per_call_ns(7, 1, || {
            let mut cx = Context::new();
            let e1 = cx.parse("x^2 + y^2 - 1").expect("static expression");
            let e2 = cx.parse("y - exp(-x)*sin(5*x)").expect("static expression");
            let mut smt = DeltaSmt::new(cx, 1e-3);
            smt.bound("x", Interval::new(-2.0, 2.0));
            smt.bound("y", Interval::new(-2.0, 2.0));
            smt.assert(Fol::Atom(Atom::new(e1, RelOp::Eq)));
            smt.assert(Fol::Atom(Atom::new(e2, RelOp::Eq)));
            assert!(smt.check().is_delta_sat(), "E8 is δ-sat");
        })
    });
    metrics.put("dsmt.check_us", check_ns / 1e3, "us");

    // CDCL: pigeonhole PHP(7, 6), unsatisfiable by conflict analysis.
    let mut conflicts = 0u64;
    let solve_ns = spans.time("sat.solve x5", 0, 0, || {
        per_call_ns(5, 1, || {
            let mut s = Solver::new();
            let (pigeons, holes) = (7, 6);
            let v: Vec<Vec<_>> = (0..pigeons)
                .map(|_| (0..holes).map(|_| s.new_var()).collect())
                .collect();
            for p in &v {
                s.add_clause(&p.iter().map(|&x| Lit::pos(x)).collect::<Vec<_>>());
            }
            // At most one pigeon per hole.
            for h in 0..holes {
                let column: Vec<_> = v.iter().map(|p| p[h]).collect();
                for (i, &a) in column.iter().enumerate() {
                    for &b in &column[i + 1..] {
                        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                    }
                }
            }
            assert!(matches!(s.solve(), SolveResult::Unsat), "PHP(7,6) is unsat");
            conflicts = s.num_conflicts();
        })
    });
    metrics.put("sat.conflicts", conflicts as f64, "count");
    metrics.put("sat.solve_us", solve_ns / 1e3, "us");

    // Lyapunov: CEGIS certificate for the damped oscillator.
    let certify_ns = spans.time("lyapunov.run x5", 0, 0, || {
        per_call_ns(5, 1, || {
            let (cx, sys) = damped_oscillator();
            let r = LyapunovSynthesizer::quadratic(cx, &sys, 0.2, 1.0).run(40);
            assert!(r.is_some_and(|r| r.verified), "oscillator certifies");
        })
    });
    metrics.put("lyapunov.certify_ms", certify_ns / 1e6, "ms");
}
