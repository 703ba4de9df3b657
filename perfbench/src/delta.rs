//! The `delta_session` workload: a fixed cycle of the paper's
//! δ-decision queries (E2 calibration, E9 sawtooth falsification, E6
//! Lyapunov stability) run in-process through `Session::query(..).run()`.
//! Nothing here touches the serving layer or a socket.

use biocheck_bmc::{ReachOptions, ReachSpec};
use biocheck_engine::{Budget, Dataset, FalsificationOutcome, Query, Report, Session, Value};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_hybrid::HybridAutomaton;
use biocheck_interval::Interval;
use biocheck_models::classics;
use biocheck_ode::OdeSystem;

/// Which engine workflow a case exercises (names the layer metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Calibrate,
    Falsify,
    Stability,
}

impl Kind {
    pub fn metric(self) -> &'static str {
        match self {
            Kind::Calibrate => "engine.calibrate_ms",
            Kind::Falsify => "engine.falsify_ms",
            Kind::Stability => "engine.stability_ms",
        }
    }
}

/// The verdict each case's E-series experiment expects.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// δ-sat calibration whose witness lies within `tol` of `truth`.
    Witness { truth: f64, tol: f64 },
    /// Falsify: `unsat` (the behaviour is unreachable).
    Falsified,
    /// Falsify: a δ-sat witness path exists.
    Consistent,
    /// Stability: a verified Lyapunov certificate.
    Certified,
    /// Stability: no certificate (the negative control).
    NotCertified,
}

impl Expect {
    /// A wrong expectation for case 0, the decay calibration (whose true
    /// rate is 1): the tamper self-test judges case 0's replies against
    /// it, so the failure comes from `verdict_holds` itself.
    pub const TAMPERED: Expect = Expect::Witness {
        truth: 5.0,
        tol: 0.25,
    };
}

pub struct Case {
    pub name: String,
    pub kind: Kind,
    session: usize,
    query: Query,
    pub expect: Expect,
}

/// The sessions and the query cycle over them.
pub struct Cycle {
    sessions: Vec<Session>,
    pub cases: Vec<Case>,
}

fn decay_calibration() -> (Session, Query) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x").expect("static expression");
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let times = vec![0.5, 1.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
    let query = Query::Calibrate {
        data: Dataset::full(times, values, 0.02),
        init: vec![1.0],
        params: vec![(k, Interval::new(0.2, 3.0))],
        state_bounds: vec![Interval::new(0.0, 2.0)],
        delta: 0.01,
        flow_step: 0.05,
    };
    (Session::from_parts(cx, sys), query)
}

fn michaelis_menten_calibration() -> (Session, Query) {
    let mm = classics::michaelis_menten();
    let vmax = mm.cx.var_id("Vmax").expect("model declares Vmax");
    let tr = mm.simulate(4.0).expect("nominal simulation");
    let times = vec![2.0, 4.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t| tr.value_at(t)).collect();
    // Km is pinned to its constant: the calibration solver reads every
    // non-state variable from the solver box.
    let mut cx = mm.cx.clone();
    let km = cx.var_id("Km").expect("model declares Km");
    let c = cx.constant(0.5);
    let map = std::collections::HashMap::from([(km, c)]);
    let rhs: Vec<_> = mm.sys.rhs.iter().map(|&r| cx.subst(r, &map)).collect();
    let sys = OdeSystem::new(mm.sys.states.clone(), rhs);
    let query = Query::Calibrate {
        data: Dataset::full(times, values, 0.15),
        init: vec![10.0, 0.0],
        params: vec![(vmax, Interval::new(0.25, 3.0))],
        state_bounds: vec![Interval::new(0.0, 11.0), Interval::new(0.0, 11.0)],
        delta: 0.05,
        flow_step: 0.2,
    };
    (Session::from_parts(cx, sys), query)
}

fn sawtooth() -> (Session, Vec<(usize, Query)>) {
    let mut ha = HybridAutomaton::parse_bha(
        r#"
        state x;
        mode rise { flow: x' = 1; jump to fall when x >= 5; }
        mode fall { flow: x' = -1; jump to rise when x <= 1; }
        init rise: x = 1;
        "#,
    )
    .expect("static automaton");
    let goal = ha.cx.parse("2 - x").expect("static expression"); // x ≤ 2 in `fall`
    let opts = ReachOptions {
        state_bounds: vec![Interval::new(-10.0, 10.0)],
        ..ReachOptions::new(0.05)
    };
    let queries = (0..=3)
        .map(|k| {
            let spec = ReachSpec {
                goal_mode: Some(1),
                goal: vec![Atom::new(goal, RelOp::Ge)],
                k_max: k,
                time_bound: 6.0,
            };
            (
                k,
                Query::Falsify {
                    spec,
                    opts: opts.clone(),
                },
            )
        })
        .collect();
    (Session::from_automaton(&ha), queries)
}

/// x' = v, v' = -x - v: the E6 system with a quadratic certificate.
pub fn damped_oscillator() -> (Context, OdeSystem) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let v = cx.intern_var("v");
    let fx = cx.parse("v").expect("static expression");
    let fv = cx.parse("-x - v").expect("static expression");
    (cx, OdeSystem::new(vec![x, v], vec![fx, fv]))
}

fn unstable_growth() -> Session {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let fx = cx.parse("x").expect("static expression");
    Session::from_parts(cx, OdeSystem::new(vec![x], vec![fx]))
}

impl Cycle {
    /// Builds every session and the fixed query cycle.
    pub fn build() -> Cycle {
        let mut sessions = Vec::new();
        let mut cases = Vec::new();
        let (s, q) = decay_calibration();
        sessions.push(s);
        cases.push(Case {
            name: "E2 decay calibrate".into(),
            kind: Kind::Calibrate,
            session: 0,
            query: q,
            expect: Expect::Witness {
                truth: 1.0,
                tol: 0.25,
            },
        });
        let (s, q) = michaelis_menten_calibration();
        sessions.push(s);
        cases.push(Case {
            name: "E2 Michaelis-Menten calibrate".into(),
            kind: Kind::Calibrate,
            session: 1,
            query: q,
            expect: Expect::Witness {
                truth: 1.0,
                tol: 0.4,
            },
        });
        let (s, qs) = sawtooth();
        sessions.push(s);
        for (k, q) in qs {
            cases.push(Case {
                name: format!("E9 sawtooth falsify k={k}"),
                kind: Kind::Falsify,
                session: 2,
                query: q,
                expect: if k == 0 {
                    Expect::Falsified
                } else {
                    Expect::Consistent
                },
            });
        }
        sessions.push(Session::new(&classics::kinetic_proofreading(
            2, 1.0, 0.5, 1.0,
        )));
        cases.push(Case {
            name: "E6 kinetic proofreading stability".into(),
            kind: Kind::Stability,
            session: 3,
            query: Query::Stability {
                region: vec![Interval::new(0.0, 2.0), Interval::new(0.0, 2.0)],
                r_min: 0.1,
                r_max: 0.8,
            },
            expect: Expect::Certified,
        });
        let (cx, sys) = damped_oscillator();
        sessions.push(Session::from_parts(cx, sys));
        cases.push(Case {
            name: "E6 damped oscillator stability".into(),
            kind: Kind::Stability,
            session: 4,
            query: Query::Stability {
                region: vec![Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)],
                r_min: 0.2,
                r_max: 1.0,
            },
            expect: Expect::Certified,
        });
        // The E6 negative control. It also makes the cycle nine cases
        // long: with an odd count the median request falls in the middle
        // of one case's latencies, not on the gap between two cases.
        sessions.push(unstable_growth());
        cases.push(Case {
            name: "E6 unstable growth stability (negative control)".into(),
            kind: Kind::Stability,
            session: 5,
            query: Query::Stability {
                region: vec![Interval::new(-1.0, 1.0)],
                r_min: 0.1,
                r_max: 1.0,
            },
            expect: Expect::NotCertified,
        });
        Cycle { sessions, cases }
    }

    /// Runs case `i` under `budget`.
    pub fn run(&self, i: usize, budget: Budget) -> Result<Report, String> {
        let case = &self.cases[i];
        self.sessions[case.session]
            .query(case.query.clone())
            .budget(budget)
            .run()
            .map_err(|e| e.to_string())
    }
}

/// Does `report` carry the verdict `expect` names?
pub fn verdict_holds(expect: Expect, report: &Report) -> bool {
    match (expect, &report.value) {
        (Expect::Witness { truth, tol }, Value::Calibration(Some(c))) => {
            c.witness.first().is_some_and(|w| (w - truth).abs() < tol)
        }
        (Expect::Falsified, Value::Falsify(o)) => o.is_falsified(),
        (Expect::Consistent, Value::Falsify(o)) => {
            matches!(o, FalsificationOutcome::Consistent(_))
        }
        (Expect::Certified, Value::Stability(Some(r))) => r.certified,
        (Expect::NotCertified, Value::Stability(r)) => !r.as_ref().is_some_and(|r| r.certified),
        _ => false,
    }
}
