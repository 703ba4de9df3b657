//! Guaranteed parameter synthesis from time-series data (the BioPSy
//! workflow): find parameter values such that the ODE solution passes
//! through every observation band, or prove that none exist.
//!
//! Prefer [`Query::Calibrate`](crate::Query::Calibrate) on a
//! [`Session`](crate::Session), which supplies the model and reports
//! budget exhaustion distinctly from unsatisfiability.

use crate::budget::Budget;
use biocheck_expr::{Atom, Context, VarId};
use biocheck_icp::{BranchAndPrune, Contractor, DeltaResult};
use biocheck_interval::{IBox, Interval};
use biocheck_ode::{FlowContractor, OdeSystem};
use std::time::Instant;

/// A time-series dataset: observations of selected state components at
/// increasing times, each with a ± tolerance band.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Observation times (strictly increasing, first > 0).
    pub times: Vec<f64>,
    /// One row per time: observed values of the observed components.
    pub values: Vec<Vec<f64>>,
    /// Indices of the observed state components.
    pub observed: Vec<usize>,
    /// Half-width of the acceptance band around each observation.
    pub tolerance: f64,
}

impl Dataset {
    /// Builds a dataset observing all components.
    ///
    /// # Panics
    ///
    /// Panics when shapes disagree or times are not increasing.
    pub fn full(times: Vec<f64>, values: Vec<Vec<f64>>, tolerance: f64) -> Dataset {
        assert_eq!(times.len(), values.len(), "one row per time");
        assert!(times.windows(2).all(|w| w[0] < w[1]), "increasing times");
        assert!(!values.is_empty(), "empty dataset");
        let dim = values[0].len();
        Dataset {
            times,
            values,
            observed: (0..dim).collect(),
            tolerance,
        }
    }
}

/// A calibration problem: system + known initial state + unknown
/// parameters with their prior ranges.
#[derive(Clone, Debug)]
pub struct CalibrationProblem {
    /// The expression context (cloned internally).
    pub cx: Context,
    /// The dynamics.
    pub sys: OdeSystem,
    /// Known initial state.
    pub init: Vec<f64>,
    /// Unknown parameters and their prior boxes.
    pub params: Vec<(VarId, Interval)>,
    /// Physical bounds for every state component (keeps boxes bounded).
    pub state_bounds: Vec<Interval>,
    /// δ of the decision procedure.
    pub delta: f64,
    /// Validated-integration base step.
    pub flow_step: f64,
}

/// A δ-sat calibration answer: witness parameter intervals plus a
/// representative point inside them.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Witness intervals, one per synthesized parameter (in the order of
    /// [`CalibrationProblem::params`]).
    pub param_box: Vec<Interval>,
    /// A concrete parameter point inside the witness box.
    pub witness: Vec<f64>,
}

/// Synthesizes parameter values consistent with the data.
///
/// Returns `Some((param_box, point))` with the witness parameter
/// intervals and a representative point on δ-sat, `None` when the
/// problem is unsat (**no** parameters in the prior box can reproduce
/// the data — a model falsification) or undecided within budget.
///
/// Budget-blind compatibility form; the engine's `Query::Calibrate`
/// distinguishes `Unsat` from budget exhaustion and accepts a
/// [`Budget`].
pub fn synthesize_parameters(
    problem: &CalibrationProblem,
    data: &Dataset,
) -> Option<(Vec<Interval>, Vec<f64>)> {
    let (fit, _exhausted) = run_calibrate(problem, data, &Budget::default(), None);
    fit.map(|c| (c.param_box, c.witness))
}

/// The budget-aware implementation: returns the calibration (if δ-sat)
/// and whether a resource bound stopped the search before a decision.
pub(crate) fn run_calibrate(
    problem: &CalibrationProblem,
    data: &Dataset,
    budget: &Budget,
    deadline: Option<Instant>,
) -> (Option<Calibration>, bool) {
    let mut cx = problem.cx.clone();
    let n = problem.sys.dim();
    // Step variables per data segment: x@j is the state at times[j-1]
    // (x@0 = init, pinned), linked by flow contractors with pinned dwell.
    let mut flows: Vec<FlowContractor> = Vec::new();
    let mut atoms: Vec<Atom> = Vec::new();
    let mut seg_vars: Vec<Vec<VarId>> = Vec::new();
    let init_vars: Vec<VarId> = (0..n).map(|d| cx.intern_var(&format!("@x0_{d}"))).collect();
    seg_vars.push(init_vars.clone());
    for (d, &v) in init_vars.iter().enumerate() {
        let vn = cx.var_node(v);
        let c = cx.constant(problem.init[d]);
        atoms.push(Atom::eq(&mut cx, vn, c));
    }
    let mut prev_t = 0.0;
    for (j, &t) in data.times.iter().enumerate() {
        let cur: Vec<VarId> = (0..n)
            .map(|d| cx.intern_var(&format!("@x{}_{d}", j + 1)))
            .collect();
        let tau = cx.intern_var(&format!("@tau{j}"));
        let fc = FlowContractor::new(
            &mut cx,
            &problem.sys,
            seg_vars[j].clone(),
            cur.clone(),
            tau,
            &[],
        )
        .with_step(problem.flow_step)
        .with_label(format!("data-segment {j}"));
        flows.push(fc);
        // Observation bands at this time.
        for (oi, &comp) in data.observed.iter().enumerate() {
            let v = cx.var_node(cur[comp]);
            let lo = cx.constant(data.values[j][oi] - data.tolerance);
            let hi = cx.constant(data.values[j][oi] + data.tolerance);
            atoms.push(Atom::ge(&mut cx, v, lo));
            atoms.push(Atom::le(&mut cx, v, hi));
        }
        seg_vars.push(cur);
        // Pin the dwell to the segment duration.
        let tau_node = cx.var_node(tau);
        let dt = cx.constant(t - prev_t);
        atoms.push(Atom::eq(&mut cx, tau_node, dt));
        prev_t = t;
    }
    // Solver box.
    let mut init_box = IBox::uniform(cx.num_vars(), Interval::ZERO);
    for &(v, range) in &problem.params {
        init_box[v.index()] = range;
    }
    for vars in &seg_vars {
        for (d, &v) in vars.iter().enumerate() {
            init_box[v.index()] = problem.state_bounds[d];
        }
    }
    for j in 0..data.times.len() {
        let tau = cx.var_id(&format!("@tau{j}")).unwrap();
        let dt = data.times[j] - if j == 0 { 0.0 } else { data.times[j - 1] };
        init_box[tau.index()] = Interval::new(0.0, dt * 1.01);
    }
    let refs: Vec<&dyn Contractor> = flows.iter().map(|f| f as &dyn Contractor).collect();
    let mut bp = BranchAndPrune::new(problem.delta);
    bp.max_splits = budget.max_paver_boxes.unwrap_or(50_000);
    bp.cancel = budget.cancel_flag();
    bp.deadline = deadline;
    bp.progress_boxes = budget
        .trace
        .as_ref()
        .map(|t| std::sync::Arc::clone(&t.progress.boxes));
    match bp.solve(&cx, &atoms, &refs, &init_box) {
        DeltaResult::DeltaSat(w) => (
            Some(Calibration {
                param_box: problem
                    .params
                    .iter()
                    .map(|&(v, _)| w.boxx[v.index()])
                    .collect(),
                witness: problem
                    .params
                    .iter()
                    .map(|&(v, _)| w.point[v.index()])
                    .collect(),
            }),
            false,
        ),
        DeltaResult::Unsat => (None, false),
        DeltaResult::Unknown { .. } => (None, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates decay data from k = 1 and recovers k.
    #[test]
    fn recovers_decay_rate_from_data() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let k = cx.intern_var("k");
        let rhs = cx.parse("-k*x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let times = vec![0.5, 1.0];
        let values: Vec<Vec<f64>> = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
        let data = Dataset::full(times, values, 0.02);
        let problem = CalibrationProblem {
            cx,
            sys,
            init: vec![1.0],
            params: vec![(k, Interval::new(0.2, 3.0))],
            state_bounds: vec![Interval::new(0.0, 2.0)],
            delta: 0.01,
            flow_step: 0.05,
        };
        let (boxes, point) = synthesize_parameters(&problem, &data).expect("k = 1 fits");
        assert!(
            (point[0] - 1.0).abs() < 0.25,
            "recovered k = {} (box {:?})",
            point[0],
            boxes[0]
        );
    }

    #[test]
    fn incompatible_data_is_rejected() {
        // Decay data that *grows*: no positive k fits.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let k = cx.intern_var("k");
        let rhs = cx.parse("-k*x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let data = Dataset::full(vec![1.0], vec![vec![1.8]], 0.05);
        let problem = CalibrationProblem {
            cx,
            sys,
            init: vec![1.0],
            params: vec![(k, Interval::new(0.1, 3.0))],
            state_bounds: vec![Interval::new(0.0, 2.0)],
            delta: 0.01,
            flow_step: 0.05,
        };
        assert!(
            synthesize_parameters(&problem, &data).is_none(),
            "growth cannot come from decay"
        );
    }

    #[test]
    fn two_parameter_synthesis() {
        // x' = a - b·x: steady approach to a/b; data from (a, b) = (2, 1).
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let a = cx.intern_var("a");
        let b = cx.intern_var("b");
        let rhs = cx.parse("a - b*x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        // x(t) = 2 − 2e^{−t} from x(0) = 0.
        let times = vec![0.5, 1.5];
        let values: Vec<Vec<f64>> = times
            .iter()
            .map(|&t: &f64| vec![2.0 - 2.0 * (-t).exp()])
            .collect();
        let data = Dataset::full(times, values, 0.05);
        let problem = CalibrationProblem {
            cx,
            sys,
            init: vec![0.0],
            params: vec![(a, Interval::new(0.5, 4.0)), (b, Interval::new(0.25, 2.5))],
            state_bounds: vec![Interval::new(0.0, 5.0)],
            delta: 0.02,
            flow_step: 0.05,
        };
        let (_, point) = synthesize_parameters(&problem, &data).expect("fit exists");
        // The identifiable combination near t→∞ is a/b = 2; both data
        // points also constrain the rate. Loose check on the witness:
        let ratio = point[0] / point[1];
        assert!((ratio - 2.0).abs() < 0.6, "a/b = {ratio}");
    }

    #[test]
    #[should_panic(expected = "increasing times")]
    fn bad_dataset_rejected() {
        let _ = Dataset::full(vec![1.0, 1.0], vec![vec![0.0], vec![0.0]], 0.1);
    }
}
