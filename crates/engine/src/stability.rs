//! Stability analysis (Sec. IV-C): equilibrium localization by interval
//! Newton plus CEGIS Lyapunov certification.
//!
//! Prefer [`Query::Stability`](crate::Query::Stability) on a
//! [`Session`](crate::Session).

use crate::budget::Budget;
use biocheck_expr::Context;
use biocheck_icp::{Contractor, Newton, Outcome};
use biocheck_interval::{IBox, Interval};
use biocheck_lyapunov::{shift_to_origin, LyapunovSynthesizer};
use biocheck_ode::OdeSystem;
use std::time::Instant;

/// Result of a stability verification.
#[derive(Clone, Debug)]
pub struct StabilityReport {
    /// The localized equilibrium.
    pub equilibrium: Vec<f64>,
    /// Rendering of the certified Lyapunov function (shifted coordinates).
    pub lyapunov: String,
    /// CEGIS iterations.
    pub iterations: usize,
    /// `true` when a certificate was verified (exact side).
    pub certified: bool,
}

/// Locates an equilibrium inside `region` with the interval-Newton
/// contractor and certifies local asymptotic stability with a quadratic
/// Lyapunov function on the annulus `r_min ≤ ‖x − x*‖∞ ≤ r_max`.
///
/// Returns `None` when no equilibrium is localized or no quadratic
/// certificate is found.
pub fn verify_stability(
    cx: &Context,
    sys: &OdeSystem,
    region: &[Interval],
    r_min: f64,
    r_max: f64,
) -> Option<StabilityReport> {
    run_stability(cx, sys, region, r_min, r_max, &Budget::default(), None).0
}

/// The budget-aware implementation: cancellation and deadlines are
/// polled between Newton contraction rounds, between CEGIS phases, and
/// inside the CEGIS δ-searches (the synthesizer forwards the flag into
/// its branch-and-prune runs and never certifies from an interrupted
/// verification). Returns the report (if certified) and whether the
/// budget cut the analysis short.
pub(crate) fn run_stability(
    cx: &Context,
    sys: &OdeSystem,
    region: &[Interval],
    r_min: f64,
    r_max: f64,
    budget: &Budget,
    deadline: Option<Instant>,
) -> (Option<StabilityReport>, bool) {
    assert_eq!(region.len(), sys.dim(), "one interval per state");
    let mut cx = cx.clone();
    // Localize f(x) = 0 by Newton iteration on the region box.
    let newton = Newton::new(&mut cx, &sys.rhs, &sys.states);
    let mut bx = IBox::uniform(cx.num_vars(), Interval::ZERO);
    for (&s, &r) in sys.states.iter().zip(region) {
        bx[s.index()] = r;
    }
    for _ in 0..50 {
        if budget.interrupted(deadline) {
            return (None, true);
        }
        match newton.contract(&mut bx) {
            Outcome::Empty => return (None, false),
            Outcome::Unchanged => break,
            Outcome::Reduced => {}
        }
    }
    let eq: Vec<f64> = sys.states.iter().map(|s| bx[s.index()].mid()).collect();
    if eq.iter().any(|v| !v.is_finite()) {
        return (None, false);
    }
    if budget.interrupted(deadline) {
        return (None, true);
    }
    // Shift and certify.
    let shifted = shift_to_origin(&mut cx, sys, &eq);
    let mut syn = LyapunovSynthesizer::quadratic(cx, &shifted, r_min, r_max);
    syn.cancel = budget.cancel_flag();
    syn.deadline = deadline;
    syn.progress_boxes = budget
        .trace
        .as_ref()
        .map(|t| std::sync::Arc::clone(&t.progress.boxes));
    match syn.run(30) {
        Some(result) => (
            Some(StabilityReport {
                equilibrium: eq,
                lyapunov: result.v_text,
                iterations: result.iterations,
                certified: result.verified,
            }),
            false,
        ),
        // Distinguish "no certificate exists/found" from "the budget
        // stopped the search": a failed run with the interrupt raised is
        // exhaustion, not a negative answer.
        None => (None, budget.interrupted(deadline)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certifies_shifted_linear_system() {
        // x' = 2 - x has equilibrium x* = 2.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("2 - x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let report =
            verify_stability(&cx, &sys, &[Interval::new(0.0, 5.0)], 0.1, 1.0).expect("stable");
        assert!((report.equilibrium[0] - 2.0).abs() < 1e-6);
        assert!(report.certified);
    }

    #[test]
    fn certifies_nonlinear_system() {
        // x' = -x - x³, equilibrium at 0.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x - x^3").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let report =
            verify_stability(&cx, &sys, &[Interval::new(-0.5, 0.5)], 0.1, 0.8).expect("stable");
        assert!(report.equilibrium[0].abs() < 1e-6);
        assert!(report.certified);
        assert!(report.iterations >= 1);
    }

    #[test]
    fn unstable_equilibrium_rejected() {
        // x' = x(1 - x): the origin is unstable (x = 1 is the stable one).
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("x*(1 - x)").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        // Region around the unstable origin.
        let r = verify_stability(&cx, &sys, &[Interval::new(-0.4, 0.4)], 0.05, 0.3);
        assert!(r.is_none(), "origin of the logistic map is unstable");
    }
}
