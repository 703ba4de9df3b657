//! Therapeutic strategy identification (Sec. IV-B): which drug to
//! deliver at what time, as a parameter-synthesis-for-reachability
//! problem over the treatment automaton, minimizing the number of drugs
//! (path length).
//!
//! Prefer [`Query::Therapy`](crate::Query::Therapy) on a
//! [`Session`](crate::Session), which threads budgets and cancellation
//! into the reachability search and reports exhaustion distinctly from
//! "no schedule exists".

use biocheck_bmc::{check_reach, ReachOptions, ReachResult, ReachSpec};
use biocheck_hybrid::HybridAutomaton;
use biocheck_interval::Interval;

/// A synthesized treatment plan.
#[derive(Clone, Debug)]
pub struct TherapyPlan {
    /// Mode names along the successful path (drug sequence).
    pub schedule: Vec<String>,
    /// Dwell time in each mode.
    pub dwell_times: Vec<f64>,
    /// Synthesized trigger thresholds / parameters (name, interval).
    pub thresholds: Vec<(String, Interval)>,
    /// Number of distinct treatment modes used (drugs administered).
    pub drugs_used: usize,
}

/// Synthesizes the shortest successful treatment schedule: the minimal
/// number of jumps whose mode path reaches the goal (e.g. "alive at
/// time T with damage below threshold"), together with admissible
/// trigger thresholds.
///
/// Returns `None` when no schedule within `spec.k_max` jumps works.
pub fn synthesize_therapy(
    ha: &HybridAutomaton,
    spec: &ReachSpec,
    opts: &ReachOptions,
) -> Option<TherapyPlan> {
    synthesize_therapy_checked(ha, spec, opts).0
}

/// [`synthesize_therapy`] plus a flag telling whether the search was cut
/// short by a resource bound (`ReachResult::Unknown`) rather than
/// exhausting all paths.
pub(crate) fn synthesize_therapy_checked(
    ha: &HybridAutomaton,
    spec: &ReachSpec,
    opts: &ReachOptions,
) -> (Option<TherapyPlan>, bool) {
    match check_reach(ha, spec, opts) {
        ReachResult::DeltaSat(w) => {
            let schedule: Vec<String> = w.path.iter().map(|&m| ha.modes[m].name.clone()).collect();
            let mut seen = std::collections::BTreeSet::new();
            let drugs_used = schedule
                .iter()
                .skip(1) // initial mode is not a drug
                .filter(|name| seen.insert((*name).clone()))
                .count();
            (
                Some(TherapyPlan {
                    schedule,
                    dwell_times: w.dwell_times.clone(),
                    thresholds: w.param_box.clone(),
                    drugs_used,
                }),
                false,
            )
        }
        ReachResult::Unsat => (None, false),
        ReachResult::Unknown => (None, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::{Atom, RelOp};

    /// A toy rescue automaton: damage grows in mode `sick`; drug mode
    /// `treated` reverses it. Goal: low damage after treatment.
    #[test]
    fn finds_single_drug_schedule() {
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state d;
            param theta = [0.5, 2.0];
            mode sick { flow: d' = 1; jump to treated when d >= theta; }
            mode treated { flow: d' = -0.5; }
            init sick: d = 0;
            "#,
        )
        .unwrap();
        let goal = ha.cx.parse("0.2 - d").unwrap(); // d ≤ 0.2
        let spec = ReachSpec {
            goal_mode: Some(ha.mode_by_name("treated").unwrap()),
            goal: vec![Atom::new(goal, RelOp::Ge)],
            k_max: 2,
            time_bound: 5.0,
        };
        let opts = ReachOptions {
            state_bounds: vec![Interval::new(0.0, 5.0)],
            ..ReachOptions::new(0.05)
        };
        let plan = synthesize_therapy(&ha, &spec, &opts).expect("treatable");
        assert_eq!(
            plan.schedule,
            vec!["sick".to_string(), "treated".to_string()]
        );
        assert_eq!(plan.drugs_used, 1);
        assert_eq!(plan.dwell_times.len(), 2);
        assert!(!plan.thresholds.is_empty());
    }

    #[test]
    fn untreatable_returns_none() {
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state d;
            mode sick { flow: d' = 1; }
            init sick: d = 0;
            "#,
        )
        .unwrap();
        let goal = ha.cx.parse("-1 - d").unwrap(); // d ≤ -1 impossible
        let spec = ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(goal, RelOp::Ge)],
            k_max: 1,
            time_bound: 3.0,
        };
        let opts = ReachOptions {
            state_bounds: vec![Interval::new(0.0, 5.0)],
            ..ReachOptions::new(0.05)
        };
        assert!(synthesize_therapy(&ha, &spec, &opts).is_none());
    }
}
