//! Decision-agreement analysis: how often does a design choose the same
//! V/f state the oracle would have chosen?
//!
//! Prediction accuracy (Fig. 14) scores *instruction counts*; what energy
//! efficiency actually depends on is choosing the right *state*. This
//! study runs a policy in the loop while, at every epoch, also fork-
//! sampling the oracle's curve and recording whether the policy's choice
//! matches the oracle's, and how many states apart they are. It is the
//! most direct diagnostic of decision quality short of a full ED²P run.
//!
//! Implemented as a [`RunObserver`] on the session engine: the session is
//! put in forced-sampling mode so the observer sees ground-truth curves
//! even under non-oracle policies.

use crate::runner::RunConfig;
use crate::session::{EpochCtx, RunObserver, Session};
use dvfs::objective::SelectionContext;
use gpu_sim::kernel::App;

/// Aggregate agreement between a design's choices and the oracle's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agreement {
    /// Domain-epochs where the design chose exactly the oracle's state.
    pub exact: u64,
    /// Domain-epochs within one 100 MHz step of the oracle.
    pub within_one: u64,
    /// All scored domain-epochs.
    pub total: u64,
    /// Sum of |state index difference| (for the mean distance).
    pub distance_sum: u64,
}

impl Agreement {
    /// Fraction of exact matches.
    pub fn exact_rate(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.exact as f64 / self.total as f64
        }
    }

    /// Fraction of choices within one state of the oracle's.
    pub fn within_one_rate(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.within_one as f64 / self.total as f64
        }
    }

    /// Mean distance in states from the oracle's choice.
    pub fn mean_distance(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.distance_sum as f64 / self.total as f64
        }
    }
}

/// Scores each epoch's decisions against what the oracle would have chosen
/// from that epoch's fork–pre-execute samples.
#[derive(Debug, Default)]
pub struct AgreementObserver {
    agreement: Agreement,
}

impl AgreementObserver {
    /// An empty scorer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregate scored so far.
    pub fn agreement(&self) -> Agreement {
        self.agreement
    }
}

impl RunObserver for AgreementObserver {
    fn on_decisions(&mut self, ctx: &EpochCtx<'_>) {
        // Agreement needs ground-truth curves; attached to a session that
        // is not force-sampling, the epoch simply goes unscored instead of
        // panicking the run.
        let Some(samples) = ctx.samples else { return };
        let states = &ctx.cfg.states;
        for (d, dec) in ctx.decisions.iter().enumerate() {
            // `current` still holds the previous epoch's frequency here —
            // the state the oracle's selection would switch away from.
            let sel = SelectionContext {
                states,
                epoch: ctx.cfg.epoch,
                power: ctx.power,
                domain_cus: ctx.domains.cus(d).len(),
                issue_width: ctx.cfg.gpu.issue_width,
                total_cus: ctx.cfg.gpu.n_cus,
                current: ctx.current[d],
            };
            let oracle_choice = ctx.cfg.objective.choose(&sel, samples.curve(d, states));
            // Both choices come from the configured set, but map through
            // `nearest` so an off-grid state (a policy bug) skews the
            // distance by at most one step instead of panicking scoring.
            let idx = |f| {
                states.index_of(f).unwrap_or_else(|| {
                    states.index_of(states.nearest(f)).expect("nearest is a member")
                })
            };
            let oi = idx(oracle_choice);
            let pi = idx(dec.freq);
            let dist = oi.abs_diff(pi) as u64;
            self.agreement.total += 1;
            self.agreement.distance_sum += dist;
            if dist == 0 {
                self.agreement.exact += 1;
            }
            if dist <= 1 {
                self.agreement.within_one += 1;
            }
        }
    }
}

/// Runs `app` under `cfg`'s policy while oracle-sampling every epoch, and
/// scores how closely the policy's per-domain choices track the oracle's.
///
/// Costs one fork–pre-execute sampling round per epoch on top of the
/// policy itself (11× a plain run), so use short workloads.
pub fn measure(app: &App, cfg: &RunConfig, max_epochs: usize) -> Agreement {
    let mut capped = cfg.clone();
    capped.max_epochs = max_epochs;
    let mut session = Session::new(app, &capped).sampling_every_epoch(true);
    let mut scorer = AgreementObserver::new();
    session.run(&mut [&mut scorer]);
    scorer.agreement()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use pcstall::policy::PolicyKind;
    use workloads::{by_name, Scale};

    fn quick(policy: PolicyKind) -> RunConfig {
        let mut cfg = RunConfig::reduced(policy);
        cfg.gpu = GpuConfig::tiny();
        cfg
    }

    #[test]
    fn oracle_agrees_with_itself() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let a = measure(&app, &quick(PolicyKind::Oracle), 8);
        assert!(a.total > 0);
        assert!(
            a.exact_rate() > 0.95,
            "oracle must (almost) agree with itself: {}",
            a.exact_rate()
        );
    }

    #[test]
    fn static_policy_disagrees_on_varied_work() {
        let app = by_name("hacc", Scale::Quick).unwrap();
        let a = measure(&app, &quick(PolicyKind::Static(2200)), 8);
        assert!(a.total > 0);
        assert!(a.exact_rate() < 0.9, "static should not track the oracle");
    }

    #[test]
    fn metrics_nan_on_empty() {
        let a = Agreement::default();
        assert!(a.exact_rate().is_nan());
        assert!(a.within_one_rate().is_nan());
        assert!(a.mean_distance().is_nan());
    }

    #[test]
    fn rates_are_consistent() {
        let a = Agreement { exact: 3, within_one: 5, total: 10, distance_sum: 12 };
        assert!((a.exact_rate() - 0.3).abs() < 1e-12);
        assert!((a.within_one_rate() - 0.5).abs() < 1e-12);
        assert!((a.mean_distance() - 1.2).abs() < 1e-12);
    }
}
