//! Objective functions mapping a predicted performance curve to a V/f state.
//!
//! Prediction and frequency selection are deliberately separated (paper
//! Section 5.2): any predictor produces "instructions committed at each
//! candidate frequency", and the objective turns that curve plus the power
//! model into a state choice.

use crate::epoch::EpochConfig;
use crate::states::FreqStates;
use gpu_sim::time::Frequency;
use power::model::PowerModel;

/// The DVFS optimization goal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize energy–delay product (battery-oriented).
    MinEdp,
    /// Minimize energy–delay² product (server/performance-oriented; the
    /// paper's headline objective).
    MinEd2p,
    /// Minimize energy subject to a relative performance-loss limit versus
    /// always running at the maximum state (paper Section 6.4; limits of
    /// 0.05 and 0.10 are evaluated).
    EnergyUnderPerfLoss(f64),
    /// Always run at a fixed frequency (static baseline).
    Static(Frequency),
}

/// Everything the objective needs besides the performance prediction.
#[derive(Debug, Clone, Copy)]
pub struct SelectionContext<'a> {
    /// Candidate states.
    pub states: &'a FreqStates,
    /// Epoch timing (for the transition penalty).
    pub epoch: EpochConfig,
    /// The power model.
    pub power: &'a PowerModel,
    /// CUs in the deciding domain.
    pub domain_cus: usize,
    /// Issue slots per CU cycle (for the activity estimate).
    pub issue_width: usize,
    /// Total CUs on the chip (for uncore power apportioning).
    pub total_cus: usize,
    /// The domain's current frequency (switching away incurs the
    /// transition penalty).
    pub current: Frequency,
}

impl Objective {
    /// Chooses the state minimizing this objective, given `predict(f)` =
    /// predicted instructions committed by the domain in the next epoch at
    /// frequency `f`.
    ///
    /// Ties resolve to the lower frequency. A prediction of zero work at
    /// every state returns the lowest state (nothing to run ⇒ save power).
    pub fn choose<F>(&self, ctx: &SelectionContext<'_>, predict: F) -> Frequency
    where
        F: Fn(Frequency) -> f64,
    {
        match *self {
            Objective::Static(f) => return ctx.states.nearest(f),
            Objective::EnergyUnderPerfLoss(limit) => {
                return self.choose_constrained(ctx, predict, limit)
            }
            _ => {}
        }
        let exponent = match *self {
            Objective::MinEdp => 2,
            Objective::MinEd2p => 3,
            _ => unreachable!("handled above"),
        };
        let mut best = ctx.states.min();
        let mut best_score = f64::INFINITY;
        let mut any_work = false;
        for f in ctx.states.iter() {
            let rate = effective_rate(ctx, &predict, f);
            if rate > 1e-9 {
                any_work = true;
            }
            let score = domain_power_w(ctx, f, rate) / rate.max(1e-9).powi(exponent);
            if score < best_score {
                best_score = score;
                best = f;
            }
        }
        if any_work {
            best
        } else {
            ctx.states.min()
        }
    }

    fn choose_constrained<F>(&self, ctx: &SelectionContext<'_>, predict: F, limit: f64) -> Frequency
    where
        F: Fn(Frequency) -> f64,
    {
        let reference = predict(ctx.states.max()).max(0.0);
        if reference <= 1e-9 {
            return ctx.states.min();
        }
        let floor = (1.0 - limit) * reference;
        let mut best: Option<(Frequency, f64)> = None;
        for f in ctx.states.iter() {
            let rate = effective_rate(ctx, &predict, f);
            if rate + 1e-9 < floor {
                continue;
            }
            let energy_per_work = domain_power_w(ctx, f, rate) / rate.max(1e-9);
            match best {
                Some((_, e)) if e <= energy_per_work => {}
                _ => best = Some((f, energy_per_work)),
            }
        }
        best.map(|(f, _)| f).unwrap_or_else(|| ctx.states.max())
    }
}

/// Predicted instructions for the epoch at `f`, discounted by the
/// transition stall if switching away from the current state.
fn effective_rate<F>(ctx: &SelectionContext<'_>, predict: &F, f: Frequency) -> f64
where
    F: Fn(Frequency) -> f64,
{
    let raw = predict(f).max(0.0);
    if f == ctx.current {
        raw
    } else {
        raw * (1.0 - ctx.epoch.transition_fraction())
    }
}

/// Estimated domain power at `f` given its predicted work `rate`
/// (instructions per epoch): per-CU dynamic power from the implied
/// instruction rate, plus each CU's share of the chip's uncore power.
fn domain_power_w(ctx: &SelectionContext<'_>, f: Frequency, rate: f64) -> f64 {
    let secs = ctx.epoch.duration.as_secs_f64().max(1e-12);
    let ips_per_cu = rate / secs / ctx.domain_cus.max(1) as f64;
    let per_cu = ctx.power.cu_power_w(f, ips_per_cu) + ctx.power.uncore_share_w(ctx.total_cus);
    per_cu * ctx.domain_cus as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::time::Femtos;

    fn ctx<'a>(states: &'a FreqStates, power: &'a PowerModel) -> SelectionContext<'a> {
        SelectionContext {
            states,
            epoch: EpochConfig::paper(1),
            power,
            domain_cus: 1,
            issue_width: 4,
            total_cus: 64,
            current: Frequency::from_mhz(1700),
        }
    }

    /// A linear performance curve I(f) = i0 + s * f_mhz.
    fn linear(i0: f64, s: f64) -> impl Fn(Frequency) -> f64 {
        move |f: Frequency| i0 + s * f.mhz() as f64
    }

    #[test]
    fn compute_bound_prefers_high_frequency_for_ed2p() {
        let states = FreqStates::paper();
        let power = PowerModel::default();
        let c = ctx(&states, &power);
        // Fully frequency-proportional work: I = 1.0/MHz.
        let f = Objective::MinEd2p.choose(&c, linear(0.0, 1.0));
        assert!(f.mhz() >= 2000, "compute-bound should clock high, got {f}");
    }

    #[test]
    fn memory_bound_prefers_low_frequency() {
        let states = FreqStates::paper();
        let power = PowerModel::default();
        let c = ctx(&states, &power);
        // Frequency-insensitive work.
        let f = Objective::MinEd2p.choose(&c, linear(1500.0, 0.0));
        assert_eq!(f, states.min(), "memory-bound should clock low");
    }

    #[test]
    fn edp_clocks_at_or_below_ed2p() {
        let states = FreqStates::paper();
        let power = PowerModel::default();
        let c = ctx(&states, &power);
        for s in [0.2, 0.5, 0.8, 1.0] {
            let pred = linear(500.0, s);
            let f_edp = Objective::MinEdp.choose(&c, &pred);
            let f_ed2p = Objective::MinEd2p.choose(&c, &pred);
            assert!(
                f_edp.mhz() <= f_ed2p.mhz(),
                "EDP weighs energy more -> lower clock (s={s}: {f_edp} vs {f_ed2p})"
            );
        }
    }

    #[test]
    fn static_objective_ignores_prediction() {
        let states = FreqStates::paper();
        let power = PowerModel::default();
        let c = ctx(&states, &power);
        let f = Objective::Static(Frequency::from_mhz(1700)).choose(&c, linear(0.0, 10.0));
        assert_eq!(f.mhz(), 1700);
    }

    #[test]
    fn perf_constraint_binds() {
        let states = FreqStates::paper();
        let power = PowerModel::default();
        let c = ctx(&states, &power);
        // Mildly sensitive work: dropping frequency loses some performance.
        let pred = linear(1000.0, 0.5);
        let tight = Objective::EnergyUnderPerfLoss(0.02).choose(&c, &pred);
        let loose = Objective::EnergyUnderPerfLoss(0.20).choose(&c, &pred);
        assert!(loose.mhz() <= tight.mhz(), "looser limit allows lower clock ({loose} vs {tight})");
        // Verify the tight choice actually satisfies the bound.
        let ref_rate = pred(states.max());
        let chosen_rate = pred(tight) * (1.0 - c.epoch.transition_fraction());
        assert!(chosen_rate >= 0.97 * ref_rate * (1.0 - 0.02) - 1e-9);
    }

    #[test]
    fn transition_penalty_creates_hysteresis() {
        let states = FreqStates::paper();
        let power = PowerModel::default();
        // Large transition cost: 20% of the epoch.
        let mut c = ctx(&states, &power);
        c.epoch = EpochConfig::with_transition(Femtos::from_micros(1), Femtos::from_nanos(200));
        c.current = Frequency::from_mhz(1800);
        // A curve whose unconstrained optimum is 1700: with a 20% switch
        // penalty, staying at 1800 can win.
        let pred = linear(800.0, 0.35);
        let chosen = c.current;
        let got = Objective::MinEd2p.choose(&c, &pred);
        // Either it stays (hysteresis) or the optimum is strong enough to
        // move; both are acceptable, but it must never pay the penalty for a
        // negligible gain. Compare scores directly:
        let frac = c.epoch.transition_fraction();
        let score = |f: Frequency| {
            let r = if f == chosen { pred(f) } else { pred(f) * (1.0 - frac) };
            let ips = r / c.epoch.duration.as_secs_f64();
            (power.cu_power_w(f, ips) + power.uncore_share_w(64)) / r.powi(3)
        };
        assert!(score(got) <= score(chosen) + 1e-18);
    }

    #[test]
    fn zero_work_clocks_down() {
        let states = FreqStates::paper();
        let power = PowerModel::default();
        let c = ctx(&states, &power);
        assert_eq!(Objective::MinEd2p.choose(&c, linear(0.0, 0.0)), states.min());
        assert_eq!(Objective::EnergyUnderPerfLoss(0.05).choose(&c, linear(0.0, 0.0)), states.min());
    }
}
