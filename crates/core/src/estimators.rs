//! Frequency-sensitivity *estimation* models (paper Section 2.3 / 5.3).
//!
//! Each model turns the elapsed epoch's performance counters into a
//! [`FreqResponse`] — an estimate of how the same work segment would have
//! performed at other frequencies. All four CU-level baselines share the
//! classic interval decomposition `T = T_async + T_core` and differ only in
//! how they attribute time to the asynchronous (memory) slice:
//!
//! * **STALL** — sums every wavefront's `s_waitcnt` stall time. Ignores
//!   that stalls overlap with other wavefronts' compute, so it
//!   over-estimates memory time on latency-hidden workloads.
//! * **LEAD** — accumulates leading-load latency (loads issued when no
//!   other load is in flight CU-wide). Under-estimates when memory level
//!   parallelism is deep.
//! * **CRIT** — measures *exposed* memory time: intervals where the CU
//!   issued nothing while loads were outstanding.
//! * **CRISP** — CRIT extended with GPU store behavior: exposed store-only
//!   time and store-bound `s_waitcnt` stalls (the store-stall insight of
//!   the CRISP paper).
//!
//! The wavefront-level STALL estimator used by PCSTALL applies the same
//! stall decomposition *per wavefront* (Section 4.2), where the in-order
//! single-thread assumption actually holds.

use crate::sensitivity::FreqResponse;
use gpu_sim::stats::{CuEpochStats, WfEpochStats};
use gpu_sim::time::Femtos;

/// The CU-level estimation models evaluated as reactive baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CuEstimator {
    /// Stall model [Keramidas et al.].
    Stall,
    /// Leading-load model [Keramidas/Eyerman/Rountree].
    Lead,
    /// Critical-path model [Miftakhutdinov et al.].
    Crit,
    /// CRISP GPU model [Nath & Tullsen].
    Crisp,
}

impl CuEstimator {
    /// Short display name matching the paper's Table III.
    pub fn name(self) -> &'static str {
        match self {
            CuEstimator::Stall => "STALL",
            CuEstimator::Lead => "LEAD",
            CuEstimator::Crit => "CRIT",
            CuEstimator::Crisp => "CRISP",
        }
    }

    /// Estimated asynchronous-time fraction of the elapsed epoch for `cu`.
    pub fn async_frac(self, cu: &CuEpochStats, epoch: Femtos) -> f64 {
        let t = epoch.as_fs() as f64;
        if t <= 0.0 {
            return 0.0;
        }
        let frac = match self {
            CuEstimator::Stall => {
                // Average stall share across live wavefronts: treats the CU
                // as one virtual in-order thread whose stall time is the
                // mean of its wavefronts' (the naive CPU extension).
                let live: Vec<&WfEpochStats> = cu.wf.iter().filter(|w| w.present).collect();
                if live.is_empty() {
                    0.0
                } else {
                    let total: f64 = live.iter().map(|w| w.stall.as_fs() as f64).sum();
                    total / (live.len() as f64 * t)
                }
            }
            CuEstimator::Lead => cu.lead_time.as_fs() as f64 / t,
            CuEstimator::Crit => cu.mem_only.as_fs() as f64 / t,
            CuEstimator::Crisp => {
                let exposed = cu.mem_only + cu.store_only;
                // Store-bound waitcnt stalls beyond what is already visible
                // as exposed time, scaled down for compute overlap.
                let store_extra = 0.5 * cu.store_stall.as_fs() as f64;
                (exposed.as_fs() as f64 + store_extra) / t
            }
        };
        frac.clamp(0.0, 1.0)
    }

    /// Full frequency response of the elapsed epoch for `cu`.
    pub fn estimate(self, cu: &CuEpochStats, epoch: Femtos) -> FreqResponse {
        FreqResponse {
            i_obs: cu.committed as f64,
            f_obs: cu.freq,
            async_frac: self.async_frac(cu, epoch),
        }
    }

    /// All four baselines.
    pub fn all() -> [CuEstimator; 4] {
        [CuEstimator::Stall, CuEstimator::Lead, CuEstimator::Crit, CuEstimator::Crisp]
    }
}

/// Configuration of the wavefront-level STALL estimator (PCSTALL's
/// estimation half, Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WfStallConfig {
    /// Whether to normalize for scheduling contention ("the estimated
    /// sensitivity is further normalized depending on the relative age of
    /// the wavefront"): the table stores each wavefront's *intrinsic
    /// demand* — its commit count with scheduler-denial time factored out
    /// (`x / (1 - sched_wait_fraction)`). The domain prediction then sums
    /// intrinsic demands and caps the result at the domain's issue
    /// capacity, which models the oldest-first scheduler: saturated
    /// compute predicts the capacity, unsaturated work predicts the sum.
    /// Disabling stores raw observed commits (ablation knob).
    pub age_normalize: bool,
    /// Whether workgroup-barrier wait time counts as asynchronous time.
    /// A wavefront parked at a barrier commits nothing regardless of its
    /// own frequency, so for prediction purposes barrier time behaves like
    /// memory time; disabling this is an ablation knob.
    pub barrier_as_async: bool,
}

impl Default for WfStallConfig {
    fn default() -> Self {
        WfStallConfig { age_normalize: true, barrier_as_async: true }
    }
}

/// Wavefront-level STALL estimation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WfStallEstimator {
    /// Estimator options.
    pub cfg: WfStallConfig,
}

impl WfStallEstimator {
    /// Creates the estimator.
    pub fn new(cfg: WfStallConfig) -> Self {
        WfStallEstimator { cfg }
    }

    /// Frequency response of one wavefront's elapsed epoch. `freq` is the
    /// frequency its CU ran at.
    ///
    /// The wavefront's `s_waitcnt` stall time is asynchronous; everything
    /// else (issue, dependency latency, scheduler contention, barrier
    /// waits for other wavefronts' compute) scales with frequency.
    pub fn estimate(
        &self,
        wf: &WfEpochStats,
        freq: gpu_sim::time::Frequency,
        epoch: Femtos,
    ) -> FreqResponse {
        let t = epoch.as_fs() as f64;
        if t <= 0.0 || wf.committed == 0 {
            return FreqResponse::zero(freq);
        }
        let mut async_fs = wf.stall.as_fs() as f64;
        if self.cfg.barrier_as_async {
            async_fs += wf.barrier_stall.as_fs() as f64;
        }
        let async_frac = (async_fs / t).clamp(0.0, 1.0);
        FreqResponse { i_obs: wf.committed as f64, f_obs: freq, async_frac }
    }

    /// The contention factor of a wavefront: the fraction of the epoch it
    /// spent ready-but-not-scheduled. Used to normalize stored sensitivities
    /// to a contention-neutral value (update) and to re-apply the current
    /// contention (lookup).
    pub fn contention(&self, wf: &WfEpochStats, epoch: Femtos) -> f64 {
        if !self.cfg.age_normalize {
            return 0.0;
        }
        let t = epoch.as_fs() as f64;
        if t <= 0.0 {
            return 0.0;
        }
        (wf.sched_wait.as_fs() as f64 / t).clamp(0.0, 0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::time::Frequency;

    fn epoch() -> Femtos {
        Femtos::from_micros(1)
    }

    fn base_cu() -> CuEpochStats {
        CuEpochStats {
            freq: Frequency::from_mhz(1700),
            issue_width: 1,
            committed: 1000,
            busy: Femtos::from_nanos(600),
            mem_only: Femtos::from_nanos(250),
            store_only: Femtos::from_nanos(50),
            idle: Femtos::from_nanos(100),
            store_stall: Femtos::from_nanos(80),
            lead_time: Femtos::from_nanos(150),
            l1_hits: 0,
            l1_misses: 0,
            active_wavefronts: 2,
            op_mix: Default::default(),
            wf: vec![wf_stats(0, 600, 400, 100), wf_stats(1, 400, 700, 300)],
        }
    }

    fn wf_stats(rank: u32, committed: u32, stall_ns: u64, sched_ns: u64) -> WfEpochStats {
        WfEpochStats {
            present: true,
            uid: rank as u64,
            age_rank: rank,
            start_pc: 0,
            start_blocked: false,
            end_pc: 0,
            kernel_idx: 0,
            committed,
            stall: Femtos::from_nanos(stall_ns),
            barrier_stall: Femtos::ZERO,
            sched_wait: Femtos::from_nanos(sched_ns),
            lead_time: Femtos::ZERO,
            finished: false,
        }
    }

    #[test]
    fn stall_averages_wavefront_stalls() {
        let cu = base_cu();
        // (400 + 700) / (2 * 1000) ns = 0.55
        let f = CuEstimator::Stall.async_frac(&cu, epoch());
        assert!((f - 0.55).abs() < 1e-9);
    }

    #[test]
    fn lead_uses_cu_leading_time() {
        let cu = base_cu();
        assert!((CuEstimator::Lead.async_frac(&cu, epoch()) - 0.15).abs() < 1e-9);
    }

    #[test]
    fn crit_uses_exposed_memory_time() {
        let cu = base_cu();
        assert!((CuEstimator::Crit.async_frac(&cu, epoch()) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn crisp_adds_store_effects() {
        let cu = base_cu();
        let crit = CuEstimator::Crit.async_frac(&cu, epoch());
        let crisp = CuEstimator::Crisp.async_frac(&cu, epoch());
        assert!(crisp > crit, "CRISP must include store exposure");
        // 0.25 + 0.05 + 0.5*0.08 = 0.34
        assert!((crisp - 0.34).abs() < 1e-9);
    }

    #[test]
    fn estimates_clamped_to_unit_interval() {
        let mut cu = base_cu();
        cu.wf[0].stall = Femtos::from_micros(5); // bogus > epoch
        for e in CuEstimator::all() {
            let f = e.async_frac(&cu, epoch());
            assert!((0.0..=1.0).contains(&f), "{} out of range: {f}", e.name());
        }
    }

    #[test]
    fn wf_stall_estimator_basics() {
        let est = WfStallEstimator::default();
        let wf = wf_stats(1, 500, 300, 200);
        let r = est.estimate(&wf, Frequency::from_mhz(1700), epoch());
        assert_eq!(r.i_obs, 500.0);
        assert!((r.async_frac - 0.3).abs() < 1e-9);
        // Intrinsic-demand normalization is on by default.
        assert!((est.contention(&wf, epoch()) - 0.2).abs() < 1e-9);
        let off =
            WfStallEstimator::new(WfStallConfig { age_normalize: false, barrier_as_async: true });
        assert_eq!(off.contention(&wf, epoch()), 0.0);
    }

    #[test]
    fn wf_estimator_zero_for_idle_wavefront() {
        let est = WfStallEstimator::default();
        let wf = wf_stats(0, 0, 0, 0);
        let r = est.estimate(&wf, Frequency::from_mhz(1700), epoch());
        assert_eq!(r.predict(Frequency::from_mhz(2200)), 0.0);
    }

    #[test]
    fn age_normalization_can_be_disabled() {
        let est =
            WfStallEstimator::new(WfStallConfig { age_normalize: false, barrier_as_async: true });
        let wf = wf_stats(1, 500, 300, 900);
        assert_eq!(est.contention(&wf, epoch()), 0.0);
    }
}
