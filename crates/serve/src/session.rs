//! Per-tenant sessions: PCSTALL predictor state plus the degradation
//! ladder, snapshotable bit-exactly for eviction and kill-recovery.
//!
//! A session's epoch step is split in two around the server's power-cap
//! arbiter:
//!
//! * [`TenantSession::observe`] — runs before arbitration. Consumes this
//!   epoch's delivery (or its absence), updates the PC table, walks the
//!   ladder, and produces a [`Request`]: the predicted instruction curve
//!   over the frequency grid plus the frequency the tenant *wants*. Pure
//!   per-tenant: it touches nothing shared.
//! * [`TenantSession::commit`] — runs after arbitration with the
//!   arbiter's final (possibly demoted) choice.
//!
//! The rung walk is the [`Ladder`] that `pcstall::resilience::ResilientPolicy`
//! also steps — hold for [`FallbackConfig::hold_epochs`], then predict
//! reactively from the last good record (STALL-on-last-good) for
//! [`FallbackConfig::stall_epochs`], then pin to safe-max — so the soak
//! reports count rungs exactly as the simulator's fault runs do.

use dvfs::states::FreqStates;
use pcstall::pc_table::{PcTable, PcTableConfig};
use pcstall::resilience::{FallbackConfig, FallbackCounts, Ladder};
use pcstall::sensitivity::LinearModel;
use snapshot::{Decoder, Encoder, SnapError, Snapshot};

use crate::telemetry::TenantRecord;

/// Which ladder rung produced a decision.
pub use pcstall::resilience::Rung;

/// One tenant's per-epoch ask: a predicted instruction curve over the
/// frequency grid and the index the tenant wants. The global arbiter may
/// demote `desired` to fit the power cap; the curve tells it what each
/// demotion costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Predicted instructions at each grid frequency.
    pub curve: Vec<f64>,
    /// Grid index the tenant requests.
    pub desired: usize,
    /// Ladder rung that produced the request.
    pub rung: Rung,
}

/// Fraction of peak predicted throughput a tenant insists on keeping when
/// it picks its requested frequency (the paper's run-slower-if-nearly-free
/// objective at the service level).
const PERF_KEEP: f64 = 0.95;

/// One tenant's session: predictor state, ladder state, and the handful of
/// counters that make its decision stream reproducible after a restore.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSession {
    /// Tenant id.
    pub id: u64,
    /// Priority tier (0 = highest; fixed at admission).
    pub tier: u8,
    /// Last epoch with delivered telemetry (admission epoch initially) —
    /// the admission controller's coldness key.
    pub last_active: u64,
    table: PcTable,
    ladder: Ladder,
    last_good: Option<TenantRecord>,
    /// Model behind the most recent curve (for blind holds).
    last_model: LinearModel,
    /// Grid index of the last committed decision.
    current: usize,
    /// Predicted instructions at the last committed decision.
    last_predicted: f64,
    /// Lifetime committed decisions.
    decisions: u64,
}

impl TenantSession {
    /// A fresh session admitted at `epoch`, starting at grid index 0.
    pub fn new(id: u64, tier: u8, epoch: u64, ladder: FallbackConfig) -> Self {
        TenantSession {
            id,
            tier,
            last_active: epoch,
            table: PcTable::new(PcTableConfig::default()),
            ladder: Ladder::new(ladder),
            last_good: None,
            last_model: LinearModel::ZERO,
            current: 0,
            last_predicted: 0.0,
            decisions: 0,
        }
    }

    /// Ladder rung occupancy so far.
    pub fn counts(&self) -> FallbackCounts {
        self.ladder.counts()
    }

    /// Lifetime committed decisions.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Grid index of the last committed decision.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The predictor table (read-only view for diagnostics).
    pub fn table(&self) -> &PcTable {
        &self.table
    }

    fn curve_of(model: LinearModel, states: &FreqStates) -> Vec<f64> {
        states.iter().map(|f| model.predict(f)).collect()
    }

    /// Lowest grid index whose predicted throughput keeps [`PERF_KEEP`] of
    /// the curve's peak — run as slow as is nearly free.
    fn pick(curve: &[f64]) -> usize {
        let peak = curve.iter().cloned().fold(0.0f64, f64::max);
        if peak <= 0.0 {
            return 0;
        }
        curve.iter().position(|&i| i >= PERF_KEEP * peak).unwrap_or(curve.len() - 1)
    }

    /// The pre-arbitration half of the epoch step (see module docs).
    /// `delivery` is this epoch's record, if one survived ingest.
    pub fn observe(
        &mut self,
        epoch: u64,
        delivery: Option<&TenantRecord>,
        states: &FreqStates,
    ) -> Request {
        self.observe_gated(epoch, delivery, false, states)
    }

    /// [`TenantSession::observe`] with the tenant's breaker state. The hold
    /// rung assumes the blind epoch is a transient blip; an open breaker
    /// says the channel is failing systematically, so blind epochs skip
    /// hold and walk straight to STALL-on-last-good (the overall ladder
    /// budget before safe-max is unchanged). The server updates the
    /// tenant's breaker with this epoch's delivery before it reads
    /// `breaker_open`.
    pub fn observe_gated(
        &mut self,
        epoch: u64,
        delivery: Option<&TenantRecord>,
        breaker_open: bool,
        states: &FreqStates,
    ) -> Request {
        let can_stall = self.last_good.is_some();
        let rung = self.ladder.step(delivery.is_some(), !breaker_open, can_stall);
        let (curve, desired) = match (delivery, rung, &self.last_good) {
            (Some(rec), ..) => {
                self.last_active = epoch;
                // Update path: linearize the observed response over the
                // grid and store it under the epoch's starting PC.
                let fitted = rec.response().linearize(states.min(), states.max());
                self.table.update(rec.pc, fitted);
                self.last_good = Some(*rec);
                // Lookup path: predict the *next* epoch from the table
                // entry at the tenant's current PC; fall back to the
                // fresh fit on a table miss (cold entry).
                let model = self.table.lookup(rec.next_pc).unwrap_or(fitted);
                self.last_model = model;
                let curve = Self::curve_of(model, states);
                let desired = Self::pick(&curve);
                (curve, desired)
            }
            // Hold: repeat the last decision under the last model.
            (None, Rung::Hold, _) => (Self::curve_of(self.last_model, states), self.current),
            (None, Rung::Stall, Some(rec)) => {
                // STALL-on-last-good: reactive estimate from the stale
                // record's frequency response.
                let resp = rec.response();
                let curve: Vec<f64> = states.iter().map(|f| resp.predict(f)).collect();
                let desired = Self::pick(&curve);
                (curve, desired)
            }
            // Safe-max (also a never-delivered tenant, with nothing to
            // stall on): guarantee performance while blind.
            _ => (Self::curve_of(self.last_model, states), states.len() - 1),
        };
        Request { curve, desired, rung }
    }

    /// The serial half of the epoch step: records the arbiter's final
    /// choice.
    pub fn commit(&mut self, final_idx: usize, predicted: f64) {
        self.current = final_idx;
        self.last_predicted = predicted;
        self.decisions += 1;
    }
}

impl Snapshot for TenantSession {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.id);
        w.put_u8(self.tier);
        w.put_u64(self.last_active);
        self.table.encode(w);
        self.ladder.encode(w);
        match &self.last_good {
            Some(rec) => {
                w.put_bool(true);
                rec.encode(w);
            }
            None => w.put_bool(false),
        }
        self.last_model.encode(w);
        w.put_usize(self.current);
        w.put_f64(self.last_predicted);
        w.put_u64(self.decisions);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(TenantSession {
            id: r.take_u64()?,
            tier: r.take_u8()?,
            last_active: r.take_u64()?,
            table: PcTable::decode(r)?,
            ladder: Ladder::decode(r)?,
            last_good: if r.take_bool()? { Some(TenantRecord::decode(r)?) } else { None },
            last_model: LinearModel::decode(r)?,
            current: r.take_usize()?,
            last_predicted: r.take_f64()?,
            decisions: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::synth_record;
    use gpu_sim::time::Frequency;

    fn states() -> FreqStates {
        FreqStates::paper()
    }

    fn fresh(epoch: u64, f_mhz: u32) -> TenantRecord {
        synth_record(3, 1, epoch, Frequency::from_mhz(f_mhz))
    }

    #[test]
    fn normal_path_updates_table_and_requests() {
        let st = states();
        let mut s = TenantSession::new(1, 0, 0, FallbackConfig::default());
        for e in 0..20 {
            let rec = fresh(e, 1700);
            let req = s.observe(e, Some(&rec), &st);
            assert_eq!(req.rung, Rung::Normal);
            assert_eq!(req.curve.len(), st.len());
            assert!(req.desired < st.len());
            s.commit(req.desired, req.curve[req.desired]);
        }
        assert_eq!(s.counts().normal, 20);
        assert!(s.table().updates() == 20);
        assert_eq!(s.decisions(), 20);
    }

    #[test]
    fn ladder_walks_hold_stall_safe() {
        let st = states();
        let ladder = FallbackConfig { hold_epochs: 2, stall_epochs: 3 };
        let mut s = TenantSession::new(1, 0, 0, ladder);
        let rec = fresh(0, 1700);
        let req = s.observe(0, Some(&rec), &st);
        s.commit(req.desired, req.curve[req.desired]);
        let mut rungs = Vec::new();
        for e in 1..9 {
            let req = s.observe(e, None, &st);
            rungs.push(req.rung);
            if req.rung == Rung::Hold {
                assert_eq!(req.desired, s.current(), "hold repeats the last decision");
            }
            if req.rung == Rung::Safe {
                assert_eq!(req.desired, st.len() - 1, "safe pins to max");
            }
            s.commit(req.desired, req.curve[req.desired]);
        }
        assert_eq!(
            rungs,
            vec![
                Rung::Hold,
                Rung::Hold,
                Rung::Stall,
                Rung::Stall,
                Rung::Stall,
                Rung::Safe,
                Rung::Safe,
                Rung::Safe,
            ]
        );
        assert_eq!(s.counts().engaged(), 8);
        // Recovery resets the ladder.
        let req = s.observe(9, Some(&fresh(9, 1700)), &st);
        assert_eq!(req.rung, Rung::Normal);
    }

    #[test]
    fn open_breaker_skips_hold_rung() {
        let st = states();
        let ladder = FallbackConfig { hold_epochs: 3, stall_epochs: 4 };
        let mut s = TenantSession::new(1, 0, 0, ladder);
        let req = s.observe(0, Some(&fresh(0, 1700)), &st);
        s.commit(req.desired, req.curve[req.desired]);
        // First blind epoch with the breaker open: straight to Stall even
        // though the hold budget is untouched.
        let req = s.observe_gated(1, None, true, &st);
        assert_eq!(req.rung, Rung::Stall);
        // Same history with the breaker closed holds instead.
        let mut s2 = TenantSession::new(1, 0, 0, ladder);
        let req = s2.observe(0, Some(&fresh(0, 1700)), &st);
        s2.commit(req.desired, req.curve[req.desired]);
        assert_eq!(s2.observe_gated(1, None, false, &st).rung, Rung::Hold);
    }

    #[test]
    fn never_delivered_tenant_goes_safe_without_stall() {
        let st = states();
        let ladder = FallbackConfig { hold_epochs: 1, stall_epochs: 4 };
        let mut s = TenantSession::new(9, 1, 0, ladder);
        let mut saw_stall = false;
        for e in 0..8 {
            let req = s.observe(e, None, &st);
            saw_stall |= req.rung == Rung::Stall;
            s.commit(req.desired, req.curve[req.desired]);
        }
        assert!(!saw_stall, "no last-good record to stall on");
        assert!(s.counts().safe > 0);
    }

    #[test]
    fn memory_bound_tenants_request_low_frequency() {
        let st = states();
        let mut s = TenantSession::new(1, 0, 0, FallbackConfig::default());
        // A flat (memory-bound) record: committed identical at any f.
        let rec = TenantRecord {
            epoch: 0,
            pc: 0x40,
            next_pc: 0x40,
            committed: 800.0,
            async_frac: 1.0,
            f_obs_mhz: 1700,
        };
        let req = s.observe(0, Some(&rec), &st);
        assert_eq!(req.desired, 0, "flat curve runs at the floor");
        // A fully compute-bound record wants (nearly) the ceiling.
        let mut s2 = TenantSession::new(2, 0, 0, FallbackConfig::default());
        let hot = TenantRecord { async_frac: 0.0, pc: 0x80, next_pc: 0x80, ..rec };
        let req2 = s2.observe(0, Some(&hot), &st);
        assert!(req2.desired >= st.len() - 2, "steep curve runs near the ceiling");
    }

    #[test]
    fn snapshot_roundtrip_preserves_decision_stream() {
        let st = states();
        let mut s = TenantSession::new(5, 2, 0, FallbackConfig::default());
        for e in 0..30 {
            let rec = fresh(e, 1700);
            let delivery = if e % 5 == 3 { None } else { Some(&rec) };
            let req = s.observe(e, delivery, &st);
            s.commit(req.desired, req.curve[req.desired]);
        }
        let mut w = Encoder::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let mut restored = TenantSession::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, s);
        // Both continue identically, including through blind epochs.
        for e in 30..60 {
            let rec = fresh(e, 1800);
            let delivery = if e % 4 == 1 { None } else { Some(&rec) };
            let a = s.observe(e, delivery, &st);
            let b = restored.observe(e, delivery, &st);
            assert_eq!(a, b, "epoch {e}");
            s.commit(a.desired, a.curve[a.desired]);
            restored.commit(b.desired, b.curve[b.desired]);
        }
        assert_eq!(restored, s);
    }
}
