//! Telemetry records, batches, and the seeded synthetic tenant workload.
//!
//! A server-level telemetry record is the compact residue of one epoch of
//! one tenant's GPU: which PC the epoch started at, where the wavefronts
//! sit now, how much committed, and what fraction of the epoch was
//! frequency-independent (memory) time. It is exactly the information the
//! PCSTALL update/lookup pair needs — [`crate::session::TenantSession`]
//! linearizes it into the paper's `I0 + S·f` form and stores it in the
//! tenant's PC table.

use gpu_sim::isa::Pc;
use gpu_sim::time::Frequency;
use pcstall::sensitivity::FreqResponse;
use snapshot::{Decoder, Encoder, SnapError, Snapshot};

/// One epoch of one tenant's telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRecord {
    /// Epoch the counters describe.
    pub epoch: u64,
    /// PC the epoch started at (the PC-table update key).
    pub pc: Pc,
    /// PC the tenant's wavefronts sit at now (the lookup key for the next
    /// epoch's prediction).
    pub next_pc: Pc,
    /// Instructions committed during the epoch.
    pub committed: f64,
    /// Estimated frequency-independent time fraction ∈ [0, 1].
    pub async_frac: f64,
    /// Core frequency the epoch ran at, in MHz.
    pub f_obs_mhz: u32,
}

impl TenantRecord {
    /// The interval-style frequency response this record observes.
    pub fn response(&self) -> FreqResponse {
        FreqResponse {
            i_obs: self.committed,
            f_obs: Frequency::from_mhz(self.f_obs_mhz.max(1)),
            async_frac: self.async_frac,
        }
    }
}

impl Snapshot for TenantRecord {
    fn encode(&self, w: &mut Encoder) {
        let TenantRecord { epoch, pc, next_pc, committed, async_frac, f_obs_mhz } = *self;
        w.put_u64(epoch);
        w.put_u32(pc);
        w.put_u32(next_pc);
        w.put_f64(committed);
        w.put_f64(async_frac);
        w.put_u32(f_obs_mhz);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(TenantRecord {
            epoch: r.take_u64()?,
            pc: r.take_u32()?,
            next_pc: r.take_u32()?,
            committed: r.take_f64()?,
            async_frac: r.take_f64()?,
            f_obs_mhz: r.take_u32()?,
        })
    }
}

/// A batch of telemetry records from one tenant. Tier 0 is the highest
/// priority; under overload the ingest queues shed from the highest tier
/// number (lowest priority) first.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBatch {
    /// Submitting tenant.
    pub tenant: u64,
    /// Priority tier (0 = highest).
    pub tier: u8,
    /// Records, oldest first.
    pub records: Vec<TenantRecord>,
}

impl Snapshot for TelemetryBatch {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.tenant);
        w.put_u8(self.tier);
        w.put_usize(self.records.len());
        for r in &self.records {
            r.encode(w);
        }
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let tenant = r.take_u64()?;
        let tier = r.take_u8()?;
        let n = r.take_usize()?;
        let mut records = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            records.push(TenantRecord::decode(r)?);
        }
        Ok(TelemetryBatch { tenant, tier, records })
    }
}

/// Private draw channels for workload synthesis, disjoint from the fault
/// channels in `faults::channel` (which stop at 0x0E).
mod synth_channel {
    pub const PHASE: u64 = 0x20;
    pub const PHASE_LEN: u64 = 0x21;
    pub const PEAK: u64 = 0x22;
    pub const JITTER: u64 = 0x23;
    pub const FRAC: u64 = 0x24;
}

/// Synthesizes one tenant-epoch of telemetry: a seeded, phase-structured
/// workload in the PhaseScale mold. Each tenant alternates compute-bound
/// and memory-bound phases (tenant-specific phase length and peak
/// throughput), looping over a small set of PCs like the few-hundred-
/// instruction GPU kernels the paper's PC table is sized for. The
/// committed count responds to the frequency the tenant actually ran at —
/// so server decisions feed back into the telemetry, like a real fleet —
/// through the same time-dilation identity the estimators assume.
///
/// Pure function of `(seed, tenant, epoch, f_obs)`: the soak's pinned
/// digest and its in-process/wire/kill-recover equalities rely on every
/// driver producing the identical stream.
pub fn synth_record(seed: u64, tenant: u64, epoch: u64, f_obs: Frequency) -> TenantRecord {
    let d = |chan: u64, x: u64| faults::draw(seed, x, chan, tenant);
    // Tenant personality: phase length 12–28 epochs, peak instruction
    // throughput 1k–5k per epoch at the observation frequency ceiling.
    let phase_len = 12 + (d(synth_channel::PHASE_LEN, 0) * 16.0) as u64;
    let peak = 1000.0 + d(synth_channel::PEAK, 0) * 4000.0;
    let phase = epoch / phase_len;
    // Memory-bound phases arrive at ~45% with per-phase draws.
    let mem_bound = d(synth_channel::PHASE, phase) < 0.45;
    let base_frac = if mem_bound { 0.85 } else { 0.12 };
    let async_frac = (base_frac + 0.06 * (d(synth_channel::FRAC, phase) - 0.5)).clamp(0.0, 1.0);
    // An 8-entry PC loop per tenant, phase-shifted so different phases
    // exercise different table entries.
    let loop_base = ((tenant.wrapping_mul(0x9E37) ^ phase) & 0x3F) as Pc * 0x40;
    let step = epoch % 8;
    let pc = loop_base + (step as Pc) * 0x10;
    let next_pc = loop_base + (((step + 1) % 8) as Pc) * 0x10;
    // Ground truth: peak at 2.2 GHz, dilated down to f_obs, with small
    // multiplicative jitter so the EWMA in the table has work to do.
    let truth = FreqResponse { i_obs: peak, f_obs: Frequency::from_mhz(2200), async_frac };
    let jitter = 1.0 + 0.04 * (d(synth_channel::JITTER, epoch) - 0.5);
    let committed = (truth.predict(f_obs) * jitter).max(0.0);
    TenantRecord { epoch, pc, next_pc, committed, async_frac, f_obs_mhz: f_obs.mhz() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_bit_exactly() {
        let rec = synth_record(7, 3, 41, Frequency::from_mhz(1700));
        let mut w = Encoder::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = TenantRecord::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, rec);

        let batch = TelemetryBatch { tenant: 3, tier: 2, records: vec![rec, rec] };
        let mut w = Encoder::new();
        batch.encode(&mut w);
        let bytes = w.into_bytes();
        let back = TelemetryBatch::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn synth_is_deterministic_and_frequency_sensitive() {
        let a = synth_record(1, 5, 100, Frequency::from_mhz(1700));
        let b = synth_record(1, 5, 100, Frequency::from_mhz(1700));
        assert_eq!(a, b);
        assert_ne!(a, synth_record(2, 5, 100, Frequency::from_mhz(1700)));
        assert_ne!(a, synth_record(1, 6, 100, Frequency::from_mhz(1700)));

        // In a compute-bound phase, higher frequency must commit more.
        let mut saw_compute = false;
        for e in 0..200 {
            let lo = synth_record(1, 5, e, Frequency::from_mhz(1300));
            let hi = synth_record(1, 5, e, Frequency::from_mhz(2200));
            assert_eq!(lo.pc, hi.pc, "PC stream is frequency independent");
            if lo.async_frac < 0.5 {
                saw_compute = true;
                assert!(hi.committed > lo.committed, "epoch {e}");
            }
        }
        assert!(saw_compute, "workload should have compute phases");
    }

    #[test]
    fn synth_phases_alternate() {
        // Over many epochs a tenant must visit both phase kinds.
        let fracs: Vec<f64> =
            (0..400).map(|e| synth_record(3, 9, e, Frequency::from_mhz(1700)).async_frac).collect();
        assert!(fracs.iter().any(|&f| f > 0.7), "memory-bound phases occur");
        assert!(fracs.iter().any(|&f| f < 0.3), "compute-bound phases occur");
    }
}
