//! Shared memory subsystem: per-CU miss ports, banked L2, and DRAM channels.
//!
//! The L2 and DRAM live in a fixed-frequency domain (1.6 GHz in the paper);
//! contention is modeled with deterministic FIFO *servers*: each bank or
//! channel has a `next_free` time, and a request's service start is
//! `max(arrival, next_free)`. This reproduces queueing delay, bank conflicts
//! and bandwidth saturation — the mechanisms behind cross-CU interference
//! and second-order effects like the paper's `FwdSoft` L2 thrashing — while
//! remaining cheap, deterministic and cloneable for oracle forking.

use crate::cache::{Cache, CacheConfig};
use crate::time::{Femtos, Frequency};
use snapshot::{Decoder, Encoder, SnapError, Snapshot};

/// Configuration of the shared memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Fixed memory-domain frequency (the paper uses 1.6 GHz).
    pub mem_freq_mhz: u32,
    /// Number of L2 banks (paper: 16).
    pub l2_banks: u32,
    /// Per-bank L2 geometry.
    pub l2_bank_cache: CacheConfig,
    /// L2 bank occupancy per access, in memory-domain cycles.
    pub l2_service_cycles: u32,
    /// Total L2 hit latency (request to data at the CU boundary), ns.
    pub l2_hit_ns: u64,
    /// One-way network-on-chip latency between CU and L2, ns (applied on
    /// the request path before bank arbitration).
    pub noc_ns: u64,
    /// Number of DRAM pseudo-channels.
    pub dram_channels: u32,
    /// DRAM channel occupancy per 64 B line, ns (sets peak bandwidth:
    /// `channels * 64 B / occupancy`).
    pub dram_service_ns: u64,
    /// Additional DRAM access latency beyond L2, ns.
    pub dram_extra_ns: u64,
    /// Per-CU L1-miss-port issue interval, in CU cycles (limits per-CU
    /// memory-level parallelism; an MSHR-throughput proxy).
    pub miss_port_interval_cycles: u32,
    /// Store acknowledgment latency at L2, ns.
    pub store_ack_ns: u64,
}

impl Default for MemConfig {
    /// A Vega-class configuration: 16 banks × 256 KiB = 4 MiB L2 at
    /// 1.6 GHz, 16 DRAM pseudo-channels of 32 GB/s each (512 GB/s total).
    fn default() -> Self {
        MemConfig {
            mem_freq_mhz: 1600,
            l2_banks: 16,
            l2_bank_cache: CacheConfig { sets: 256, ways: 16, line_shift: 6 },
            l2_service_cycles: 2,
            l2_hit_ns: 110,
            noc_ns: 15,
            dram_channels: 16,
            dram_service_ns: 2,
            dram_extra_ns: 220,
            miss_port_interval_cycles: 2,
            store_ack_ns: 40,
        }
    }
}

impl MemConfig {
    /// Peak DRAM bandwidth in GB/s implied by the channel configuration.
    pub fn peak_dram_gbps(&self) -> f64 {
        self.dram_channels as f64 * 64.0 / self.dram_service_ns as f64
    }
}

/// Decoding re-applies the invariants [`MemSystem::new`] asserts (non-zero
/// banks, channels and memory frequency) as typed errors.
impl Snapshot for MemConfig {
    fn encode(&self, w: &mut Encoder) {
        let MemConfig {
            mem_freq_mhz,
            l2_banks,
            l2_bank_cache,
            l2_service_cycles,
            l2_hit_ns,
            noc_ns,
            dram_channels,
            dram_service_ns,
            dram_extra_ns,
            miss_port_interval_cycles,
            store_ack_ns,
        } = *self;
        w.put_u32(mem_freq_mhz);
        w.put_u32(l2_banks);
        l2_bank_cache.encode(w);
        w.put_u32(l2_service_cycles);
        w.put_u64(l2_hit_ns);
        w.put_u64(noc_ns);
        w.put_u32(dram_channels);
        w.put_u64(dram_service_ns);
        w.put_u64(dram_extra_ns);
        w.put_u32(miss_port_interval_cycles);
        w.put_u64(store_ack_ns);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let cfg = MemConfig {
            mem_freq_mhz: r.take_u32()?,
            l2_banks: r.take_u32()?,
            l2_bank_cache: CacheConfig::decode(r)?,
            l2_service_cycles: r.take_u32()?,
            l2_hit_ns: r.take_u64()?,
            noc_ns: r.take_u64()?,
            dram_channels: r.take_u32()?,
            dram_service_ns: r.take_u64()?,
            dram_extra_ns: r.take_u64()?,
            miss_port_interval_cycles: r.take_u32()?,
            store_ack_ns: r.take_u64()?,
        };
        if cfg.mem_freq_mhz == 0 {
            return Err(SnapError::invalid("zero memory-domain frequency"));
        }
        if cfg.l2_banks == 0 || cfg.dram_channels == 0 {
            return Err(SnapError::invalid("memory system needs >= 1 L2 bank and DRAM channel"));
        }
        Ok(cfg)
    }
}

impl Snapshot for MemEpochStats {
    fn encode(&self, w: &mut Encoder) {
        let MemEpochStats { l2_hits, l2_misses, dram_accesses, dram_bytes } = *self;
        w.put_u64(l2_hits);
        w.put_u64(l2_misses);
        w.put_u64(dram_accesses);
        w.put_u64(dram_bytes);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(MemEpochStats {
            l2_hits: r.take_u64()?,
            l2_misses: r.take_u64()?,
            dram_accesses: r.take_u64()?,
            dram_bytes: r.take_u64()?,
        })
    }
}

/// Per-epoch memory-system counters (reset by `begin_epoch`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemEpochStats {
    /// L2 accesses that hit.
    pub l2_hits: u64,
    /// L2 accesses that missed to DRAM.
    pub l2_misses: u64,
    /// Lines transferred to/from DRAM.
    pub dram_accesses: u64,
    /// Total bytes moved at the DRAM interface.
    pub dram_bytes: u64,
}

impl MemEpochStats {
    /// L2 hit rate in [0,1]; 1.0 when there were no accesses.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            1.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }
}

/// The outcome of a memory access, as absolute completion time plus the
/// levels it touched (for telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Time at which the response (or store ack) reaches the CU.
    pub complete_at: Femtos,
    /// Whether the access hit in L2 (meaningless for L1 hits, which never
    /// reach this module).
    pub l2_hit: bool,
}

/// Fixed latencies pre-converted from nanoseconds to [`Femtos`], so the
/// per-access hot path ([`MemSystem::load`]/[`MemSystem::store`]) does no
/// unit conversion. Purely derived from [`MemConfig`]: excluded from the
/// snapshot wire format and recomputed wherever a `MemSystem` is
/// constructed or decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LatConsts {
    noc: Femtos,
    l2_hit: Femtos,
    dram_service: Femtos,
    /// Full extra path of an L2 miss: `dram_extra_ns + l2_hit_ns`.
    dram_miss: Femtos,
    store_ack: Femtos,
}

impl LatConsts {
    fn new(cfg: &MemConfig) -> Self {
        LatConsts {
            noc: Femtos::from_nanos(cfg.noc_ns),
            l2_hit: Femtos::from_nanos(cfg.l2_hit_ns),
            dram_service: Femtos::from_nanos(cfg.dram_service_ns),
            dram_miss: Femtos::from_nanos(cfg.dram_extra_ns + cfg.l2_hit_ns),
            store_ack: Femtos::from_nanos(cfg.store_ack_ns),
        }
    }
}

/// The shared memory system below the per-CU L1s.
#[derive(Debug, PartialEq)]
pub struct MemSystem {
    cfg: MemConfig,
    l2_tags: Vec<Cache>,
    l2_next_free: Vec<Femtos>,
    dram_next_free: Vec<Femtos>,
    miss_port_next_free: Vec<Femtos>,
    stats: MemEpochStats,
    l2_service: Femtos,
    lat: LatConsts,
}

/// Manual `Clone` so `clone_from` reuses the destination's server vectors
/// and L2 tag arrays (see `gpu::Gpu`'s clone docs).
impl Clone for MemSystem {
    fn clone(&self) -> Self {
        MemSystem {
            cfg: self.cfg,
            l2_tags: self.l2_tags.clone(),
            l2_next_free: self.l2_next_free.clone(),
            dram_next_free: self.dram_next_free.clone(),
            miss_port_next_free: self.miss_port_next_free.clone(),
            stats: self.stats,
            l2_service: self.l2_service,
            lat: self.lat,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let MemSystem {
            cfg,
            l2_tags,
            l2_next_free,
            dram_next_free,
            miss_port_next_free,
            stats,
            l2_service,
            lat,
        } = src;
        self.cfg = *cfg;
        // Vec::clone_from reuses the allocation and calls Cache::clone_from
        // element-wise, which in turn reuses each bank's tag vector.
        self.l2_tags.clone_from(l2_tags);
        self.l2_next_free.clone_from(l2_next_free);
        self.dram_next_free.clone_from(dram_next_free);
        self.miss_port_next_free.clone_from(miss_port_next_free);
        self.stats = *stats;
        self.l2_service = *l2_service;
        self.lat = *lat;
    }
}

/// Mirrors the manual `Clone` above field for field. Decode cross-checks
/// every server vector against the decoded configuration and re-derives
/// nothing: `l2_service` is validated against, not recomputed from, the
/// configuration so any inconsistency is rejected.
impl Snapshot for MemSystem {
    fn encode(&self, w: &mut Encoder) {
        let MemSystem {
            cfg,
            l2_tags,
            l2_next_free,
            dram_next_free,
            miss_port_next_free,
            stats,
            l2_service,
            lat: _, // derived from cfg; never serialized
        } = self;
        cfg.encode(w);
        l2_tags.encode(w);
        l2_next_free.encode(w);
        dram_next_free.encode(w);
        miss_port_next_free.encode(w);
        stats.encode(w);
        l2_service.encode(w);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let cfg = MemConfig::decode(r)?;
        let l2_tags = Vec::<Cache>::decode(r)?;
        let l2_next_free = Vec::<Femtos>::decode(r)?;
        let dram_next_free = Vec::<Femtos>::decode(r)?;
        let miss_port_next_free = Vec::<Femtos>::decode(r)?;
        let stats = MemEpochStats::decode(r)?;
        let l2_service = Femtos::decode(r)?;
        let banks = cfg.l2_banks as usize;
        if l2_tags.len() != banks || l2_next_free.len() != banks {
            return Err(SnapError::invalid("L2 bank state does not match configuration"));
        }
        if l2_tags.iter().any(|c| c.config() != cfg.l2_bank_cache) {
            return Err(SnapError::invalid("L2 bank geometry does not match configuration"));
        }
        if dram_next_free.len() != cfg.dram_channels as usize {
            return Err(SnapError::invalid("DRAM channel state does not match configuration"));
        }
        let expect_service =
            Frequency::from_mhz(cfg.mem_freq_mhz).period() * cfg.l2_service_cycles as u64;
        if l2_service != expect_service {
            return Err(SnapError::invalid("L2 service time inconsistent with configuration"));
        }
        Ok(MemSystem {
            lat: LatConsts::new(&cfg),
            cfg,
            l2_tags,
            l2_next_free,
            dram_next_free,
            miss_port_next_free,
            stats,
            l2_service,
        })
    }
}

impl MemSystem {
    /// Creates the memory system for `n_cus` compute units.
    ///
    /// # Panics
    ///
    /// Panics if bank or channel counts are zero.
    pub fn new(cfg: MemConfig, n_cus: usize) -> Self {
        assert!(cfg.l2_banks > 0, "need at least one L2 bank");
        assert!(cfg.dram_channels > 0, "need at least one DRAM channel");
        let mem_period = Frequency::from_mhz(cfg.mem_freq_mhz).period();
        MemSystem {
            l2_tags: (0..cfg.l2_banks).map(|_| Cache::new(cfg.l2_bank_cache)).collect(),
            l2_next_free: vec![Femtos::ZERO; cfg.l2_banks as usize],
            dram_next_free: vec![Femtos::ZERO; cfg.dram_channels as usize],
            miss_port_next_free: vec![Femtos::ZERO; n_cus],
            stats: MemEpochStats::default(),
            l2_service: mem_period * cfg.l2_service_cycles as u64,
            lat: LatConsts::new(&cfg),
            cfg,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of per-CU miss ports (equals the CU count this system was
    /// built for); used to validate restored snapshots.
    pub(crate) fn miss_ports(&self) -> usize {
        self.miss_port_next_free.len()
    }

    /// Resets per-epoch counters.
    pub fn begin_epoch(&mut self) {
        self.stats = MemEpochStats::default();
    }

    /// The counters accumulated since the last `begin_epoch`.
    pub fn epoch_stats(&self) -> MemEpochStats {
        self.stats
    }

    /// Line number of `addr` — computed once per access and threaded
    /// through bank/channel mapping and the L2 tag lookup, so the hot paths
    /// never re-derive it.
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.cfg.l2_bank_cache.line_shift
    }

    #[inline]
    fn bank_of_line(&self, line: u64) -> usize {
        (line % self.cfg.l2_banks as u64) as usize
    }

    #[inline]
    fn channel_of_line(&self, line: u64) -> usize {
        ((line / self.cfg.l2_banks as u64) % self.cfg.dram_channels as u64) as usize
    }

    /// Issues an L1-miss load from `cu` at time `now` (the CU runs with
    /// clock period `cu_period`). Returns when the line arrives at the CU.
    #[inline]
    pub fn load(&mut self, cu: usize, addr: u64, now: Femtos, cu_period: Femtos) -> AccessOutcome {
        let port_ready = self.acquire_miss_port(cu, now, cu_period);
        let arrival = port_ready + self.lat.noc;
        let line = self.line_of(addr);
        let bank = self.bank_of_line(line);
        let svc_start = arrival.max(self.l2_next_free[bank]);
        self.l2_next_free[bank] = svc_start + self.l2_service;
        let l2_hit = self.l2_tags[bank].access_line(line);
        if l2_hit {
            self.stats.l2_hits += 1;
            AccessOutcome { complete_at: svc_start + self.lat.l2_hit, l2_hit: true }
        } else {
            self.stats.l2_misses += 1;
            self.stats.dram_accesses += 1;
            self.stats.dram_bytes += 64;
            let ch = self.channel_of_line(line);
            let d_start = (svc_start + self.l2_service).max(self.dram_next_free[ch]);
            self.dram_next_free[ch] = d_start + self.lat.dram_service;
            AccessOutcome { complete_at: d_start + self.lat.dram_miss, l2_hit: false }
        }
    }

    /// Issues a store from `cu` at time `now`. Stores are write-through
    /// no-allocate at L1 and write-back allocate at L2; the returned time is
    /// the write acknowledgment (what `s_waitcnt` on stores observes).
    #[inline]
    pub fn store(&mut self, cu: usize, addr: u64, now: Femtos, cu_period: Femtos) -> AccessOutcome {
        let port_ready = self.acquire_miss_port(cu, now, cu_period);
        let arrival = port_ready + self.lat.noc;
        let line = self.line_of(addr);
        let bank = self.bank_of_line(line);
        let svc_start = arrival.max(self.l2_next_free[bank]);
        self.l2_next_free[bank] = svc_start + self.l2_service;
        let l2_hit = self.l2_tags[bank].access_line(line);
        if l2_hit {
            self.stats.l2_hits += 1;
        } else {
            // Write-allocate: fetch the line, consuming DRAM bandwidth.
            self.stats.l2_misses += 1;
            self.stats.dram_accesses += 1;
            self.stats.dram_bytes += 64;
            let ch = self.channel_of_line(line);
            let d_start = (svc_start + self.l2_service).max(self.dram_next_free[ch]);
            self.dram_next_free[ch] = d_start + self.lat.dram_service;
        }
        // The ack returns once the bank has accepted the write; on a miss
        // the fill completes in the background (write-back model).
        AccessOutcome { complete_at: svc_start + self.lat.store_ack, l2_hit }
    }

    /// Models per-CU miss-port throughput (MSHR issue rate): consecutive
    /// misses from one CU are spaced at least `miss_port_interval_cycles`
    /// CU cycles apart.
    #[inline]
    fn acquire_miss_port(&mut self, cu: usize, now: Femtos, cu_period: Femtos) -> Femtos {
        let ready = now.max(self.miss_port_next_free[cu]);
        self.miss_port_next_free[cu] =
            ready + cu_period * self.cfg.miss_port_interval_cycles as u64;
        ready
    }

    /// Aggregate DRAM bandwidth used this epoch, in GB/s, given the epoch
    /// duration.
    pub fn dram_gbps(&self, epoch: Femtos) -> f64 {
        if epoch == Femtos::ZERO {
            return 0.0;
        }
        self.stats.dram_bytes as f64 / epoch.as_secs_f64() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(MemConfig::default(), 4)
    }

    const CU_PERIOD: Femtos = Femtos(500_000); // 2 GHz

    #[test]
    fn l2_hit_faster_than_miss() {
        let mut m = sys();
        let t0 = Femtos::from_micros(1);
        let miss = m.load(0, 0x1000, t0, CU_PERIOD);
        assert!(!miss.l2_hit);
        let t1 = Femtos::from_micros(2);
        let hit = m.load(0, 0x1000, t1, CU_PERIOD);
        assert!(hit.l2_hit);
        assert!(hit.complete_at - t1 < miss.complete_at - t0);
    }

    #[test]
    fn bank_conflict_serializes() {
        let mut m = sys();
        let t = Femtos::from_micros(1);
        // Two different CUs, two lines mapping to the same bank (stride =
        // line_bytes * banks), both missing: the second queues behind the
        // first at the bank.
        let a = m.load(0, 0x40000, t, CU_PERIOD);
        let b = m.load(1, 0x40000 + 64 * 16, t, CU_PERIOD);
        assert!(b.complete_at > a.complete_at, "second access must queue behind first");
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut m = sys();
        let t = Femtos::from_micros(1);
        let a = m.load(0, 0, t, CU_PERIOD);
        let b = m.load(1, 64, t, CU_PERIOD); // next line -> next bank
                                             // Both miss; latency should be (nearly) identical since no shared server.
        let la = a.complete_at - t;
        let lb = b.complete_at - t;
        let diff = la.as_fs().abs_diff(lb.as_fs());
        assert!(diff < Femtos::from_nanos(5).as_fs(), "unexpected conflict: {la} vs {lb}");
    }

    #[test]
    fn miss_port_limits_per_cu_mlp() {
        let mut m = sys();
        let t = Femtos::from_micros(1);
        // Same CU issues many misses at the same instant to distinct banks.
        let times: Vec<Femtos> =
            (0..8).map(|i| m.load(0, i * 64, t, CU_PERIOD).complete_at).collect();
        for w in times.windows(2) {
            assert!(w[1] > w[0], "same-CU misses must be spaced by the miss port");
        }
    }

    #[test]
    fn dram_bandwidth_saturation_queues() {
        let mut m = sys();
        let t = Femtos::from_micros(1);
        // Flood one channel: lines mapping to channel 0 are spaced
        // banks*channels lines apart.
        let stride = 64 * 16 * 16;
        let first = m.load(0, 0, t, CU_PERIOD).complete_at;
        let mut last = first;
        for i in 1..32u64 {
            last = m.load(1, i * stride, t, CU_PERIOD).complete_at;
        }
        assert!(last - first >= Femtos::from_nanos(2 * 20), "channel never saturated");
    }

    #[test]
    fn store_ack_does_not_wait_for_dram_fill() {
        let mut m = sys();
        let t = Femtos::from_micros(1);
        let s = m.store(0, 0x9000, t, CU_PERIOD);
        assert!(!s.l2_hit);
        let lat = s.complete_at - t;
        assert!(lat < Femtos::from_nanos(MemConfig::default().dram_extra_ns));
    }

    #[test]
    fn epoch_stats_accumulate_and_reset() {
        let mut m = sys();
        m.load(0, 0, Femtos::ZERO, CU_PERIOD);
        m.load(0, 0, Femtos::from_micros(1), CU_PERIOD);
        let s = m.epoch_stats();
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.dram_bytes, 64);
        m.begin_epoch();
        assert_eq!(m.epoch_stats(), MemEpochStats::default());
    }

    #[test]
    fn peak_bandwidth_matches_config() {
        let cfg = MemConfig::default();
        assert!((cfg.peak_dram_gbps() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_edges() {
        let s = MemEpochStats::default();
        assert_eq!(s.l2_hit_rate(), 1.0);
        let s = MemEpochStats { l2_hits: 1, l2_misses: 3, ..Default::default() };
        assert!((s.l2_hit_rate() - 0.25).abs() < 1e-12);
    }
}
