//! The policy server: admission, serial epoch stepping, breakers, the
//! global power-cap arbiter, and kill-recoverable state.
//!
//! ## Epoch pipeline
//!
//! Every step runs serially on the calling thread, and every walk over
//! tenants goes in ascending tenant id.
//!
//! 1. **Drain** the ingest queues (serial; shedding already happened at
//!    submit time).
//! 2. **Admit** unknown tenants, restoring evicted ones from the
//!    containers the server holds for them (torn reads are CRC-detected
//!    and retried with seeded backoff before falling back to a cold
//!    rebuild — the tenant is never lost). A full server evicts its
//!    coldest live tenants, popped off one victim heap built per epoch.
//! 3. **Breakers**: a missed delivery is a failure on the tenant's
//!    telemetry channel; `threshold` consecutive misses trip the breaker.
//!    Breakers and the [`KeyedSupervisionReport`] that attributes
//!    trips/skips/recoveries are both keyed by tenant id.
//! 4. **Observe**, in the same walk as step 3: each tenant's session
//!    consumes its delivery, gated by its breaker's open flag, and
//!    produces a frequency [`Request`].
//! 5. **Arbitrate**: a deterministic greedy demotion under the
//!    global power cap. While total predicted power exceeds the cap, the
//!    tenant whose next demotion costs the least predicted performance
//!    per watt saved steps down one grid state (ties break toward lower
//!    priority, then higher id). Degraded tenants — blind, memory-bound,
//!    flat curves — are the cheapest demotions, which is exactly the
//!    "redistribute headroom from degraded tenants" policy.
//! 6. **Commit + log**: final choices feed
//!    the per-tenant sessions and the running FNV decision digest.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use dvfs::states::FreqStates;
use exec::WorkerPool;
use pcstall::resilience::FallbackConfig;
use power::model::{PowerConfig, PowerModel};
use snapshot::{ContainerReader, ContainerWriter, Decoder, Encoder, SnapError, Snapshot};
use supervise::{Backoff, CircuitBreaker, KeyedSupervisionReport, SupervisionReport};

use crate::queue::{IngestQueues, ShedStats, SubmitOutcome};
use crate::session::{Request, Rung, TenantSession};
use crate::telemetry::{TelemetryBatch, TenantRecord};

/// Server configuration. It travels in [`PolicyServer::save_state`]
/// snapshots, so a recovered server runs under the saved settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Maximum live (in-memory) tenants before cold ones are evicted.
    pub max_live: usize,
    /// Global ingest queue capacity, in batches.
    pub queue_capacity: usize,
    /// Priority tiers (0 = highest).
    pub tiers: u8,
    /// The frequency grid every tenant is scaled on.
    pub states: FreqStates,
    /// Global power cap in watts (`f64::INFINITY` = uncapped).
    pub power_cap_w: f64,
    /// Degradation-ladder depths (shared by all sessions).
    pub ladder: FallbackConfig,
    /// Consecutive missed deliveries before a tenant's telemetry breaker
    /// trips.
    pub breaker_threshold: u32,
    /// Backoff schedule for torn-read restore retries.
    pub backoff: Backoff,
    /// Restore attempts before a torn tenant is rebuilt cold.
    pub restore_retries: u32,
    /// Chaos hook: probability that a restore read is torn (a byte of a
    /// copy of the held container is flipped before decoding; the
    /// container CRC detects it). Drawn on `faults::channel::TORN` keyed by
    /// `(epoch, tenant, attempt)`, so the pattern is a pure function of
    /// the seed.
    pub torn_read_rate: f64,
    /// Seed for every server-side chaos/backoff draw.
    pub seed: u64,
    /// Epoch length in microseconds (converts predicted instructions per
    /// epoch into instructions per second for the power model).
    pub epoch_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_live: 1024,
            queue_capacity: 8192,
            tiers: 3,
            states: FreqStates::paper(),
            power_cap_w: f64::INFINITY,
            ladder: FallbackConfig::default(),
            breaker_threshold: 3,
            backoff: Backoff::default(),
            restore_retries: 3,
            torn_read_rate: 0.0,
            seed: 0,
            epoch_us: 50,
        }
    }
}

impl ServerConfig {
    fn encode_into(&self, w: &mut Encoder) {
        w.put_usize(self.max_live);
        w.put_usize(self.queue_capacity);
        w.put_u8(self.tiers);
        w.put_usize(self.states.len());
        for f in self.states.iter() {
            w.put_u32(f.mhz());
        }
        w.put_f64(self.power_cap_w);
        w.put_u32(self.ladder.hold_epochs);
        w.put_u32(self.ladder.stall_epochs);
        w.put_u32(self.breaker_threshold);
        w.put_u64(self.backoff.base_ms);
        w.put_u64(self.backoff.cap_ms);
        w.put_u32(self.restore_retries);
        w.put_f64(self.torn_read_rate);
        w.put_u64(self.seed);
        w.put_u64(self.epoch_us);
    }

    fn decode_from(r: &mut Decoder) -> Result<Self, SnapError> {
        let max_live = r.take_usize()?;
        let queue_capacity = r.take_usize()?;
        let tiers = r.take_u8()?;
        let n = r.take_usize()?;
        if n == 0 || n > 4096 {
            return Err(SnapError::Invalid(format!("implausible state count {n}")));
        }
        let mut mhz = Vec::with_capacity(n);
        for _ in 0..n {
            mhz.push(r.take_u32()?);
        }
        let states = FreqStates::from_states(
            mhz.into_iter().map(gpu_sim::time::Frequency::from_mhz).collect(),
        );
        Ok(ServerConfig {
            max_live,
            queue_capacity,
            tiers,
            states,
            power_cap_w: r.take_f64()?,
            ladder: FallbackConfig { hold_epochs: r.take_u32()?, stall_epochs: r.take_u32()? },
            breaker_threshold: r.take_u32()?,
            backoff: Backoff { base_ms: r.take_u64()?, cap_ms: r.take_u64()? },
            restore_retries: r.take_u32()?,
            torn_read_rate: r.take_f64()?,
            seed: r.take_u64()?,
            epoch_us: r.take_u64()?,
        })
    }
}

/// One committed per-tenant decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Epoch the decision applies to.
    pub epoch: u64,
    /// Tenant it applies to.
    pub tenant: u64,
    /// Chosen core frequency in MHz.
    pub freq_mhz: u32,
    /// Ladder rung that produced it.
    pub rung: Rung,
    /// Predicted instructions at the chosen frequency.
    pub predicted: f64,
}

/// Running FNV-1a digest over the decision stream — the cheap equality
/// witness for "bit-identical decision logs" across kill/recover restarts
/// and transports, and the value the chaos soak pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionLog {
    digest: u64,
    count: u64,
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog { digest: 0xcbf2_9ce4_8422_2325, count: 0 }
    }
}

impl DecisionLog {
    fn absorb(&mut self, d: &Decision) {
        let mut h = self.digest;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(d.epoch);
        eat(d.tenant);
        eat(u64::from(d.freq_mhz));
        eat(u64::from(d.rung.tag()));
        eat(d.predicted.to_bits());
        self.digest = h;
        self.count = self.count.wrapping_add(1);
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Decisions absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Aggregate server counters, every one surfaced in reports — overload,
/// eviction churn, and chaos recovery are observable events, not silent
/// behaviors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Epochs stepped.
    pub epochs: u64,
    /// Per-tenant decisions committed.
    pub decisions: u64,
    /// Fresh tenants admitted.
    pub admitted: u64,
    /// Cold tenants evicted to a held container.
    pub evictions: u64,
    /// Evicted tenants restored bit-exactly.
    pub restores: u64,
    /// Restore reads that failed CRC (torn) and were retried.
    pub torn_reads: u64,
    /// Tenants whose state was unrecoverable and were rebuilt cold
    /// (identity preserved, predictor reset).
    pub rebuilt_cold: u64,
    /// Tenants lost entirely. Nothing increments it now that the server
    /// holds evicted containers itself (a torn restore falls back to a
    /// cold rebuild, never to a loss), so it reads 0 by construction; it
    /// stays in the stats, the snapshot and the PCWR `Info` frame. The
    /// accounting check that can fail is [`crate::SoakReport::accounted`].
    pub lost_tenants: u64,
    /// Epochs whose full decision set fit under the power cap.
    pub cap_epochs_met: u64,
    /// Epochs where even all-floor demotion could not meet the cap.
    pub cap_epochs_missed: u64,
    /// Decisions per ladder rung: normal.
    pub rung_normal: u64,
    /// Decisions per ladder rung: hold.
    pub rung_hold: u64,
    /// Decisions per ladder rung: stall.
    pub rung_stall: u64,
    /// Decisions per ladder rung: safe-max.
    pub rung_safe: u64,
}

impl Snapshot for ServerStats {
    fn encode(&self, w: &mut Encoder) {
        let ServerStats {
            epochs,
            decisions,
            admitted,
            evictions,
            restores,
            torn_reads,
            rebuilt_cold,
            lost_tenants,
            cap_epochs_met,
            cap_epochs_missed,
            rung_normal,
            rung_hold,
            rung_stall,
            rung_safe,
        } = *self;
        for v in [
            epochs,
            decisions,
            admitted,
            evictions,
            restores,
            torn_reads,
            rebuilt_cold,
            lost_tenants,
            cap_epochs_met,
            cap_epochs_missed,
            rung_normal,
            rung_hold,
            rung_stall,
            rung_safe,
        ] {
            w.put_u64(v);
        }
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        Ok(ServerStats {
            epochs: r.take_u64()?,
            decisions: r.take_u64()?,
            admitted: r.take_u64()?,
            evictions: r.take_u64()?,
            restores: r.take_u64()?,
            torn_reads: r.take_u64()?,
            rebuilt_cold: r.take_u64()?,
            lost_tenants: r.take_u64()?,
            cap_epochs_met: r.take_u64()?,
            cap_epochs_missed: r.take_u64()?,
            rung_normal: r.take_u64()?,
            rung_hold: r.take_u64()?,
            rung_stall: r.take_u64()?,
            rung_safe: r.take_u64()?,
        })
    }
}

/// This epoch's deliveries: per tenant, the tier it submitted at and its
/// newest record.
type Inbox = BTreeMap<u64, (u8, TenantRecord)>;

/// A victim-heap key: the minimum is the coldest live tenant — one with
/// no delivery this epoch, then the oldest `last_active`, then the
/// smallest id.
type ColdKey = Reverse<(bool, u64, u64)>;

/// Decodes a held tenant container; `None` when its CRC or payload is bad.
fn decode_tenant(bytes: &[u8]) -> Option<TenantSession> {
    let reader = ContainerReader::parse(bytes).ok()?;
    let mut dec = reader.section("tenant").ok()?;
    TenantSession::decode(&mut dec).ok()
}

/// Demotion candidate for the cap arbiter's lazy heap. Ordered so the
/// *minimum* is the cheapest demotion: lowest perf-loss per watt saved,
/// ties to lower priority (higher tier), then higher id (`slot` ascends
/// with tenant id). `total_cmp` keeps the order total and deterministic.
#[derive(Debug, Clone, Copy)]
struct Demotion {
    score: f64,
    tier: u8,
    /// The tenant's position in this epoch's ascending live walk.
    slot: usize,
    from: usize,
    watts_saved: f64,
}

impl PartialEq for Demotion {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Demotion {}
impl PartialOrd for Demotion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Demotion {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.tier.cmp(&self.tier))
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

/// The multi-tenant policy server. See module docs for the epoch pipeline
/// and crate docs for the determinism argument.
#[derive(Debug)]
pub struct PolicyServer {
    cfg: ServerConfig,
    power: PowerModel,
    queues: IngestQueues,
    live: BTreeMap<u64, TenantSession>,
    /// Evicted tenant → its session in a CRC-checked container.
    evicted: BTreeMap<u64, Vec<u8>>,
    breaker: CircuitBreaker<u64>,
    supervision: KeyedSupervisionReport,
    stats: ServerStats,
    log: DecisionLog,
    epoch: u64,
}

impl PolicyServer {
    /// A fresh server. It steps every epoch on the calling thread: `pool`
    /// is unused, kept in the signature only for the benchmark harness,
    /// which still passes one.
    pub fn new(cfg: ServerConfig, _pool: Arc<WorkerPool>) -> Self {
        let queues = IngestQueues::new(cfg.tiers, cfg.queue_capacity);
        PolicyServer {
            power: PowerModel::new(PowerConfig::scaled_to(1)),
            breaker: CircuitBreaker::new(cfg.breaker_threshold),
            queues,
            live: BTreeMap::new(),
            evicted: BTreeMap::new(),
            supervision: KeyedSupervisionReport::default(),
            stats: ServerStats::default(),
            log: DecisionLog::default(),
            epoch: 0,
            cfg,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Ingest shed/accept accounting.
    pub fn shed_stats(&self) -> &ShedStats {
        self.queues.shed_stats()
    }

    /// Per-tenant supervision breakdown (breaker trips, restore retries,
    /// backoff) — `total` matches the aggregate, `per_key` attributes.
    pub fn supervision(&self) -> &KeyedSupervisionReport {
        &self.supervision
    }

    /// Live (in-memory) tenant count.
    pub fn live_tenants(&self) -> usize {
        self.live.len()
    }

    /// Ids of the live (in-memory) tenants, ascending. The wire gateway
    /// diffs this across epochs to turn admission/eviction churn into
    /// per-tenant notices.
    pub fn live_ids(&self) -> Vec<u64> {
        self.live.keys().copied().collect()
    }

    /// Ids of the evicted (held as containers) tenants, ascending.
    pub fn evicted_ids(&self) -> Vec<u64> {
        self.evicted.keys().copied().collect()
    }

    /// Evicted (held as containers) tenant count.
    pub fn evicted_tenants(&self) -> usize {
        self.evicted.len()
    }

    /// The next epoch to be stepped.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The running decision-log digest.
    pub fn decision_log(&self) -> DecisionLog {
        self.log
    }

    /// Submits one telemetry batch (backpressure applies; see
    /// [`IngestQueues`]).
    pub fn submit(&mut self, batch: TelemetryBatch) -> SubmitOutcome {
        self.queues.submit(batch)
    }

    /// Test/chaos hook: forcibly evicts a live tenant into a held
    /// container. Returns false if the tenant isn't live.
    pub fn evict_tenant(&mut self, tenant: u64) -> bool {
        let Some(sess) = self.live.remove(&tenant) else {
            return false;
        };
        #[cfg(test)]
        tests::EVICTIONS.with(|v| v.borrow_mut().push(tenant));
        let mut cw = ContainerWriter::new();
        cw.section("tenant", |w| sess.encode(w));
        self.evicted.insert(tenant, cw.finish());
        self.stats.evictions += 1;
        true
    }

    /// Moves an evicted tenant, taken out of `evicted` with its `held`
    /// container, back into the live set. A torn read flips a byte of a
    /// copy of the container, so the CRC catches it and the retry reads
    /// the intact bytes again.
    fn restore_tenant(&mut self, tenant: u64, tier: u8, epoch: u64, held: Vec<u8>) {
        let mut attempt = 0u32;
        let sess = loop {
            attempt += 1;
            let torn = self.cfg.torn_read_rate > 0.0
                && faults::draw(
                    self.cfg.seed,
                    epoch,
                    faults::channel::TORN,
                    tenant ^ (u64::from(attempt) << 48),
                ) < self.cfg.torn_read_rate;
            let decoded = if torn && !held.is_empty() {
                let mut bytes = held.clone();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                decode_tenant(&bytes)
            } else {
                decode_tenant(&held)
            };
            if let Some(sess) = decoded {
                self.stats.restores += 1;
                if attempt > 1 {
                    self.supervision
                        .record(tenant, &SupervisionReport { recovered: 1, ..Default::default() });
                }
                break sess;
            }
            self.stats.torn_reads += 1;
            if attempt > self.cfg.restore_retries {
                // Out of retries: the tenant keeps its identity but
                // restarts with a cold predictor. Never lost.
                self.stats.rebuilt_cold += 1;
                self.supervision
                    .record(tenant, &SupervisionReport { unrecovered: 1, ..Default::default() });
                break TenantSession::new(tenant, tier, epoch, self.cfg.ladder);
            }
            self.supervision.record(
                tenant,
                &SupervisionReport {
                    retries: 1,
                    backoff_ms: self.cfg.backoff.delay_ms(self.cfg.seed, tenant, attempt),
                    ..Default::default()
                },
            );
        };
        self.live.insert(tenant, sess);
    }

    /// Steps one epoch: drains ingest, admits/restores, updates breakers
    /// and observes, arbitrates under the power cap, commits, and returns
    /// this epoch's decisions in ascending tenant order.
    pub fn run_epoch(&mut self) -> Vec<Decision> {
        let inbox = self.drain();
        self.admit(&inbox);
        self.decide(&inbox)
    }

    /// Step 1, drain: per tenant keep the newest record; the tier of the
    /// highest-priority batch wins (drain order is priority order).
    fn drain(&mut self) -> Inbox {
        let mut inbox = Inbox::new();
        for batch in self.queues.drain() {
            for rec in batch.records {
                match inbox.get_mut(&batch.tenant) {
                    Some(slot) => {
                        if rec.epoch >= slot.1.epoch {
                            slot.1 = rec;
                        }
                    }
                    None => {
                        inbox.insert(batch.tenant, (batch.tier, rec));
                    }
                }
            }
        }
        inbox
    }

    /// Step 2, admission, in ascending tenant id. A full server evicts the
    /// coldest live tenant (see [`ColdKey`]) before each arrival. The
    /// victims come off one min-heap over the live sessions, built the
    /// first time this epoch needs a victim. Within the loop no live key
    /// changes, and each tenant that becomes live is pushed with its key
    /// (it delivered, so `true`), so every pop is the minimum over the
    /// current live set.
    fn admit(&mut self, inbox: &Inbox) {
        let epoch = self.epoch;
        let mut victims: Option<BinaryHeap<ColdKey>> = None;
        for (&tenant, &(tier, _)) in inbox {
            if self.live.contains_key(&tenant) {
                continue;
            }
            while self.live.len() >= self.cfg.max_live.max(1) {
                let heap = victims.get_or_insert_with(|| {
                    self.live
                        .values()
                        .map(|s| Reverse((inbox.contains_key(&s.id), s.last_active, s.id)))
                        .collect()
                });
                let Reverse((_, _, id)) =
                    heap.pop().expect("the victim heap holds every live tenant");
                self.evict_tenant(id);
            }
            if let Some(held) = self.evicted.remove(&tenant) {
                self.restore_tenant(tenant, tier, epoch, held);
            } else {
                self.live.insert(tenant, TenantSession::new(tenant, tier, epoch, self.cfg.ladder));
                self.stats.admitted += 1;
            }
            if let Some(heap) = &mut victims {
                heap.push(Reverse((true, self.live[&tenant].last_active, tenant)));
            }
        }
    }

    /// Steps 3–6 over the admitted live set; returns the decisions in
    /// ascending tenant order.
    fn decide(&mut self, inbox: &Inbox) -> Vec<Decision> {
        let epoch = self.epoch;
        // 3-4. Breakers and observe, one walk in ascending tenant id: each
        // tenant's delivery (or its absence) feeds its breaker, and the
        // session observes with the breaker's resulting open flag.
        // `requests` (and the arbiter's assignments) are parallel to this
        // walk.
        let states = &self.cfg.states;
        let mut requests = Vec::with_capacity(self.live.len());
        for (&t, sess) in self.live.iter_mut() {
            let delivery = inbox.get(&t).map(|(_, rec)| rec);
            let open = if delivery.is_some() {
                if self.breaker.is_open(&t) {
                    self.supervision
                        .record(t, &SupervisionReport { recovered: 1, ..Default::default() });
                }
                self.breaker.record_success(&t);
                false
            } else if self.breaker.record_failure(&t) {
                self.supervision
                    .record(t, &SupervisionReport { breaker_trips: 1, ..Default::default() });
                true
            } else {
                let open = self.breaker.is_open(&t);
                if open {
                    self.supervision
                        .record(t, &SupervisionReport { breaker_skips: 1, ..Default::default() });
                }
                open
            };
            requests.push(sess.observe_gated(epoch, delivery, open, states));
        }

        // 5. Arbitrate under the global power cap (serial).
        let assignments = self.arbitrate(&requests);

        // 6. Commit + log (serial, ascending tenant id).
        let mut out = Vec::with_capacity(requests.len());
        for (((&t, sess), req), &idx) in self.live.iter_mut().zip(&requests).zip(&assignments) {
            let predicted = req.curve.get(idx).copied().unwrap_or(0.0);
            sess.commit(idx, predicted);
            match req.rung {
                Rung::Normal => self.stats.rung_normal += 1,
                Rung::Hold => self.stats.rung_hold += 1,
                Rung::Stall => self.stats.rung_stall += 1,
                Rung::Safe => self.stats.rung_safe += 1,
            }
            let d = Decision {
                epoch,
                tenant: t,
                freq_mhz: self.cfg.states.as_slice()[idx].mhz(),
                rung: req.rung,
                predicted,
            };
            self.log.absorb(&d);
            out.push(d);
        }
        self.stats.decisions += out.len() as u64;
        self.stats.epochs += 1;
        self.epoch += 1;
        out
    }

    /// Predicted power draw of one tenant at grid index `idx`.
    fn tenant_power(&self, curve: &[f64], idx: usize) -> f64 {
        let epoch_s = self.cfg.epoch_us.max(1) as f64 * 1e-6;
        let ips = curve.get(idx).copied().unwrap_or(0.0) / epoch_s;
        self.power.cu_power_w(self.cfg.states.as_slice()[idx], ips)
    }

    /// The grid index each request gets, parallel to `requests` (one per
    /// live tenant, ascending id).
    fn arbitrate(&mut self, requests: &[Request]) -> Vec<usize> {
        let mut assignments: Vec<usize> =
            requests.iter().map(|r| r.desired.min(self.cfg.states.len() - 1)).collect();
        let cap = self.cfg.power_cap_w;
        let mut total: f64 =
            requests.iter().zip(&assignments).map(|(r, &a)| self.tenant_power(&r.curve, a)).sum();
        if total <= cap {
            self.stats.cap_epochs_met += 1;
            return assignments;
        }
        // Lazy-deletion min-heap of demotion candidates.
        let candidate = |req: &Request, slot: usize, tier: u8, from: usize| -> Option<Demotion> {
            if from == 0 {
                return None;
            }
            let p_hi = self.tenant_power(&req.curve, from);
            let p_lo = self.tenant_power(&req.curve, from - 1);
            let watts_saved = p_hi - p_lo;
            if watts_saved <= 0.0 {
                return None;
            }
            let loss = (req.curve[from] - req.curve[from - 1]).max(0.0);
            Some(Demotion { score: loss / watts_saved, tier, slot, from, watts_saved })
        };
        let mut heap: BinaryHeap<Reverse<Demotion>> = requests
            .iter()
            .zip(self.live.values())
            .enumerate()
            .filter_map(|(i, (r, s))| candidate(r, i, s.tier, assignments[i]))
            .map(Reverse)
            .collect();
        while total > cap {
            let Some(Reverse(d)) = heap.pop() else {
                // Everyone at the floor and still over cap.
                self.stats.cap_epochs_missed += 1;
                return assignments;
            };
            if assignments[d.slot] != d.from {
                continue; // stale entry
            }
            assignments[d.slot] = d.from - 1;
            total -= d.watts_saved;
            if let Some(next) = candidate(&requests[d.slot], d.slot, d.tier, d.from - 1) {
                heap.push(Reverse(next));
            }
        }
        self.stats.cap_epochs_met += 1;
        assignments
    }

    /// Serializes the complete server state — sessions, evicted tenants,
    /// breaker, supervision, queues, stats, and the decision digest — into
    /// one CRC-checked container. Restoring with [`PolicyServer::load_state`]
    /// continues the decision stream bit-exactly.
    pub fn save_state(&self) -> Vec<u8> {
        let mut cw = ContainerWriter::new();
        let cfg = &self.cfg;
        let epoch = self.epoch;
        cw.section("server-meta", |w| {
            w.put_u64(epoch);
            cfg.encode_into(w);
        });
        let live = &self.live;
        cw.section("sessions", |w| {
            w.put_usize(live.len());
            for sess in live.values() {
                sess.encode(w);
            }
        });
        // Evicted tenants travel as their held containers, each under its
        // tenant id, so the whole fleet is one artifact.
        let evicted = &self.evicted;
        cw.section("evicted", |w| {
            w.put_usize(evicted.len());
            for (&t, bytes) in evicted {
                w.put_u64(t);
                w.put_bytes(bytes);
            }
        });
        let breaker_entries = self.breaker.export_state();
        let threshold = self.breaker.threshold();
        cw.section("breaker", |w| {
            w.put_u32(threshold);
            w.put_usize(breaker_entries.len());
            for &(t, consecutive, open, trips) in &breaker_entries {
                w.put_u64(t);
                w.put_u32(consecutive);
                w.put_bool(open);
                w.put_u64(trips);
            }
        });
        let sup = &self.supervision;
        cw.section("supervision", |w| {
            encode_report(w, &sup.total);
            w.put_usize(sup.per_key.len());
            for (&t, rep) in &sup.per_key {
                w.put_u64(t);
                encode_report(w, rep);
            }
        });
        let queues = &self.queues;
        cw.section("queues", |w| queues.encode(w));
        let stats = self.stats;
        cw.section("stats", |w| stats.encode(w));
        let log = self.log;
        cw.section("log", |w| {
            w.put_u64(log.digest);
            w.put_u64(log.count);
        });
        cw.finish()
    }

    /// Rebuilds a server from [`PolicyServer::save_state`] bytes.
    pub fn load_state(bytes: &[u8]) -> Result<Self, SnapError> {
        let cr = ContainerReader::parse(bytes)?;
        let mut r = cr.section("server-meta")?;
        let epoch = r.take_u64()?;
        let cfg = ServerConfig::decode_from(&mut r)?;
        r.finish()?;

        let mut r = cr.section("sessions")?;
        let n = r.take_usize()?;
        let mut live = BTreeMap::new();
        for _ in 0..n {
            let sess = TenantSession::decode(&mut r)?;
            live.insert(sess.id, sess);
        }
        r.finish()?;

        let mut r = cr.section("evicted")?;
        let n = r.take_usize()?;
        let mut evicted = BTreeMap::new();
        for _ in 0..n {
            let t = r.take_u64()?;
            evicted.insert(t, r.take_bytes()?.to_vec());
        }
        r.finish()?;

        let mut r = cr.section("breaker")?;
        let threshold = r.take_u32()?;
        let n = r.take_usize()?;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            entries.push((r.take_u64()?, r.take_u32()?, r.take_bool()?, r.take_u64()?));
        }
        r.finish()?;
        let breaker = CircuitBreaker::restore_state(threshold, entries);

        let mut r = cr.section("supervision")?;
        let total = decode_report(&mut r)?;
        let n = r.take_usize()?;
        let mut per_key = BTreeMap::new();
        for _ in 0..n {
            per_key.insert(r.take_u64()?, decode_report(&mut r)?);
        }
        r.finish()?;

        let mut r = cr.section("queues")?;
        let queues = IngestQueues::decode(&mut r)?;
        r.finish()?;

        let mut r = cr.section("stats")?;
        let stats = ServerStats::decode(&mut r)?;
        r.finish()?;

        let mut r = cr.section("log")?;
        let log = DecisionLog { digest: r.take_u64()?, count: r.take_u64()? };
        r.finish()?;

        Ok(PolicyServer {
            power: PowerModel::new(PowerConfig::scaled_to(1)),
            cfg,
            queues,
            live,
            evicted,
            breaker,
            supervision: KeyedSupervisionReport { total, per_key },
            stats,
            log,
            epoch,
        })
    }
}

fn encode_report(w: &mut Encoder, rep: &SupervisionReport) {
    let SupervisionReport {
        timeouts,
        preemptions,
        retries,
        recovered,
        breaker_trips,
        breaker_skips,
        unrecovered,
        backoff_ms,
    } = *rep;
    for v in [
        timeouts,
        preemptions,
        retries,
        recovered,
        breaker_trips,
        breaker_skips,
        unrecovered,
        backoff_ms,
    ] {
        w.put_u64(v);
    }
}

fn decode_report(r: &mut Decoder) -> Result<SupervisionReport, SnapError> {
    Ok(SupervisionReport {
        timeouts: r.take_u64()?,
        preemptions: r.take_u64()?,
        retries: r.take_u64()?,
        recovered: r.take_u64()?,
        breaker_trips: r.take_u64()?,
        breaker_skips: r.take_u64()?,
        unrecovered: r.take_u64()?,
        backoff_ms: r.take_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use gpu_sim::time::Frequency;

    use super::*;
    use crate::telemetry::synth_record;

    thread_local! {
        /// Every tenant [`PolicyServer::evict_tenant`] evicts on this
        /// thread, in order.
        pub(super) static EVICTIONS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// Private draw channel for the schedules' silences, disjoint from
    /// `faults::channel` and the workload-synthesis channels.
    const SILENCE: u64 = 0x32;

    impl PolicyServer {
        /// The reference victim choice: a linear scan for the coldest live
        /// tenant, repeated for every eviction.
        fn evict_coldest(&mut self, inbox: &Inbox) {
            let victim = self
                .live
                .values()
                .map(|s| (inbox.contains_key(&s.id), s.last_active, s.id))
                .min()
                .map(|(_, _, id)| id);
            if let Some(id) = victim {
                self.evict_tenant(id);
            }
        }

        /// [`PolicyServer::run_epoch`] with admission on the reference
        /// victim choice.
        fn run_epoch_linear(&mut self) -> Vec<Decision> {
            let inbox = self.drain();
            let epoch = self.epoch;
            for (&tenant, &(tier, _)) in &inbox {
                if self.live.contains_key(&tenant) {
                    continue;
                }
                while self.live.len() >= self.cfg.max_live.max(1) {
                    self.evict_coldest(&inbox);
                }
                if let Some(held) = self.evicted.remove(&tenant) {
                    self.restore_tenant(tenant, tier, epoch, held);
                } else {
                    self.live
                        .insert(tenant, TenantSession::new(tenant, tier, epoch, self.cfg.ladder));
                    self.stats.admitted += 1;
                }
            }
            self.decide(&inbox)
        }
    }

    /// One admission schedule.
    struct Schedule {
        tenants: u64,
        max_live: usize,
        epochs: u64,
        /// Tenant `t` first submits at epoch `t / arrivals_per_epoch`
        /// (0: every tenant from epoch 0).
        arrivals_per_epoch: u64,
        /// Tenant `t` is silent in epoch `e` when `(t + e) % rotate == 0`.
        rotate: u64,
        /// Extra seeded silence probability per tenant and epoch.
        silence: f64,
        torn_read_rate: f64,
        restore_retries: u32,
        seed: u64,
    }

    /// Drives `s` through the heap admission and the linear reference in
    /// lockstep; returns the heap server's stats.
    fn same_victims(s: &Schedule) -> ServerStats {
        let cfg = ServerConfig {
            max_live: s.max_live,
            torn_read_rate: s.torn_read_rate,
            restore_retries: s.restore_retries,
            seed: s.seed,
            ..ServerConfig::default()
        };
        let pool = || Arc::new(WorkerPool::new(1));
        let mut heap = PolicyServer::new(cfg.clone(), pool());
        let mut linear = PolicyServer::new(cfg, pool());
        let states = FreqStates::paper();
        let mut cur = vec![states.min(); s.tenants as usize];
        for e in 0..s.epochs {
            for t in 0..s.tenants {
                let arrived = s.arrivals_per_epoch == 0 || t / s.arrivals_per_epoch <= e;
                let silent =
                    (t + e) % s.rotate == 0 || faults::draw(s.seed, e, SILENCE, t) < s.silence;
                if !arrived || silent {
                    continue;
                }
                let rec = synth_record(s.seed, t, e, cur[t as usize]);
                let batch = TelemetryBatch { tenant: t, tier: (t % 3) as u8, records: vec![rec] };
                heap.submit(batch.clone());
                linear.submit(batch);
            }
            let take = || EVICTIONS.with(|v| std::mem::take(&mut *v.borrow_mut()));
            let a = heap.run_epoch();
            let victims_a = take();
            let b = linear.run_epoch_linear();
            let victims_b = take();
            assert_eq!(victims_a, victims_b, "seed {} epoch {e}: victims differ", s.seed);
            assert_eq!(a, b, "seed {} epoch {e}: decisions differ", s.seed);
            assert_eq!(heap.live_ids(), linear.live_ids(), "seed {} epoch {e}", s.seed);
            assert_eq!(heap.evicted_ids(), linear.evicted_ids(), "seed {} epoch {e}", s.seed);
            for d in &a {
                cur[d.tenant as usize] = Frequency::from_mhz(d.freq_mhz);
            }
        }
        assert_eq!(heap.stats(), linear.stats());
        assert_eq!(heap.decision_log(), linear.decision_log());
        heap.stats()
    }

    #[test]
    fn victim_heap_evicts_exactly_the_repeated_linear_minimum() {
        let base = Schedule {
            tenants: 24,
            max_live: 16,
            epochs: 60,
            arrivals_per_epoch: 0,
            rotate: 4,
            silence: 0.1,
            torn_read_rate: 0.0,
            restore_retries: 3,
            seed: 0,
        };
        for seed in 0..4 {
            // Silent rotations: a quarter of the fleet goes quiet each
            // epoch and the returning tenants displace them.
            let st = same_victims(&Schedule { seed, ..base });
            assert!(st.evictions > 0 && st.restores > 0, "{st:?}");
            // Fresh arrivals past `max_live`: two new tenants per epoch.
            let st = same_victims(&Schedule {
                tenants: 48,
                max_live: 12,
                arrivals_per_epoch: 2,
                seed,
                ..base
            });
            assert_eq!(st.admitted, 48, "{st:?}");
            // One live slot: every arrival evicts, and a victim can be
            // restored later in the same admission pass.
            let st = same_victims(&Schedule {
                tenants: 5,
                max_live: 1,
                rotate: 3,
                silence: 0.3,
                seed,
                ..base
            });
            assert!(st.evictions > st.restores / 2, "{st:?}");
            // Torn reads with a single retry: some tenants are rebuilt
            // cold mid-admission.
            let st =
                same_victims(&Schedule { torn_read_rate: 0.6, restore_retries: 1, seed, ..base });
            assert!(st.torn_reads > 0 && st.rebuilt_cold > 0, "{st:?}");
        }
    }
}
