//! # faults — seeded, deterministic fault injection for the DVFS loop
//!
//! The reproduction's control loop is ideal by default: every performance
//! counter arrives on time and every V/f transition commits instantly.
//! This crate perturbs that loop at three points so the degradation
//! machinery (`pcstall::resilience`, the harness session) can be exercised
//! and measured:
//!
//! * **telemetry faults** — per-epoch counter dropout, staleness (the
//!   previous delivery is replayed) and bounded multiplicative noise,
//!   injected between the GPU and the estimators;
//! * **actuation faults** — dropped or delayed V/f transitions, transient
//!   thermal clamps that shrink the legal state set for K epochs, and
//!   extra PLL-relock settling layered on every applied transition;
//! * **harness faults** — [`PanicPlan`], a panicking-lane test hook for
//!   `exec::WorkerPool` quarantine coverage.
//!
//! ## Determinism
//!
//! Every fault decision is a **pure function** of `(seed, epoch, channel,
//! lane)` through a counter-based splitmix64 hash — no mutable RNG stream
//! exists, so decisions cannot depend on worker count or scheduling order.
//! The only stateful pieces (the thermal-clamp countdown, the fault
//! counters) advance once per epoch inside the session's serial loop and
//! are therefore equally deterministic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use gpu_sim::stats::EpochStats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Counter-based hashing RNG
// ---------------------------------------------------------------------------

/// Channel tags keep the per-epoch decision streams independent: the same
/// `(seed, epoch)` must not correlate a telemetry drop with an actuation
/// drop. Public so downstream consumers (the policy server's chaos soak)
/// can draw on their own channels through [`draw`] without colliding.
pub mod channel {
    /// Telemetry dropout.
    pub const TELEMETRY: u64 = 0x01;
    /// Telemetry staleness (previous delivery replayed).
    pub const STALE: u64 = 0x02;
    /// Whether this epoch's counters are noised.
    pub const NOISE: u64 = 0x03;
    /// Per-CU noise scale factors.
    pub const NOISE_SCALE: u64 = 0x04;
    /// Dropped V/f transitions.
    pub const ACTUATION: u64 = 0x05;
    /// Delayed V/f transitions.
    pub const ACT_DELAY: u64 = 0x06;
    /// Thermal-clamp event starts.
    pub const CLAMP: u64 = 0x07;
    /// Panicking-lane chaos ([`crate::PanicPlan`]).
    pub const CHAOS: u64 = 0x08;
    /// Hanging-lane chaos.
    pub const HANG: u64 = 0x09;
    /// Slow-lane chaos.
    pub const SLOW: u64 = 0x0A;
    /// Livelocking-lane chaos.
    pub const LIVELOCK: u64 = 0x0B;
    /// Storm-window placement (one draw per window, shared by every
    /// channel — that sharing is what correlates the burst).
    pub const STORM: u64 = 0x0C;
    /// Torn snapshot reads (consumed by the `serve` chaos soak).
    pub const TORN: u64 = 0x0D;
    /// Hung-tenant arming (consumed by the `serve` chaos soak).
    pub const TENANT_HANG: u64 = 0x0E;

    // Byte-stream transport faults (consumed by the `wire` duplex shim).
    // Disjoint from the serve synthesis channels (0x20–0x24) and the
    // scenarios fuzzer channel (0x5C).

    /// Mid-frame disconnect of a transport chunk.
    pub const STREAM_DISCONNECT: u64 = 0x30;
    /// Single-byte corruption of a transport chunk.
    pub const STREAM_CORRUPT: u64 = 0x31;
    /// Silent loss of a whole transport chunk.
    pub const STREAM_DROP: u64 = 0x32;
    /// Duplicate delivery of a transport chunk.
    pub const STREAM_DUP: u64 = 0x33;
    /// Deferred delivery (chunk held and prepended to the next one).
    pub const STREAM_DELAY: u64 = 0x34;
    /// Split delivery (chunk arrives in two pieces).
    pub const STREAM_SPLIT: u64 = 0x35;
    /// Fractional offset picker for corrupt/split/disconnect positions.
    pub const STREAM_OFFSET: u64 = 0x36;
}

/// splitmix64 finalizer: a high-quality 64-bit mixing permutation.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform sample in `[0, 1)` that is a pure function of its inputs —
/// the crate's counter-based RNG, exported so downstream seeded decisions
/// (tenant workload synthesis, torn-read schedules) stay in the same
/// deterministic domain instead of growing private RNG copies.
pub fn draw(seed: u64, epoch: u64, chan: u64, lane: u64) -> f64 {
    unit(seed, epoch, chan, lane)
}

/// A uniform sample in `[0, 1)` that is a pure function of its inputs.
fn unit(seed: u64, epoch: u64, chan: u64, lane: u64) -> f64 {
    let a = mix64(seed ^ 0x6A09_E667_F3BC_C909);
    let b = mix64(a ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let c = mix64(b ^ chan.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let h = mix64(c ^ lane.wrapping_mul(0xA0761D6478BD642F));
    // 53 uniform mantissa bits.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Fault rates and magnitudes. All-zero (the [`Default`]) is a strict
/// no-op: [`FaultConfig::is_noop`] returns true and an injector built from
/// it never perturbs anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Per-epoch probability that telemetry is lost entirely.
    pub telemetry_drop: f64,
    /// Per-epoch probability that the previous delivery is replayed
    /// instead of fresh counters (staleness).
    pub telemetry_stale: f64,
    /// Per-epoch probability that delivered counters carry multiplicative
    /// noise.
    pub telemetry_noise: f64,
    /// Maximum relative perturbation of noisy counters, in `[0, 1)`
    /// (each CU's committed count is scaled by `1 ± bound`).
    pub noise_bound: f64,
    /// Per-domain-epoch probability that a commanded V/f transition is
    /// silently dropped (the domain stays at its old state).
    pub actuation_drop: f64,
    /// Per-domain-epoch probability that a transition commits but settles
    /// slowly (costing [`FaultConfig::extra_settle_ns`] on top of the
    /// epoch's transition latency).
    pub actuation_delay: f64,
    /// Extra settling time of a delayed transition, in nanoseconds.
    pub extra_settle_ns: u64,
    /// Extra PLL-relock settling added to *every* applied transition, in
    /// nanoseconds (models a non-ideal PLL; 0 = ideal).
    pub relock_ns: u64,
    /// Per-epoch probability that a transient thermal clamp event starts.
    pub clamp_rate: f64,
    /// Duration of a clamp event, in epochs.
    pub clamp_epochs: u32,
    /// Number of lowest frequency states that stay legal while clamped.
    pub clamp_states: u32,
    /// Per-grid-cell probability that the cell's lane hangs (parks until a
    /// watchdog cancels it). A *harness-level* chaos channel consumed via
    /// [`ChaosPlan`], not by the in-loop injector.
    pub hang_rate: f64,
    /// Per-grid-cell probability that the cell's lane is slow (stalls
    /// [`FaultConfig::slow_ms`] wall-clock milliseconds before running).
    pub slow_rate: f64,
    /// Wall-clock stall of a slow lane, in milliseconds.
    pub slow_ms: u64,
    /// Per-grid-cell probability that the cell's lane livelocks (burns CPU
    /// without progress until cancelled).
    pub livelock_rate: f64,
    /// Storm window length in epochs (0 disables the storm profile and
    /// every channel fires independently at its base rate, exactly as
    /// before this field existed).
    pub storm_period: u32,
    /// Burst length in epochs within each window. The burst's placement
    /// inside the window is drawn once per window on
    /// [`channel::STORM`] and shared by *every* channel — inside the burst
    /// all rates are boosted together, which is what makes storm faults
    /// cross-channel correlated rather than independent.
    pub storm_burst: u32,
    /// Rate multiplier inside a burst (clamped so probabilities stay ≤ 1).
    pub storm_boost: f64,
    /// Rate multiplier outside bursts (< 1 keeps the long-run mean near
    /// the base rate while concentrating faults into bursts).
    pub storm_calm: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            telemetry_drop: 0.0,
            telemetry_stale: 0.0,
            telemetry_noise: 0.0,
            noise_bound: 0.0,
            actuation_drop: 0.0,
            actuation_delay: 0.0,
            extra_settle_ns: 0,
            relock_ns: 0,
            clamp_rate: 0.0,
            clamp_epochs: 0,
            clamp_states: 0,
            hang_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            livelock_rate: 0.0,
            storm_period: 0,
            storm_burst: 0,
            storm_boost: 1.0,
            storm_calm: 1.0,
        }
    }
}

impl FaultConfig {
    /// A proportional fault profile: one knob scales every channel. At
    /// `rate` the telemetry channels drop/noise with probability `rate`,
    /// actuation misbehaves at half that, and thermal clamps (rare, long
    /// events on real parts) trigger at a tenth of it for 5 epochs.
    pub fn profile(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        FaultConfig {
            seed,
            telemetry_drop: rate,
            telemetry_stale: rate / 2.0,
            telemetry_noise: rate,
            noise_bound: 0.15,
            actuation_drop: rate / 2.0,
            actuation_delay: rate / 2.0,
            extra_settle_ns: 20,
            relock_ns: 0,
            clamp_rate: rate / 10.0,
            clamp_epochs: 5,
            clamp_states: 3,
            // Chaos channels are opt-in (explicit keys), not part of the
            // proportional profile: hanging whole lanes is a supervision
            // stressor, not a control-loop degradation.
            hang_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            livelock_rate: 0.0,
            storm_period: 0,
            storm_burst: 0,
            storm_boost: 1.0,
            storm_calm: 1.0,
        }
    }

    /// A storm profile: the proportional profile's rates, but concentrated
    /// into seeded bursts. Each 32-epoch window hides one 8-epoch burst at
    /// a seeded offset during which every channel fires at 3× its base
    /// rate; between bursts channels idle at ¼ rate. The long-run mean
    /// stays near `rate` (8·3 + 24·0.25 = 30 of 32 epoch-equivalents) but
    /// faults arrive correlated across channels and clustered in time —
    /// the regime that defeats independent-failure assumptions.
    pub fn storm(rate: f64, seed: u64) -> Self {
        FaultConfig {
            storm_period: 32,
            storm_burst: 8,
            storm_boost: 3.0,
            storm_calm: 0.25,
            ..FaultConfig::profile(rate, seed)
        }
    }

    /// Whether `epoch` falls inside this configuration's storm burst.
    /// Always false when the storm profile is disabled. Pure function of
    /// `(seed, epoch, storm geometry)`: the burst offset within each
    /// window is one [`channel::STORM`] draw on the window index, so all
    /// channels (and all lanes) share the same burst schedule.
    pub fn storm_active(&self, epoch: u64) -> bool {
        if self.storm_period == 0 || self.storm_burst == 0 {
            return false;
        }
        let period = u64::from(self.storm_period);
        let burst = u64::from(self.storm_burst).min(period);
        let window = epoch / period;
        let slack = period - burst;
        let offset = (unit(self.seed, window, channel::STORM, 0) * (slack + 1) as f64) as u64;
        let pos = epoch % period;
        pos >= offset && pos < offset + burst
    }

    /// The rate a channel with base probability `base` fires at during
    /// `epoch`, after storm modulation. Identical to `base` when the storm
    /// profile is disabled, so pre-storm fault streams are bit-identical.
    pub fn effective_rate(&self, base: f64, epoch: u64) -> f64 {
        if base == 0.0 || self.storm_period == 0 || self.storm_burst == 0 {
            return base;
        }
        let factor = if self.storm_active(epoch) { self.storm_boost } else { self.storm_calm };
        (base * factor).clamp(0.0, 1.0)
    }

    /// Whether this configuration can never perturb the *control loop*.
    /// The harness-level chaos channels (`hang`/`slow`/`livelock`) are
    /// deliberately excluded: they stress the supervision layer around the
    /// loop, not the loop itself, and are consumed via [`ChaosPlan`].
    pub fn is_noop(&self) -> bool {
        self.telemetry_drop == 0.0
            && self.telemetry_stale == 0.0
            && self.telemetry_noise == 0.0
            && self.actuation_drop == 0.0
            && self.actuation_delay == 0.0
            && self.relock_ns == 0
            && self.clamp_rate == 0.0
    }

    /// Parses a `key=value,...` fault specification (the CLI `--faults`
    /// format). `rate=R` expands to [`FaultConfig::profile`] first;
    /// later keys override individual fields. Recognized keys:
    ///
    /// `rate`, `storm`, `seed`, `drop`, `stale`, `noise`, `noise_bound`,
    /// `act_drop`, `act_delay`, `settle_ns`, `relock_ns`, `clamp`,
    /// `clamp_epochs`, `clamp_states`, `hang`, `slow`, `slow_ms`,
    /// `livelock`, `storm_period`, `storm_burst`, `storm_boost`,
    /// `storm_calm`. `storm=R` expands to [`FaultConfig::storm`] the way
    /// `rate=R` expands to [`FaultConfig::profile`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] on unknown keys, malformed numbers or
    /// out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<FaultConfig, FaultSpecError> {
        let mut cfg = FaultConfig::default();
        // `rate` and `seed` apply first regardless of position so a profile
        // never clobbers an explicit per-channel override.
        let pairs: Vec<(&str, &str)> = spec
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| {
                p.split_once('=')
                    .map(|(k, v)| (k.trim(), v.trim()))
                    .ok_or_else(|| FaultSpecError(format!("expected key=value, got `{p}`")))
            })
            .collect::<Result<_, _>>()?;
        let prob = |key: &str, v: &str| -> Result<f64, FaultSpecError> {
            let p: f64 = v
                .parse()
                .map_err(|_| FaultSpecError(format!("`{key}` needs a number, got `{v}`")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultSpecError(format!("`{key}` must be in [0, 1], got {p}")));
            }
            Ok(p)
        };
        let int = |key: &str, v: &str| -> Result<u64, FaultSpecError> {
            v.parse().map_err(|_| FaultSpecError(format!("`{key}` needs an integer, got `{v}`")))
        };
        for &(k, v) in &pairs {
            if k == "seed" {
                cfg.seed = int(k, v)?;
            }
        }
        for &(k, v) in &pairs {
            if k == "rate" {
                cfg = FaultConfig { seed: cfg.seed, ..FaultConfig::profile(prob(k, v)?, cfg.seed) };
            } else if k == "storm" {
                cfg = FaultConfig { seed: cfg.seed, ..FaultConfig::storm(prob(k, v)?, cfg.seed) };
            }
        }
        for &(k, v) in &pairs {
            match k {
                "seed" | "rate" | "storm" => {}
                "drop" => cfg.telemetry_drop = prob(k, v)?,
                "stale" => cfg.telemetry_stale = prob(k, v)?,
                "noise" => cfg.telemetry_noise = prob(k, v)?,
                "noise_bound" => cfg.noise_bound = prob(k, v)?,
                "act_drop" => cfg.actuation_drop = prob(k, v)?,
                "act_delay" => cfg.actuation_delay = prob(k, v)?,
                "settle_ns" => cfg.extra_settle_ns = int(k, v)?,
                "relock_ns" => cfg.relock_ns = int(k, v)?,
                "clamp" => cfg.clamp_rate = prob(k, v)?,
                "clamp_epochs" => cfg.clamp_epochs = int(k, v)? as u32,
                "clamp_states" => cfg.clamp_states = int(k, v)? as u32,
                "hang" => cfg.hang_rate = prob(k, v)?,
                "slow" => cfg.slow_rate = prob(k, v)?,
                "slow_ms" => cfg.slow_ms = int(k, v)?,
                "livelock" => cfg.livelock_rate = prob(k, v)?,
                "storm_period" => cfg.storm_period = int(k, v)? as u32,
                "storm_burst" => cfg.storm_burst = int(k, v)? as u32,
                "storm_boost" => {
                    cfg.storm_boost = v
                        .parse()
                        .map_err(|_| FaultSpecError(format!("`{k}` needs a number, got `{v}`")))?;
                }
                "storm_calm" => {
                    cfg.storm_calm = v
                        .parse()
                        .map_err(|_| FaultSpecError(format!("`{k}` needs a number, got `{v}`")))?;
                }
                other => {
                    return Err(FaultSpecError(format!("unknown fault key `{other}`")));
                }
            }
        }
        Ok(cfg)
    }
}

/// Which one-knob fault profile a rate expands to — shared by
/// `resilience_sweep`, the chaos soak, and the CLI so the same profile
/// name means the same fault process everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Independent per-channel firing ([`FaultConfig::profile`]).
    Proportional,
    /// Seeded bursty, cross-channel-correlated windows
    /// ([`FaultConfig::storm`]).
    Storm,
}

impl FaultProfile {
    /// Builds the profile's [`FaultConfig`] at `rate`.
    pub fn build(self, rate: f64, seed: u64) -> FaultConfig {
        match self {
            FaultProfile::Proportional => FaultConfig::profile(rate, seed),
            FaultProfile::Storm => FaultConfig::storm(rate, seed),
        }
    }

    /// Short name for report rows and filenames.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::Proportional => "proportional",
            FaultProfile::Storm => "storm",
        }
    }
}

/// A malformed `--faults` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

/// What happened to this epoch's telemetry delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// Fresh counters arrive.
    Deliver,
    /// The previous delivery is replayed.
    Stale,
    /// Nothing arrives.
    Lost,
}

/// What happened to one domain's commanded V/f transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationEvent {
    /// The transition commits normally.
    Apply,
    /// The transition is silently dropped; the domain keeps its old state.
    Dropped,
    /// The transition commits but settles slowly.
    Delayed,
}

/// How often each fault class fired during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Epochs whose telemetry was lost.
    pub telemetry_dropped: u64,
    /// Epochs that received a stale replay.
    pub telemetry_stale: u64,
    /// Epochs whose delivered counters were noised.
    pub telemetry_noisy: u64,
    /// Domain-epochs whose V/f transition was dropped.
    pub actuation_dropped: u64,
    /// Domain-epochs whose V/f transition settled slowly.
    pub actuation_delayed: u64,
    /// Epochs spent under a thermal clamp.
    pub clamped_epochs: u64,
}

/// Fault counters ride in sweep resume journals alongside the run results
/// they explain.
impl snapshot::Snapshot for FaultCounts {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let FaultCounts {
            telemetry_dropped,
            telemetry_stale,
            telemetry_noisy,
            actuation_dropped,
            actuation_delayed,
            clamped_epochs,
        } = *self;
        w.put_u64(telemetry_dropped);
        w.put_u64(telemetry_stale);
        w.put_u64(telemetry_noisy);
        w.put_u64(actuation_dropped);
        w.put_u64(actuation_delayed);
        w.put_u64(clamped_epochs);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(FaultCounts {
            telemetry_dropped: r.take_u64()?,
            telemetry_stale: r.take_u64()?,
            telemetry_noisy: r.take_u64()?,
            actuation_dropped: r.take_u64()?,
            actuation_delayed: r.take_u64()?,
            clamped_epochs: r.take_u64()?,
        })
    }
}

impl FaultCounts {
    /// Total fault events of any class.
    pub fn total(&self) -> u64 {
        self.telemetry_dropped
            + self.telemetry_stale
            + self.telemetry_noisy
            + self.actuation_dropped
            + self.actuation_delayed
            + self.clamped_epochs
    }
}

/// Draws this run's fault events from a [`FaultConfig`]. One injector per
/// session; its methods are called from the session's serial epoch loop.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    /// Remaining epochs of the active thermal-clamp event (0 = none).
    clamp_left: u32,
    counts: FaultCounts,
}

impl FaultInjector {
    /// An injector drawing from `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg, clamp_left: 0, counts: FaultCounts::default() }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Event counters accumulated so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Draws the telemetry delivery outcome for `epoch`. Loss shadows
    /// staleness (a dropped packet can't also be replayed).
    pub fn telemetry_event(&mut self, epoch: u64) -> TelemetryEvent {
        self.telemetry_event_for(epoch, 0)
    }

    /// Per-lane variant of [`FaultInjector::telemetry_event`]: `lane`
    /// decorrelates the drop/stale draws across independent telemetry
    /// streams (the policy server uses one lane per tenant) while the
    /// storm windows — drawn on the epoch alone — stay shared, so a burst
    /// hits many tenants at once.
    pub fn telemetry_event_for(&mut self, epoch: u64, lane: u64) -> TelemetryEvent {
        let s = self.cfg.seed;
        let drop = self.cfg.effective_rate(self.cfg.telemetry_drop, epoch);
        if drop > 0.0 && unit(s, epoch, channel::TELEMETRY, lane) < drop {
            self.counts.telemetry_dropped += 1;
            return TelemetryEvent::Lost;
        }
        let stale = self.cfg.effective_rate(self.cfg.telemetry_stale, epoch);
        if stale > 0.0 && unit(s, epoch, channel::STALE, lane) < stale {
            self.counts.telemetry_stale += 1;
            return TelemetryEvent::Stale;
        }
        TelemetryEvent::Deliver
    }

    /// Perturbs a delivered epoch's counters in place with bounded
    /// multiplicative noise (per-CU factors in `1 ± noise_bound`, applied
    /// to CU and per-wavefront committed counts). Returns whether noise
    /// fired this epoch.
    pub fn apply_noise(&mut self, epoch: u64, stats: &mut EpochStats) -> bool {
        let s = self.cfg.seed;
        let noise = self.cfg.effective_rate(self.cfg.telemetry_noise, epoch);
        if noise == 0.0 || unit(s, epoch, channel::NOISE, 0) >= noise {
            return false;
        }
        self.counts.telemetry_noisy += 1;
        for (cu_idx, cu) in stats.cus.iter_mut().enumerate() {
            let u = unit(s, epoch, channel::NOISE_SCALE, cu_idx as u64);
            let factor = 1.0 + self.cfg.noise_bound * (2.0 * u - 1.0);
            cu.committed = ((cu.committed as f64) * factor).round().max(0.0) as u64;
            for wf in &mut cu.wf {
                wf.committed = ((wf.committed as f64) * factor).round().max(0.0) as u32;
            }
        }
        true
    }

    /// Draws one domain's actuation outcome for `epoch`.
    pub fn actuation_event(&mut self, epoch: u64, domain: u64) -> ActuationEvent {
        let s = self.cfg.seed;
        let drop = self.cfg.effective_rate(self.cfg.actuation_drop, epoch);
        if drop > 0.0 && unit(s, epoch, channel::ACTUATION, domain) < drop {
            self.counts.actuation_dropped += 1;
            return ActuationEvent::Dropped;
        }
        let delay = self.cfg.effective_rate(self.cfg.actuation_delay, epoch);
        if delay > 0.0 && unit(s, epoch, channel::ACT_DELAY, domain) < delay {
            self.counts.actuation_delayed += 1;
            return ActuationEvent::Delayed;
        }
        ActuationEvent::Apply
    }

    /// Advances the thermal-clamp state machine by one epoch. Returns the
    /// number of (lowest) states that remain legal while a clamp event is
    /// active, or `None` when unclamped. Call exactly once per epoch.
    pub fn clamp_tick(&mut self, epoch: u64, n_states: usize) -> Option<usize> {
        let clamp = self.cfg.effective_rate(self.cfg.clamp_rate, epoch);
        if self.clamp_left == 0
            && clamp > 0.0
            && unit(self.cfg.seed, epoch, channel::CLAMP, 0) < clamp
        {
            self.clamp_left = self.cfg.clamp_epochs.max(1);
        }
        if self.clamp_left == 0 {
            return None;
        }
        self.clamp_left -= 1;
        self.counts.clamped_epochs += 1;
        Some((self.cfg.clamp_states.max(1) as usize).min(n_states))
    }
}

// ---------------------------------------------------------------------------
// Harness chaos hook
// ---------------------------------------------------------------------------

/// A panicking-lane test hook: panics at most once per armed item index,
/// so a quarantining pool's resubmission succeeds and the run completes
/// with results identical to a panic-free run.
#[derive(Debug)]
pub struct PanicPlan {
    armed: Mutex<BTreeSet<usize>>,
}

impl PanicPlan {
    /// Arms the given item indices.
    pub fn for_indices(indices: impl IntoIterator<Item = usize>) -> Self {
        PanicPlan { armed: Mutex::new(indices.into_iter().collect()) }
    }

    /// Arms each of `n_items` indices independently with probability
    /// `rate`, deterministically from `seed`.
    pub fn seeded(seed: u64, rate: f64, n_items: usize) -> Self {
        Self::for_indices((0..n_items).filter(|&i| unit(seed, i as u64, channel::CHAOS, 0) < rate))
    }

    /// Fires the hook for one item: panics if (and only if) `item` is
    /// still armed, disarming it first so a retry survives.
    ///
    /// # Panics
    ///
    /// Panics on the first call per armed index — that is its job.
    pub fn fire(&self, item: usize) {
        let hit = {
            let mut armed = self.armed.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            armed.remove(&item)
        };
        if hit {
            panic!("injected lane fault on item {item}");
        }
    }

    /// Indices still armed (not yet fired).
    pub fn remaining(&self) -> usize {
        self.armed.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }
}

/// One injected harness-level chaos behavior for a grid cell's lane.
///
/// The plan only *decides* (deterministically); the harness *executes* the
/// behavior — hanging parks on the lane's cancel token, slowness stalls a
/// bounded wall-clock interval, livelock spins checking for cancellation —
/// so this crate stays free of wall-clock and threading concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The lane blocks indefinitely (until a watchdog cancels it).
    Hang,
    /// The lane stalls for the plan's `slow_ms` before doing its work.
    Slow,
    /// The lane busy-loops without progress (until cancelled).
    Livelock,
}

/// Fire counter meaning "every attempt" (the event never disarms).
pub const CHAOS_PERSISTENT: u32 = u32::MAX;

/// Seeded, deterministic per-item chaos schedule for a supervised grid.
///
/// Which items misbehave, and how, is a pure function of `(seed, item,
/// channel)` through the same counter RNG as every other fault decision —
/// bit-identical across thread counts and reruns. Each armed event fires a
/// configured number of attempts (default once, so a retried item
/// succeeds), or forever with [`CHAOS_PERSISTENT`] for circuit-breaker
/// coverage. [`ChaosPlan::take`] is the consumption point: first-come
/// multi-thread access is safe because each item index is its own key.
#[derive(Debug)]
pub struct ChaosPlan {
    armed: Mutex<BTreeMap<usize, (ChaosEvent, u32)>>,
    slow_ms: u64,
}

impl ChaosPlan {
    /// Draws the schedule for `n_items` grid cells from `cfg`'s chaos
    /// rates (`hang_rate` shadows `slow_rate` shadows `livelock_rate` on
    /// the same index, each drawn on its own channel). Every armed event
    /// fires once.
    pub fn from_config(cfg: &FaultConfig, n_items: usize) -> Self {
        let mut armed = BTreeMap::new();
        for i in 0..n_items {
            let idx = i as u64;
            let ev = if cfg.hang_rate > 0.0 && unit(cfg.seed, idx, channel::HANG, 0) < cfg.hang_rate
            {
                Some(ChaosEvent::Hang)
            } else if cfg.slow_rate > 0.0 && unit(cfg.seed, idx, channel::SLOW, 0) < cfg.slow_rate {
                Some(ChaosEvent::Slow)
            } else if cfg.livelock_rate > 0.0
                && unit(cfg.seed, idx, channel::LIVELOCK, 0) < cfg.livelock_rate
            {
                Some(ChaosEvent::Livelock)
            } else {
                None
            };
            if let Some(ev) = ev {
                armed.insert(i, (ev, 1));
            }
        }
        ChaosPlan { armed: Mutex::new(armed), slow_ms: cfg.slow_ms }
    }

    /// An explicit schedule: `(item, event, fires)` triples (`fires` =
    /// [`CHAOS_PERSISTENT`] never disarms). For tests that need exact
    /// shapes rather than sampled rates.
    pub fn with_events(
        events: impl IntoIterator<Item = (usize, ChaosEvent, u32)>,
        slow_ms: u64,
    ) -> Self {
        ChaosPlan {
            armed: Mutex::new(events.into_iter().map(|(i, ev, n)| (i, (ev, n))).collect()),
            slow_ms,
        }
    }

    /// Consumes one firing for `item`: returns the armed event and
    /// decrements its fire budget (persistent events never exhaust).
    /// `None` once disarmed or never armed.
    pub fn take(&self, item: usize) -> Option<ChaosEvent> {
        let mut armed = self.armed.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (ev, fires) = armed.get_mut(&item)?;
        let ev = *ev;
        if *fires != CHAOS_PERSISTENT {
            *fires -= 1;
            if *fires == 0 {
                armed.remove(&item);
            }
        }
        Some(ev)
    }

    /// Items still armed.
    pub fn remaining(&self) -> usize {
        self.armed.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Wall-clock stall a [`ChaosEvent::Slow`] lane should execute, in
    /// milliseconds.
    pub fn slow_ms(&self) -> u64 {
        self.slow_ms
    }
}

// ---------------------------------------------------------------------------
// Byte-stream transport faults
// ---------------------------------------------------------------------------

/// Seeded faults for a byte-stream transport (the `wire` duplex shim):
/// chunk-granular drop/split/duplicate/delay/corrupt plus mid-frame
/// disconnects. Like every other plan in this crate the decision for a
/// given chunk is a pure function of `(seed, link, chunk)` — no mutable
/// RNG state — so a chaos run injects the identical fault pattern at any
/// thread count and across processes.
pub mod stream {
    use super::{channel, draw};

    /// Per-chunk fault rates for one simulated link direction. All-zero
    /// (the [`Default`]) is a strict no-op. At most one action fires per
    /// chunk; the precedence is disconnect > corrupt > drop > duplicate >
    /// delay > split, mirroring how destructive each fault is.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct StreamFaultConfig {
        /// Seed for every stream-fault channel.
        pub seed: u64,
        /// Probability a chunk delivery dies mid-chunk (connection reset
        /// after a prefix of the bytes).
        pub disconnect_rate: f64,
        /// Probability one byte of the chunk is bit-flipped.
        pub corrupt_rate: f64,
        /// Probability the chunk is silently lost.
        pub drop_rate: f64,
        /// Probability the chunk is delivered twice.
        pub dup_rate: f64,
        /// Probability the chunk is held and delivered with the next one.
        pub delay_rate: f64,
        /// Probability the chunk arrives in two pieces.
        pub split_rate: f64,
    }

    impl Default for StreamFaultConfig {
        fn default() -> Self {
            StreamFaultConfig {
                seed: 0,
                disconnect_rate: 0.0,
                corrupt_rate: 0.0,
                drop_rate: 0.0,
                dup_rate: 0.0,
                delay_rate: 0.0,
                split_rate: 0.0,
            }
        }
    }

    impl StreamFaultConfig {
        /// A quiet link: faults armed with a seed but every rate zero.
        pub fn quiet(seed: u64) -> Self {
            StreamFaultConfig { seed, ..StreamFaultConfig::default() }
        }

        /// A chaos mix scaled by `rate`: mostly splits and delays (benign
        /// reordering-free stream perturbations), a solid share of
        /// corruption and duplication, and a trickle of drops and
        /// mid-frame disconnects — every failure class armed at once.
        pub fn chaos(rate: f64, seed: u64) -> Self {
            StreamFaultConfig {
                seed,
                disconnect_rate: rate * 0.15,
                corrupt_rate: rate * 0.5,
                drop_rate: rate * 0.3,
                dup_rate: rate * 0.5,
                delay_rate: rate * 0.7,
                split_rate: rate,
            }
        }

        /// True when no fault can ever fire.
        pub fn is_noop(&self) -> bool {
            self.disconnect_rate <= 0.0
                && self.corrupt_rate <= 0.0
                && self.drop_rate <= 0.0
                && self.dup_rate <= 0.0
                && self.delay_rate <= 0.0
                && self.split_rate <= 0.0
        }
    }

    /// What happens to one transport chunk. Positions are carried as a
    /// fraction of the chunk length so the same decision applies cleanly
    /// to chunks of any size.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum StreamAction {
        /// Chunk delivered untouched.
        Deliver,
        /// Connection dies after `frac` of the chunk's bytes.
        Disconnect {
            /// Fraction of the chunk delivered before the reset, in `[0, 1)`.
            frac: f64,
        },
        /// One byte at fraction `frac` of the chunk gets bit `bit` flipped.
        Corrupt {
            /// Fractional byte position in `[0, 1)`.
            frac: f64,
            /// Bit index flipped, in `0..8`.
            bit: u8,
        },
        /// Chunk silently lost.
        Drop,
        /// Chunk delivered twice back to back.
        Duplicate,
        /// Chunk held and delivered in front of the next chunk.
        Delay,
        /// Chunk delivered in two pieces split at fraction `frac`.
        Split {
            /// Fractional split position in `[0, 1)`.
            frac: f64,
        },
    }

    /// The fault decision for chunk number `chunk` on link `link` — a pure
    /// function of its inputs (see module docs on [`crate::draw`]). Link
    /// identity conventionally folds the connection id and direction
    /// (`conn * 2 + dir`) so the two directions of one connection draw
    /// independent faults.
    pub fn stream_action(cfg: &StreamFaultConfig, link: u64, chunk: u64) -> StreamAction {
        let d = |chan: u64| draw(cfg.seed, chunk, chan, link);
        let frac = d(channel::STREAM_OFFSET);
        if d(channel::STREAM_DISCONNECT) < cfg.disconnect_rate {
            return StreamAction::Disconnect { frac };
        }
        if d(channel::STREAM_CORRUPT) < cfg.corrupt_rate {
            let bit = (frac * 8.0) as u8 & 7;
            return StreamAction::Corrupt { frac, bit };
        }
        if d(channel::STREAM_DROP) < cfg.drop_rate {
            return StreamAction::Drop;
        }
        if d(channel::STREAM_DUP) < cfg.dup_rate {
            return StreamAction::Duplicate;
        }
        if d(channel::STREAM_DELAY) < cfg.delay_rate {
            return StreamAction::Delay;
        }
        if d(channel::STREAM_SPLIT) < cfg.split_rate {
            return StreamAction::Split { frac };
        }
        StreamAction::Deliver
    }

    /// FNV-1a hash over the action stream for links `0..links`, chunks
    /// `0..chunks` — the counter-hash purity witness the determinism test
    /// pins (same style as the scenario fuzzer's corpus digest).
    pub fn action_stream_digest(cfg: &StreamFaultConfig, links: u64, chunks: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for link in 0..links {
            for chunk in 0..chunks {
                let (tag, a, b) = match stream_action(cfg, link, chunk) {
                    StreamAction::Deliver => (0u64, 0u64, 0u64),
                    StreamAction::Disconnect { frac } => (1, frac.to_bits(), 0),
                    StreamAction::Corrupt { frac, bit } => (2, frac.to_bits(), u64::from(bit)),
                    StreamAction::Drop => (3, 0, 0),
                    StreamAction::Duplicate => (4, 0, 0),
                    StreamAction::Delay => (5, 0, 0),
                    StreamAction::Split { frac } => (6, frac.to_bits(), 0),
                };
                eat(tag);
                eat(a);
                eat(b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic_and_uniform_ish() {
        assert_eq!(unit(7, 3, 1, 0), unit(7, 3, 1, 0));
        assert_ne!(unit(7, 3, 1, 0), unit(7, 4, 1, 0));
        assert_ne!(unit(7, 3, 1, 0), unit(8, 3, 1, 0));
        assert_ne!(unit(7, 3, 1, 0), unit(7, 3, 2, 0));
        let n = 4000;
        let mean: f64 = (0..n).map(|e| unit(1, e, 1, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
    }

    #[test]
    fn default_config_is_noop() {
        assert!(FaultConfig::default().is_noop());
        assert!(!FaultConfig::profile(0.1, 0).is_noop());
        assert!(FaultConfig::profile(0.0, 9).is_noop());
    }

    #[test]
    fn noop_injector_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        for e in 0..500 {
            assert_eq!(inj.telemetry_event(e), TelemetryEvent::Deliver);
            for d in 0..4 {
                assert_eq!(inj.actuation_event(e, d), ActuationEvent::Apply);
            }
            assert_eq!(inj.clamp_tick(e, 10), None);
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn rates_land_near_target() {
        let cfg = FaultConfig { seed: 11, telemetry_drop: 0.2, ..FaultConfig::default() };
        let mut inj = FaultInjector::new(cfg);
        let n = 5000;
        let lost =
            (0..n).filter(|&e| inj.telemetry_event(e) == TelemetryEvent::Lost).count() as f64;
        let rate = lost / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn injector_streams_are_seed_and_order_deterministic() {
        let cfg = FaultConfig::profile(0.3, 42);
        let run = || {
            let mut inj = FaultInjector::new(cfg);
            let mut log = Vec::new();
            for e in 0..200 {
                log.push(format!("{:?}", inj.telemetry_event(e)));
                for d in 0..3 {
                    log.push(format!("{:?}", inj.actuation_event(e, d)));
                }
                log.push(format!("{:?}", inj.clamp_tick(e, 10)));
            }
            (log, inj.counts())
        };
        assert_eq!(run(), run());
        let other = FaultInjector::new(FaultConfig::profile(0.3, 43));
        let mut a = FaultInjector::new(cfg);
        let mut b = other.clone();
        let sa: Vec<_> = (0..200).map(|e| a.telemetry_event(e)).collect();
        let sb: Vec<_> = (0..200).map(|e| b.telemetry_event(e)).collect();
        assert_ne!(sa, sb, "different seeds must give different streams");
    }

    #[test]
    fn clamp_runs_for_configured_epochs() {
        let cfg = FaultConfig {
            seed: 5,
            clamp_rate: 1.0,
            clamp_epochs: 3,
            clamp_states: 2,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg);
        // With rate 1.0 a new event starts the moment the previous ends.
        for e in 0..9 {
            assert_eq!(inj.clamp_tick(e, 10), Some(2), "epoch {e}");
        }
        assert_eq!(inj.counts().clamped_epochs, 9);
        // Clamp width never exceeds the state count.
        let mut wide = FaultInjector::new(FaultConfig { clamp_states: 99, ..cfg });
        assert_eq!(wide.clamp_tick(0, 4), Some(4));
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        use gpu_sim::stats::EpochStats;
        let mut stats = EpochStats::empty();
        // EpochStats::empty has no CUs; synthesize one via Default-ish path:
        // apply_noise over zero CUs must still count the epoch.
        let cfg = FaultConfig {
            seed: 3,
            telemetry_noise: 1.0,
            noise_bound: 0.2,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg);
        assert!(inj.apply_noise(0, &mut stats));
        assert_eq!(inj.counts().telemetry_noisy, 1);
        let mut off = FaultInjector::new(FaultConfig::default());
        assert!(!off.apply_noise(0, &mut stats));
    }

    #[test]
    fn parse_profile_and_overrides() {
        let cfg = FaultConfig::parse("rate=0.1,seed=7,drop=0.25").unwrap();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.telemetry_drop - 0.25).abs() < 1e-12, "override wins over profile");
        assert!((cfg.telemetry_noise - 0.1).abs() < 1e-12, "profile fills the rest");
        // seed applies even when written after rate.
        let cfg2 = FaultConfig::parse("drop=0.1,seed=9").unwrap();
        assert_eq!(cfg2.seed, 9);
        assert!(FaultConfig::parse("").unwrap().is_noop());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultConfig::parse("bogus=1").is_err());
        assert!(FaultConfig::parse("drop=1.5").is_err());
        assert!(FaultConfig::parse("drop").is_err());
        assert!(FaultConfig::parse("seed=abc").is_err());
        let e = FaultConfig::parse("nope=0").unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn panic_plan_fires_once_per_index() {
        let plan = PanicPlan::for_indices([2]);
        assert_eq!(plan.remaining(), 1);
        plan.fire(0); // unarmed: no panic
        let caught = std::panic::catch_unwind(|| plan.fire(2));
        assert!(caught.is_err(), "armed index must panic");
        assert_eq!(plan.remaining(), 0);
        plan.fire(2); // disarmed now: survives
    }

    #[test]
    fn seeded_panic_plan_is_deterministic() {
        let a = PanicPlan::seeded(1, 0.5, 64);
        let b = PanicPlan::seeded(1, 0.5, 64);
        assert_eq!(a.remaining(), b.remaining());
        assert!(a.remaining() > 0, "at 50% something should arm");
        assert_eq!(PanicPlan::seeded(1, 0.0, 64).remaining(), 0);
    }

    #[test]
    fn parse_chaos_keys() {
        let cfg = FaultConfig::parse("hang=0.2,slow=0.1,slow_ms=50,livelock=0.05,seed=3").unwrap();
        assert!((cfg.hang_rate - 0.2).abs() < 1e-12);
        assert!((cfg.slow_rate - 0.1).abs() < 1e-12);
        assert_eq!(cfg.slow_ms, 50);
        assert!((cfg.livelock_rate - 0.05).abs() < 1e-12);
        assert!(cfg.is_noop(), "chaos channels are not loop faults");
        assert!(FaultConfig::parse("hang=1.5").is_err());
    }

    #[test]
    fn chaos_plan_is_seed_deterministic_and_rate_scaled() {
        let cfg = FaultConfig { seed: 9, hang_rate: 0.35, ..FaultConfig::default() };
        let a = ChaosPlan::from_config(&cfg, 200);
        let b = ChaosPlan::from_config(&cfg, 200);
        assert_eq!(a.remaining(), b.remaining());
        let armed = a.remaining() as f64 / 200.0;
        assert!((armed - 0.35).abs() < 0.1, "armed fraction {armed} far from rate");
        assert_eq!(
            ChaosPlan::from_config(&FaultConfig::default(), 200).remaining(),
            0,
            "zero rates arm nothing"
        );
        // Same seed, different channels: hang and livelock schedules differ.
        let h = ChaosPlan::from_config(
            &FaultConfig { seed: 9, hang_rate: 0.3, ..FaultConfig::default() },
            200,
        );
        let l = ChaosPlan::from_config(
            &FaultConfig { seed: 9, livelock_rate: 0.3, ..FaultConfig::default() },
            200,
        );
        let hit =
            |p: &ChaosPlan| -> Vec<usize> { (0..200).filter(|&i| p.take(i).is_some()).collect() };
        assert_ne!(hit(&h), hit(&l), "channels must decorrelate");
    }

    #[test]
    fn chaos_plan_take_decrements_and_persists() {
        let plan = ChaosPlan::with_events(
            [(1, ChaosEvent::Hang, 2), (4, ChaosEvent::Slow, CHAOS_PERSISTENT)],
            25,
        );
        assert_eq!(plan.slow_ms(), 25);
        assert_eq!(plan.take(0), None, "unarmed item");
        assert_eq!(plan.take(1), Some(ChaosEvent::Hang));
        assert_eq!(plan.take(1), Some(ChaosEvent::Hang), "second fire of a 2-shot");
        assert_eq!(plan.take(1), None, "exhausted");
        for _ in 0..10 {
            assert_eq!(plan.take(4), Some(ChaosEvent::Slow), "persistent never disarms");
        }
        assert_eq!(plan.remaining(), 1);
    }

    #[test]
    fn storm_disabled_is_bit_identical_to_base() {
        // storm_period = 0 must leave every stream exactly as before the
        // storm fields existed.
        let base = FaultConfig::profile(0.3, 42);
        let run = |cfg: FaultConfig| {
            let mut inj = FaultInjector::new(cfg);
            let mut log = Vec::new();
            for e in 0..300 {
                log.push(format!("{:?}", inj.telemetry_event_for(e, 7)));
                log.push(format!("{:?}", inj.actuation_event(e, 2)));
                log.push(format!("{:?}", inj.clamp_tick(e, 10)));
            }
            log
        };
        assert_eq!(run(base), run(FaultConfig { storm_boost: 9.0, storm_calm: 0.0, ..base }));
    }

    #[test]
    fn storm_windows_are_bursty_and_deterministic() {
        let cfg = FaultConfig::storm(0.2, 11);
        assert!(!cfg.is_noop());
        let active: Vec<bool> = (0..320).map(|e| cfg.storm_active(e)).collect();
        let again: Vec<bool> = (0..320).map(|e| cfg.storm_active(e)).collect();
        assert_eq!(active, again, "windows are a pure function of the seed");
        // Each 32-epoch window holds exactly one 8-epoch burst.
        for w in 0..10 {
            let in_burst = active[w * 32..(w + 1) * 32].iter().filter(|&&a| a).count();
            assert_eq!(in_burst, 8, "window {w} burst width");
        }
        // Different seeds place bursts differently.
        let other = FaultConfig::storm(0.2, 12);
        let active2: Vec<bool> = (0..320).map(|e| other.storm_active(e)).collect();
        assert_ne!(active, active2);
    }

    #[test]
    fn storm_correlates_channels_inside_bursts() {
        // With storm on, drop events concentrate inside the shared burst
        // windows: the in-burst drop rate must exceed the calm rate.
        let cfg = FaultConfig::storm(0.15, 5);
        let mut inj = FaultInjector::new(cfg);
        let mut in_burst = (0usize, 0usize); // (epochs, drops)
        let mut calm = (0usize, 0usize);
        for e in 0..4000 {
            let lost = inj.telemetry_event_for(e, 3) == TelemetryEvent::Lost;
            let bucket = if cfg.storm_active(e) { &mut in_burst } else { &mut calm };
            bucket.0 += 1;
            bucket.1 += usize::from(lost);
        }
        let burst_rate = in_burst.1 as f64 / in_burst.0 as f64;
        let calm_rate = calm.1 as f64 / calm.0.max(1) as f64;
        assert!(
            burst_rate > 3.0 * calm_rate,
            "burst drop rate {burst_rate} should dwarf calm rate {calm_rate}"
        );
        // Effective rate respects the probability clamp.
        assert!(cfg.effective_rate(0.9, 0) <= 1.0);
    }

    #[test]
    fn storm_parse_and_profile_builder() {
        let cfg = FaultConfig::parse("storm=0.2,seed=7").unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.storm_period, 32);
        assert_eq!(cfg.storm_burst, 8);
        assert!((cfg.telemetry_drop - 0.2).abs() < 1e-12);
        let tweaked = FaultConfig::parse("storm=0.2,storm_burst=4,storm_boost=5.0").unwrap();
        assert_eq!(tweaked.storm_burst, 4);
        assert!((tweaked.storm_boost - 5.0).abs() < 1e-12);
        assert_eq!(FaultProfile::Storm.build(0.1, 3), FaultConfig::storm(0.1, 3));
        assert_eq!(FaultProfile::Proportional.build(0.1, 3), FaultConfig::profile(0.1, 3));
        assert_eq!(FaultProfile::Storm.name(), "storm");
    }

    #[test]
    fn per_lane_draws_decorrelate_tenants() {
        let cfg = FaultConfig { seed: 13, telemetry_drop: 0.3, ..FaultConfig::default() };
        let stream = |lane: u64| -> Vec<TelemetryEvent> {
            let mut inj = FaultInjector::new(cfg);
            (0..200).map(|e| inj.telemetry_event_for(e, lane)).collect()
        };
        assert_eq!(stream(4), stream(4), "per-lane stream is deterministic");
        assert_ne!(stream(4), stream(5), "different lanes decorrelate");
        assert_eq!(stream(0), {
            let mut inj = FaultInjector::new(cfg);
            (0..200).map(|e| inj.telemetry_event(e)).collect::<Vec<_>>()
        });
    }

    #[test]
    fn chaos_hang_shadows_slow_on_same_index() {
        // With both rates at 1.0 every index arms as Hang (priority order).
        let cfg = FaultConfig { seed: 1, hang_rate: 1.0, slow_rate: 1.0, ..FaultConfig::default() };
        let plan = ChaosPlan::from_config(&cfg, 16);
        for i in 0..16 {
            assert_eq!(plan.take(i), Some(ChaosEvent::Hang));
        }
    }

    /// Pinned digest over the chaos action stream: `stream_action` is a
    /// pure function of `(seed, link, chunk)`, so this constant holds at
    /// any `PCSTALL_THREADS` (ci runs the suite at 1 and 8) and across
    /// process runs — the byte-stream analogue of the scenario fuzzer's
    /// pinned corpus digest on channel 0x5C.
    #[test]
    fn stream_faults_are_counter_pure() {
        use super::stream::{action_stream_digest, stream_action, StreamFaultConfig};
        let cfg = StreamFaultConfig::chaos(0.2, 0xC0DE_3172);
        let digest = action_stream_digest(&cfg, 8, 512);
        assert_eq!(digest, action_stream_digest(&cfg, 8, 512), "same inputs, same stream");
        assert_eq!(digest, 0x029A_D85A_1DFC_8635, "pinned across processes and thread counts");
        // Per-chunk decisions are order-free: querying out of order or
        // repeatedly changes nothing (no hidden RNG state to advance).
        let forward: Vec<_> = (0..64).map(|c| stream_action(&cfg, 3, c)).collect();
        let backward: Vec<_> = (0..64).rev().map(|c| stream_action(&cfg, 3, c)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        // The two directions of one connection draw independent faults.
        assert_ne!(action_stream_digest(&cfg, 1, 256), {
            let shifted = StreamFaultConfig { seed: cfg.seed ^ 1, ..cfg };
            action_stream_digest(&shifted, 1, 256)
        });
    }

    #[test]
    fn stream_fault_rates_bite_and_quiet_is_noop() {
        use super::stream::{stream_action, StreamAction, StreamFaultConfig};
        let quiet = StreamFaultConfig::quiet(7);
        assert!(quiet.is_noop());
        for c in 0..256 {
            assert_eq!(stream_action(&quiet, 0, c), StreamAction::Deliver);
        }
        let chaos = StreamFaultConfig::chaos(0.3, 7);
        assert!(!chaos.is_noop());
        let mut counts = [0u32; 7];
        for link in 0..4u64 {
            for c in 0..2048 {
                let idx = match stream_action(&chaos, link, c) {
                    StreamAction::Deliver => 0,
                    StreamAction::Disconnect { .. } => 1,
                    StreamAction::Corrupt { .. } => 2,
                    StreamAction::Drop => 3,
                    StreamAction::Duplicate => 4,
                    StreamAction::Delay => 5,
                    StreamAction::Split { .. } => 6,
                };
                counts[idx] += 1;
            }
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!(n > 0, "fault class {i} never fired across 8192 chunks");
        }
    }
}
