//! Graceful degradation under telemetry faults: the fallback ladder.
//!
//! [`ResilientPolicy`] wraps any [`DvfsPolicy`] and keeps the control loop
//! producing sane decisions when the counter path misbehaves (see the
//! `faults` crate). Delivered telemetry — fresh or stale — goes straight
//! to the wrapped design. Consecutive *blind* epochs (telemetry
//! [`Telemetry::Lost`]) descend a three-rung ladder:
//!
//! 1. **Hold** (≤ [`FallbackConfig::hold_epochs`] blind epochs): repeat the
//!    last decisions — GPU phases outlast an epoch, so a short outage is
//!    best ridden out in place.
//! 2. **Reactive STALL fallback** (≤ `hold_epochs + stall_epochs`): feed
//!    the last successfully delivered snapshot to a reactive STALL
//!    estimator — the simplest Table III design, with no warm-up state to
//!    lose. Predicting from a stale snapshot beats predicting from
//!    nothing.
//! 3. **Max-frequency safe mode** (beyond): the snapshot is too old to
//!    trust; pin every domain to the highest legal state so a prolonged
//!    counter outage costs energy, never deadline.
//!
//! The ladder resets the moment anything is delivered again. Rung
//! occupancy is tracked in [`FallbackCounts`] and surfaced through
//! [`DvfsPolicy::fault_ladder`] so the harness can report how often a run
//! actually degraded.
//!
//! The rung walk itself is [`Ladder`], a pure state machine shared with
//! the policy server's per-tenant sessions (`serve::session`), so the
//! simulator and the service degrade by the same rule.

use crate::estimators::CuEstimator;
use crate::policy::{DecideCtx, Decision, DvfsPolicy, ReactivePolicy, Telemetry};
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Frequency;
use serde::{Deserialize, Serialize};

/// Ladder depth configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FallbackConfig {
    /// Blind epochs to ride out by repeating the last decisions.
    pub hold_epochs: u32,
    /// Further blind epochs served by the reactive STALL fallback before
    /// dropping to max-frequency safe mode.
    pub stall_epochs: u32,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        // Hold for ~one phase transition, then trust the stale snapshot
        // for a handful of epochs before giving up on it.
        FallbackConfig { hold_epochs: 2, stall_epochs: 6 }
    }
}

/// How many epochs a run spent on each rung of the ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FallbackCounts {
    /// Epochs decided normally by the wrapped design.
    pub normal: u64,
    /// Blind epochs that held the previous decisions.
    pub hold: u64,
    /// Blind epochs decided by the reactive STALL fallback.
    pub stall: u64,
    /// Blind epochs pinned to the maximum frequency.
    pub safe: u64,
}

/// Ladder occupancy rides in sweep resume journals next to the fault
/// counters it explains.
impl snapshot::Snapshot for FallbackCounts {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let FallbackCounts { normal, hold, stall, safe } = *self;
        w.put_u64(normal);
        w.put_u64(hold);
        w.put_u64(stall);
        w.put_u64(safe);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(FallbackCounts {
            normal: r.take_u64()?,
            hold: r.take_u64()?,
            stall: r.take_u64()?,
            safe: r.take_u64()?,
        })
    }
}

impl FallbackCounts {
    /// Epochs on any degraded rung (everything but normal).
    pub fn engaged(&self) -> u64 {
        self.hold + self.stall + self.safe
    }
}

/// Which ladder rung decided an epoch. The discriminants are the stable
/// wire/digest tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Telemetry delivered: the design decides normally.
    Normal = 0,
    /// Blind: repeat the previous decision.
    Hold = 1,
    /// Blind: reactive STALL estimate from the last good telemetry.
    Stall = 2,
    /// Blind past the ladder: pinned to the maximum frequency.
    Safe = 3,
}

impl Rung {
    const ALL: [Rung; 4] = [Rung::Normal, Rung::Hold, Rung::Stall, Rung::Safe];

    /// Stable wire/digest tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The rung with wire tag `tag`, if any.
    pub fn from_tag(tag: u8) -> Option<Rung> {
        Rung::ALL.get(usize::from(tag)).copied()
    }
}

/// The degradation ladder's state: depths, rung occupancy and the run of
/// consecutive blind epochs. [`Ladder::step`] is pure bookkeeping — the
/// caller produces the rung's decision — so it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ladder {
    cfg: FallbackConfig,
    counts: FallbackCounts,
    /// Consecutive blind epochs.
    blind: u32,
}

impl Ladder {
    /// A ladder at the top rung.
    pub fn new(cfg: FallbackConfig) -> Self {
        Ladder { cfg, counts: FallbackCounts::default(), blind: 0 }
    }

    /// Rung occupancy so far.
    pub fn counts(&self) -> FallbackCounts {
        self.counts
    }

    /// Steps one epoch. Delivered telemetry resets the ladder to
    /// [`Rung::Normal`]; a blind epoch holds while within `hold_epochs`
    /// blind epochs and `can_hold` (there is a decision to repeat and the
    /// caller trusts the outage to be transient), falls back to STALL
    /// within `hold_epochs + stall_epochs` when `can_stall` (there is a
    /// last good snapshot), and pins to safe-max otherwise.
    pub fn step(&mut self, delivered: bool, can_hold: bool, can_stall: bool) -> Rung {
        let rung = if delivered {
            self.blind = 0;
            Rung::Normal
        } else {
            self.blind = self.blind.saturating_add(1);
            if self.blind <= self.cfg.hold_epochs && can_hold {
                Rung::Hold
            } else if self.blind <= self.cfg.hold_epochs.saturating_add(self.cfg.stall_epochs)
                && can_stall
            {
                Rung::Stall
            } else {
                Rung::Safe
            }
        };
        let c = &mut self.counts;
        *match rung {
            Rung::Normal => &mut c.normal,
            Rung::Hold => &mut c.hold,
            Rung::Stall => &mut c.stall,
            Rung::Safe => &mut c.safe,
        } += 1;
        rung
    }
}

/// Encoded as depths, counts, blind run: this order is part of the policy
/// server's tenant-session snapshot format.
impl snapshot::Snapshot for Ladder {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let Ladder { cfg, counts, blind } = self;
        w.put_u32(cfg.hold_epochs);
        w.put_u32(cfg.stall_epochs);
        counts.encode(w);
        w.put_u32(*blind);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(Ladder {
            cfg: FallbackConfig { hold_epochs: r.take_u32()?, stall_epochs: r.take_u32()? },
            counts: FallbackCounts::decode(r)?,
            blind: r.take_u32()?,
        })
    }
}

/// A degradation-aware wrapper around any DVFS design (module docs have
/// the ladder semantics).
#[derive(Debug)]
pub struct ResilientPolicy {
    inner: Box<dyn DvfsPolicy>,
    fallback: ReactivePolicy,
    /// Last successfully delivered (fresh) snapshot, for the STALL rung.
    last_good: Option<EpochStats>,
    /// Epochs since `last_good` was captured.
    last_good_age: usize,
    /// Last decisions: (chosen frequency, predicted instructions at it).
    held: Vec<(Frequency, f64)>,
    ladder: Ladder,
}

impl ResilientPolicy {
    /// Wraps `inner` with the given ladder depths.
    pub fn new(inner: Box<dyn DvfsPolicy>, cfg: FallbackConfig) -> Self {
        ResilientPolicy {
            inner,
            fallback: ReactivePolicy { estimator: CuEstimator::Stall },
            last_good: None,
            last_good_age: 0,
            held: Vec::new(),
            ladder: Ladder::new(cfg),
        }
    }

    /// Remember what was decided so the hold rung can repeat it.
    fn remember(&mut self, ctx: &DecideCtx<'_>, decisions: &[Decision]) {
        self.held.clear();
        self.held.extend(decisions.iter().map(|d| {
            let at = ctx.states.index_of(d.freq).map(|i| d.predicted[i]).unwrap_or(0.0);
            (d.freq, at)
        }));
    }

    /// Rung 1: repeat the held decisions, re-clamped into the current
    /// legal state set (a thermal clamp may have shrunk it since).
    fn hold(&self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        let n = ctx.states.len();
        self.held
            .iter()
            .map(|&(f, at)| Decision { freq: ctx.states.nearest(f), predicted: vec![at; n] })
            .collect()
    }

    /// Rung 3: every domain to the highest legal state.
    fn safe_max(&self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        let n = ctx.states.len();
        (0..ctx.domains.len())
            .map(|_| Decision { freq: ctx.states.max(), predicted: vec![0.0; n] })
            .collect()
    }
}

impl DvfsPolicy for ResilientPolicy {
    fn name(&self) -> String {
        // Transparent: sweeps and figures label columns by design name, and
        // the wrapper does not change which design is being evaluated.
        self.inner.name()
    }

    fn needs_oracle(&self) -> bool {
        self.inner.needs_oracle()
    }

    fn fault_ladder(&self) -> Option<FallbackCounts> {
        Some(self.ladder.counts())
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Vec<Decision> {
        if let Some(s) = ctx.telemetry.stats() {
            if matches!(ctx.telemetry, Telemetry::Fresh(_)) {
                match &mut self.last_good {
                    Some(g) => g.clone_from(s),
                    None => self.last_good = Some(s.clone()),
                }
                self.last_good_age = 0;
            }
        }
        self.last_good_age += 1;
        let delivered = !ctx.telemetry.is_blind();
        let rung = self.ladder.step(delivered, !self.held.is_empty(), self.last_good.is_some());
        match (rung, &self.last_good) {
            (Rung::Normal, _) => {
                let decisions = self.inner.decide(ctx);
                self.remember(ctx, &decisions);
                decisions
            }
            (Rung::Hold, _) => self.hold(ctx),
            (Rung::Stall, Some(last_good)) => {
                let synth = DecideCtx {
                    telemetry: Telemetry::Stale { stats: last_good, age: self.last_good_age },
                    gpu: ctx.gpu,
                    domains: ctx.domains,
                    states: ctx.states,
                    epoch: ctx.epoch,
                    power: ctx.power,
                    objective: ctx.objective,
                    current: ctx.current,
                    samples: None,
                };
                let decisions = self.fallback.decide(&synth);
                self.remember(ctx, &decisions);
                decisions
            }
            (Rung::Stall | Rung::Safe, _) => self.safe_max(ctx),
        }
    }
}
