//! Fixed-time DVFS epochs and the transition-latency model.

use gpu_sim::time::Femtos;

/// Configuration of the fixed-time DVFS epoch.
///
/// The paper assumes V/f transition latencies that scale with the epoch
/// length — 4 ns at 1 µs epochs, 40 ns at 10 µs, 200 ns at 50 µs and 400 ns
/// at 100 µs — i.e. `latency = 4 ns × epoch_µs`, reflecting that slower
/// (coarser) DVFS deployments use slower regulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Epoch duration.
    pub duration: Femtos,
    /// V/f transition (settling) latency applied when a domain changes
    /// frequency at an epoch boundary.
    pub transition: Femtos,
}

impl EpochConfig {
    /// Builds the paper's epoch model for a given duration in microseconds:
    /// transition latency is 4 ns per µs of epoch length.
    pub fn paper(epoch_us: u64) -> Self {
        assert!(epoch_us > 0, "epoch must be non-zero");
        EpochConfig {
            duration: Femtos::from_micros(epoch_us),
            transition: Femtos::from_nanos(4 * epoch_us),
        }
    }

    /// Builds an epoch with an explicit transition latency.
    pub fn with_transition(duration: Femtos, transition: Femtos) -> Self {
        EpochConfig { duration, transition }
    }

    /// Fraction of the epoch lost to one transition, in [0, 1].
    pub fn transition_fraction(&self) -> f64 {
        if self.duration == Femtos::ZERO {
            return 0.0;
        }
        (self.transition.as_fs() as f64 / self.duration.as_fs() as f64).min(1.0)
    }
}

impl Default for EpochConfig {
    /// The paper's headline fine-grain epoch: 1 µs with 4 ns transitions.
    fn default() -> Self {
        EpochConfig::paper(1)
    }
}

/// The epoch clock is part of a restored run's identity: a warmup snapshot
/// replayed under a different epoch length would silently desynchronize the
/// DVFS loop, so the duration/transition pair rides in the snapshot and is
/// validated on restore.
impl snapshot::Snapshot for EpochConfig {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let EpochConfig { duration, transition } = *self;
        duration.encode(w);
        transition.encode(w);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        let duration = Femtos::decode(r)?;
        let transition = Femtos::decode(r)?;
        if duration == Femtos::ZERO {
            return Err(snapshot::SnapError::invalid("epoch duration must be non-zero"));
        }
        Ok(EpochConfig { duration, transition })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_transition_points() {
        assert_eq!(EpochConfig::paper(1).transition, Femtos::from_nanos(4));
        assert_eq!(EpochConfig::paper(10).transition, Femtos::from_nanos(40));
        assert_eq!(EpochConfig::paper(50).transition, Femtos::from_nanos(200));
        assert_eq!(EpochConfig::paper(100).transition, Femtos::from_nanos(400));
    }

    #[test]
    fn transition_fraction_constant_in_paper_model() {
        for us in [1, 10, 50, 100] {
            let e = EpochConfig::paper(us);
            assert!((e.transition_fraction() - 0.004).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_epoch_panics() {
        let _ = EpochConfig::paper(0);
    }
}
