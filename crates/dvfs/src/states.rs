//! The discrete V/f state set.

use gpu_sim::time::Frequency;

/// The set of selectable frequency states of a V/f domain.
///
/// The paper's domains support 10 states, 1.3–2.2 GHz at 100 MHz steps.
///
/// # Examples
///
/// ```
/// use dvfs::states::FreqStates;
/// let s = FreqStates::paper();
/// assert_eq!(s.len(), 10);
/// assert_eq!(s.min().mhz(), 1300);
/// assert_eq!(s.max().mhz(), 2200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqStates {
    states: Vec<Frequency>,
}

impl FreqStates {
    /// Builds a state set from an inclusive MHz range and step.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or the step is zero.
    pub fn from_range(min_mhz: u32, max_mhz: u32, step_mhz: u32) -> Self {
        assert!(step_mhz > 0, "step must be non-zero");
        assert!(min_mhz <= max_mhz, "empty frequency range");
        let states =
            (min_mhz..=max_mhz).step_by(step_mhz as usize).map(Frequency::from_mhz).collect();
        FreqStates { states }
    }

    /// The paper's 10-state set: 1300–2200 MHz at 100 MHz steps.
    pub fn paper() -> Self {
        Self::from_range(1300, 2200, 100)
    }

    /// Builds a state set from an explicit list of states (not necessarily
    /// uniformly spaced).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or not strictly ascending.
    pub fn from_states(states: Vec<Frequency>) -> Self {
        assert!(!states.is_empty(), "empty state set");
        assert!(
            states.windows(2).all(|w| w[0].mhz() < w[1].mhz()),
            "states must be strictly ascending"
        );
        FreqStates { states }
    }

    /// The sub-set holding the `n` lowest states of this set (the shape a
    /// power-cap ceiling produces).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the state count.
    pub fn prefix(&self, n: usize) -> Self {
        assert!(n >= 1, "prefix must keep at least one state");
        assert!(n <= self.states.len(), "prefix exceeds state count");
        FreqStates { states: self.states[..n].to_vec() }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the set is empty (never true for validly constructed sets).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Iterates over the states in ascending frequency order.
    pub fn iter(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.states.iter().copied()
    }

    /// All states as a slice.
    pub fn as_slice(&self) -> &[Frequency] {
        &self.states
    }

    /// The lowest state.
    pub fn min(&self) -> Frequency {
        *self.states.first().expect("non-empty state set")
    }

    /// The highest state.
    pub fn max(&self) -> Frequency {
        *self.states.last().expect("non-empty state set")
    }

    /// Index of `freq` in the set, if present.
    pub fn index_of(&self, freq: Frequency) -> Option<usize> {
        self.states.iter().position(|&f| f == freq)
    }

    /// The state closest to `freq` (ties resolve downward).
    pub fn nearest(&self, freq: Frequency) -> Frequency {
        *self
            .states
            .iter()
            .min_by_key(|f| (f.mhz() as i64 - freq.mhz() as i64).abs())
            .expect("non-empty state set")
    }
}

impl Default for FreqStates {
    fn default() -> Self {
        Self::paper()
    }
}

/// Decoding re-applies [`FreqStates::from_states`]'s invariants (non-empty,
/// strictly ascending) as typed errors.
impl snapshot::Snapshot for FreqStates {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let FreqStates { states } = self;
        states.encode(w);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        let states = Vec::<Frequency>::decode(r)?;
        if states.is_empty() {
            return Err(snapshot::SnapError::invalid("empty frequency state set"));
        }
        if !states.windows(2).all(|w| w[0].mhz() < w[1].mhz()) {
            return Err(snapshot::SnapError::invalid("frequency states not strictly ascending"));
        }
        Ok(FreqStates { states })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_contents() {
        let s = FreqStates::paper();
        let mhz: Vec<u32> = s.iter().map(|f| f.mhz()).collect();
        assert_eq!(mhz, vec![1300, 1400, 1500, 1600, 1700, 1800, 1900, 2000, 2100, 2200]);
    }

    #[test]
    fn index_and_nearest() {
        let s = FreqStates::paper();
        assert_eq!(s.index_of(Frequency::from_mhz(1700)), Some(4));
        assert_eq!(s.index_of(Frequency::from_mhz(1750)), None);
        assert_eq!(s.nearest(Frequency::from_mhz(1740)).mhz(), 1700);
        assert_eq!(s.nearest(Frequency::from_mhz(2500)).mhz(), 2200);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn zero_step_panics() {
        let _ = FreqStates::from_range(1000, 2000, 0);
    }

    #[test]
    fn explicit_states_and_prefix() {
        let s = FreqStates::from_states(vec![
            Frequency::from_mhz(1000),
            Frequency::from_mhz(1150),
            Frequency::from_mhz(1333),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max().mhz(), 1333);
        let p = s.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.max().mhz(), 1150);
        assert_eq!(p.min().mhz(), 1000);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_states_panic() {
        let _ = FreqStates::from_states(vec![Frequency::from_mhz(1500), Frequency::from_mhz(1400)]);
    }

    #[test]
    fn single_state_set() {
        let s = FreqStates::from_range(1700, 1700, 100);
        assert_eq!(s.len(), 1);
        assert_eq!(s.min(), s.max());
    }
}
