//! Simulation time and clock-frequency primitives.
//!
//! All simulated time is tracked in integer **femtoseconds** so that the
//! simulator is exactly deterministic and cloneable (required by the
//! fork–pre-execute oracle). Frequencies are tracked in integer **MHz**,
//! matching the paper's 100 MHz-step V/f states. `WakeTree` orders the
//! CUs' wake-up times for the serial event loop.

use crate::cu::IDLE;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in femtoseconds.
///
/// One femtosecond granularity keeps clock-period arithmetic for any MHz
/// frequency exact to better than 0.0002%, which is far below the modeling
/// noise floor, while `u64` still covers ~5 hours of simulated time.
///
/// # Examples
///
/// ```
/// use gpu_sim::time::Femtos;
/// let epoch = Femtos::from_micros(1);
/// assert_eq!(epoch.as_nanos_f64(), 1_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Femtos(pub u64);

impl Femtos {
    /// Zero time.
    pub const ZERO: Femtos = Femtos(0);
    /// One nanosecond.
    pub const NANO: Femtos = Femtos(1_000_000);
    /// One microsecond.
    pub const MICRO: Femtos = Femtos(1_000_000_000);

    /// Creates a time span from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Femtos(ns * 1_000_000)
    }

    /// Creates a time span from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Femtos(us * 1_000_000_000)
    }

    /// Creates a time span from picoseconds.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        Femtos(ps * 1_000)
    }

    /// Raw femtosecond count.
    #[inline]
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// This time span expressed in (fractional) nanoseconds.
    #[inline]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time span expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time span expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e15
    }

    /// Saturating subtraction, useful for interval deltas.
    #[inline]
    pub fn saturating_sub(self, rhs: Femtos) -> Femtos {
        Femtos(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Femtos) -> Femtos {
        Femtos(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Femtos) -> Femtos {
        Femtos(self.0.min(rhs.0))
    }

    /// Rounds `self` up to the next multiple of `period` measured from
    /// `origin`. Used to re-align a compute unit to its cycle grid after an
    /// idle skip.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[inline]
    pub fn align_up(self, origin: Femtos, period: Femtos) -> Femtos {
        assert!(period.0 > 0, "period must be non-zero");
        if self.0 <= origin.0 {
            return origin;
        }
        let delta = self.0 - origin.0;
        let cycles = delta.div_ceil(period.0);
        Femtos(origin.0 + cycles * period.0)
    }
}

impl snapshot::Snapshot for Femtos {
    fn encode(&self, w: &mut snapshot::Encoder) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        Ok(Femtos(r.take_u64()?))
    }
}

impl Add for Femtos {
    type Output = Femtos;
    #[inline]
    fn add(self, rhs: Femtos) -> Femtos {
        Femtos(self.0 + rhs.0)
    }
}

impl AddAssign for Femtos {
    #[inline]
    fn add_assign(&mut self, rhs: Femtos) {
        self.0 += rhs.0;
    }
}

impl Sub for Femtos {
    type Output = Femtos;
    #[inline]
    fn sub(self, rhs: Femtos) -> Femtos {
        Femtos(self.0 - rhs.0)
    }
}

impl SubAssign for Femtos {
    #[inline]
    fn sub_assign(&mut self, rhs: Femtos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Femtos {
    type Output = Femtos;
    #[inline]
    fn mul(self, rhs: u64) -> Femtos {
        Femtos(self.0 * rhs)
    }
}

impl Div<u64> for Femtos {
    type Output = Femtos;
    #[inline]
    fn div(self, rhs: u64) -> Femtos {
        Femtos(self.0 / rhs)
    }
}

impl Sum for Femtos {
    fn sum<I: Iterator<Item = Femtos>>(iter: I) -> Femtos {
        iter.fold(Femtos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Femtos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        } else {
            write!(f, "{}fs", self.0)
        }
    }
}

/// A clock frequency in integer MHz.
///
/// The paper's V/f states span 1300–2200 MHz at 100 MHz steps; this type
/// also represents the fixed 1600 MHz memory domain.
///
/// # Examples
///
/// ```
/// use gpu_sim::time::Frequency;
/// let f = Frequency::from_mhz(2000);
/// assert_eq!(f.period().as_fs(), 500_000); // 0.5 ns
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency from MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    #[inline]
    pub fn from_mhz(mhz: u32) -> Self {
        assert!(mhz > 0, "frequency must be non-zero");
        Frequency(mhz)
    }

    /// The frequency in MHz.
    #[inline]
    pub const fn mhz(self) -> u32 {
        self.0
    }

    /// The frequency in Hz as a float.
    #[inline]
    pub fn hz(self) -> f64 {
        self.0 as f64 * 1e6
    }

    /// The clock period. `1 MHz == 1_000_000_000 fs`; the integer division
    /// error is at most 1 fs per cycle.
    #[inline]
    pub const fn period(self) -> Femtos {
        Femtos(1_000_000_000 / self.0 as u64)
    }

    /// Number of whole cycles of this clock that fit in `span`.
    #[inline]
    pub fn cycles_in(self, span: Femtos) -> u64 {
        span.0 / self.period().0
    }
}

/// A snapshot stores the raw MHz value; decoding re-applies the
/// non-zero invariant [`Frequency::from_mhz`] asserts, but as a typed
/// error so corrupted snapshots are rejected rather than panicking.
impl snapshot::Snapshot for Frequency {
    fn encode(&self, w: &mut snapshot::Encoder) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, snapshot::SnapError> {
        let mhz = r.take_u32()?;
        if mhz == 0 {
            return Err(snapshot::SnapError::invalid("zero frequency"));
        }
        Ok(Frequency(mhz))
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.0)
    }
}

impl Default for Frequency {
    /// The paper's reference static frequency, 1.7 GHz.
    fn default() -> Self {
        Frequency(1700)
    }
}

/// The simulator's event queue: each CU's next wake-up in a winner
/// (tournament) tree.
///
/// A CU has at most one live wake-up — its `next_cycle` — so the queue is
/// a fixed set of `n_cus` keys whose values change, never a growing
/// multiset: re-timing a CU overwrites its leaf instead of leaving a stale
/// entry behind. The tree has `n_cus.next_power_of_two()` leaves (padding
/// and unscheduled CUs hold [`IDLE`]) and every inner node holds the
/// smaller `(time, cu)` of its children, so [`WakeTree::min`] is the root
/// and [`WakeTree::set`] replays one leaf-to-root path. Ties go to the
/// lower CU index: the same lexicographic `(time, cu)` order the serial
/// loop has always stepped CUs in.
#[derive(Debug)]
pub(crate) struct WakeTree {
    /// Implicit binary tree: `nodes[1]` is the root, CU `i`'s leaf is
    /// `nodes[leaves + i]`, and `nodes[0]` is unused. Nodes are keys from
    /// [`node`].
    nodes: Vec<u128>,
}

/// The tree key of `(t, cu)`: `t << 32 | cu`, so integer order is
/// `(time, cu)` order and one comparison picks a winner.
fn node(t: Femtos, cu: usize) -> u128 {
    (u128::from(t.0) << 32) | cu as u128
}

/// The time half of a [`node`] key.
fn node_time(key: u128) -> Femtos {
    Femtos((key >> 32) as u64)
}

/// `clone_from` reuses the destination's node buffer, keeping oracle forks
/// allocation-free.
impl Clone for WakeTree {
    fn clone(&self) -> Self {
        WakeTree { nodes: self.nodes.clone() }
    }

    fn clone_from(&mut self, src: &Self) {
        self.nodes.clone_from(&src.nodes);
    }
}

impl WakeTree {
    /// A tree for `n_cus` compute units, none of them scheduled.
    pub(crate) fn new(n_cus: usize) -> Self {
        let leaves = n_cus.max(1).next_power_of_two();
        let mut tree = WakeTree { nodes: vec![0; 2 * leaves] };
        tree.rebuild(std::iter::empty());
        tree
    }

    fn leaves(&self) -> usize {
        self.nodes.len() / 2
    }

    /// Resets every CU's wake-up from `times` (CU order; CUs past its end
    /// become unscheduled) in one O(n) bottom-up pass.
    pub(crate) fn rebuild(&mut self, times: impl IntoIterator<Item = Femtos>) {
        let leaves = self.leaves();
        let mut times = times.into_iter();
        for (i, leaf) in self.nodes[leaves..].iter_mut().enumerate() {
            *leaf = node(times.next().unwrap_or(IDLE), i);
        }
        for k in (1..leaves).rev() {
            self.nodes[k] = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
        }
    }

    /// The earliest `(time, cu)`, ties to the lower CU. The time is
    /// [`IDLE`] when no CU is scheduled.
    #[inline]
    pub(crate) fn min(&self) -> (Femtos, usize) {
        let key = self.nodes[1];
        (node_time(key), key as u32 as usize)
    }

    /// The earliest `(time, cu)` over every CU but `cu`: the minimum over
    /// the siblings on `cu`'s leaf-to-root path. While `cu` holds the
    /// minimum, it stays the global minimum for as long as its own key is
    /// below this one. With no other CU the time is [`IDLE`] and the CU
    /// past every index.
    #[inline]
    pub(crate) fn runner_up(&self, cu: usize) -> (Femtos, usize) {
        let mut k = self.leaves() + cu;
        let mut best = u128::MAX;
        while k > 1 {
            best = best.min(self.nodes[k ^ 1]);
            k >>= 1;
        }
        (node_time(best), best as u32 as usize)
    }

    /// Sets `cu`'s wake-up to `t` ([`IDLE`] unschedules it). Stops
    /// climbing at the first inner node whose winner is unchanged: every
    /// ancestor above it is then unchanged too.
    #[inline]
    pub(crate) fn set(&mut self, cu: usize, t: Femtos) {
        let mut k = self.leaves() + cu;
        self.nodes[k] = node(t, cu);
        while k > 1 {
            let winner = self.nodes[k].min(self.nodes[k ^ 1]);
            k >>= 1;
            if self.nodes[k] == winner {
                break;
            }
            self.nodes[k] = winner;
        }
    }

    /// Number of scheduled CUs (leaves not [`IDLE`]).
    pub(crate) fn scheduled(&self) -> usize {
        self.nodes[self.leaves()..].iter().filter(|&&key| node_time(key) != IDLE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn femtos_constructors_agree() {
        assert_eq!(Femtos::from_micros(3), Femtos(3_000_000_000));
        assert_eq!(Femtos::from_nanos(5), Femtos(5_000_000));
        assert_eq!(Femtos::from_picos(7), Femtos(7_000));
        assert_eq!(Femtos::MICRO, Femtos::from_micros(1));
        assert_eq!(Femtos::NANO, Femtos::from_nanos(1));
    }

    #[test]
    fn femtos_arithmetic() {
        let a = Femtos(100);
        let b = Femtos(40);
        assert_eq!(a + b, Femtos(140));
        assert_eq!(a - b, Femtos(60));
        assert_eq!(b.saturating_sub(a), Femtos::ZERO);
        assert_eq!(a * 3, Femtos(300));
        assert_eq!(a / 4, Femtos(25));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn align_up_lands_on_cycle_grid() {
        let origin = Femtos(1000);
        let period = Femtos(300);
        assert_eq!(Femtos(1000).align_up(origin, period), Femtos(1000));
        assert_eq!(Femtos(1001).align_up(origin, period), Femtos(1300));
        assert_eq!(Femtos(1300).align_up(origin, period), Femtos(1300));
        assert_eq!(Femtos(1301).align_up(origin, period), Femtos(1600));
        assert_eq!(Femtos(500).align_up(origin, period), Femtos(1000));
    }

    #[test]
    fn frequency_period_is_exact_for_round_values() {
        assert_eq!(Frequency::from_mhz(1000).period(), Femtos(1_000_000));
        assert_eq!(Frequency::from_mhz(2000).period(), Femtos(500_000));
        assert_eq!(Frequency::from_mhz(1600).period(), Femtos(625_000));
    }

    #[test]
    fn frequency_cycles_in_span() {
        let f = Frequency::from_mhz(1000); // 1 ns period
        assert_eq!(f.cycles_in(Femtos::from_micros(1)), 1000);
        assert_eq!(f.cycles_in(Femtos::from_nanos(1)), 1);
        assert_eq!(f.cycles_in(Femtos(999_999)), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = Frequency::from_mhz(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Femtos::from_micros(2).to_string(), "2.000us");
        assert_eq!(Femtos::from_nanos(2).to_string(), "2.000ns");
        assert_eq!(Femtos(42).to_string(), "42fs");
        assert_eq!(Frequency::from_mhz(1700).to_string(), "1700MHz");
    }

    #[test]
    fn sum_of_femtos() {
        let total: Femtos = [Femtos(1), Femtos(2), Femtos(3)].into_iter().sum();
        assert_eq!(total, Femtos(6));
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// The reference the tree must agree with: a linear scan for the
    /// smallest time, ties to the lowest index.
    fn linear_min(times: &[Femtos]) -> (Femtos, usize) {
        let mut best = (IDLE, 0);
        for (i, &t) in times.iter().enumerate() {
            if t < best.0 {
                best = (t, i);
            }
        }
        best
    }

    /// The tree's minimum is pinned against a linear scan over seeded
    /// random `set` sequences at power-of-two and padded CU counts. Set
    /// times are drawn to hit every tie-break and early-exit path: a small
    /// pool of equal times, `IDLE` unschedules, and runs of repeated sets
    /// on one CU (including re-setting its current time).
    #[test]
    fn wake_tree_min_matches_linear_reference() {
        for n_cus in [1, 3, 4, 5, 12, 16, 64] {
            for seed in 1..=4u64 {
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n_cus as u64;
                let mut tree = WakeTree::new(n_cus);
                let mut times = vec![IDLE; n_cus];
                assert_eq!(tree.min(), (IDLE, 0));
                let mut cu = 0;
                for op in 0..4_000 {
                    if xorshift(&mut rng) % 4 < 3 {
                        cu = (xorshift(&mut rng) as usize) % n_cus;
                    }
                    let t = match xorshift(&mut rng) % 8 {
                        0 => IDLE,
                        1 => times[cu],
                        2..=4 => Femtos(1_000 * (xorshift(&mut rng) % 4)),
                        _ => Femtos(xorshift(&mut rng) % 1_000_000),
                    };
                    tree.set(cu, t);
                    times[cu] = t;
                    let want = linear_min(&times);
                    assert_eq!(tree.min(), want, "n_cus {n_cus}, seed {seed}, op {op}");
                    // The runner-up of any CU is the minimum of the others.
                    let probe = (xorshift(&mut rng) as usize) % n_cus;
                    let mut others = times.clone();
                    others[probe] = IDLE;
                    let (t, i) = linear_min(&others);
                    let want = if others.iter().all(|&t| t == IDLE) {
                        // Only padding or unscheduled CUs: the lowest other
                        // leaf, or none at all.
                        let leaves = n_cus.next_power_of_two();
                        (
                            IDLE,
                            if leaves == 1 { u32::MAX as usize } else { usize::from(probe == 0) },
                        )
                    } else {
                        (t, i)
                    };
                    assert_eq!(tree.runner_up(probe), want, "n_cus {n_cus}, op {op}: runner-up");
                    let scheduled = times.iter().filter(|&&t| t != IDLE).count();
                    assert_eq!(tree.scheduled(), scheduled, "n_cus {n_cus}, op {op}");
                }
                // A rebuild from the same clocks is the same tree.
                let mut rebuilt = WakeTree::new(n_cus);
                rebuilt.rebuild(times.iter().copied());
                assert_eq!(rebuilt.nodes, tree.nodes, "n_cus {n_cus}, seed {seed}");
                let mut copy = WakeTree::new(1);
                copy.clone_from(&tree);
                assert_eq!(copy.nodes, tree.nodes);
            }
        }
    }
}
