//! # supervise — deadlines, deterministic retry/backoff, circuit breaking
//!
//! Decision-side primitives for supervised sweep execution. Everything in
//! the crate root is a *pure function of counters and seeds*: backoff
//! delays, breaker state transitions, and report arithmetic never consult
//! the wall clock, so retry schedules are bit-identical across machines,
//! thread counts, and reruns. Real time enters only at the watchdog
//! *edge* — the [`edge`] module — where delays are actually slept and
//! elapsed time is actually measured. A crate-local clippy
//! `disallowed-methods` lint (see `clippy.toml`) rejects `Instant::now` /
//! `thread::sleep` anywhere else, keeping the split auditable.
//!
//! Consumers: `exec` enforces per-lane wall-clock deadlines (its own
//! edge), `harness` drives retry rounds with [`Backoff`] +
//! [`CircuitBreaker`] and aggregates a [`SupervisionReport`], and the
//! report writers wrap transient disk failures in [`edge::retry_transient`].

use std::collections::BTreeMap;

/// `splitmix64` finalizer — the same mixer the `faults` crate uses for its
/// counter-based channels, copied locally so the crate stays dependency
/// free. Good avalanche behavior; passes through zero-free inputs fine.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Capped exponential backoff with deterministic jitter.
///
/// `delay_ms(seed, item, attempt)` is a pure function: attempt `a ≥ 1`
/// yields `base · 2^(a-1)` capped at `cap_ms`, scaled by a jitter factor
/// in `[0.5, 1.0)` drawn from `mix64(seed, item, attempt)`. No wall-clock
/// input anywhere — the schedule for a given `(seed, item)` is fixed
/// before the sweep starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First-retry delay in milliseconds.
    pub base_ms: u64,
    /// Upper bound applied before jitter.
    pub cap_ms: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff { base_ms: 2, cap_ms: 256 }
    }
}

impl Backoff {
    /// Delay before retry `attempt` (1-based) of `item`, in milliseconds.
    pub fn delay_ms(&self, seed: u64, item: u64, attempt: u32) -> u64 {
        if self.base_ms == 0 || attempt == 0 {
            return 0;
        }
        let shift = (attempt - 1).min(16);
        let raw = self.base_ms.saturating_mul(1u64 << shift).min(self.cap_ms.max(self.base_ms));
        let h = mix64(seed ^ mix64(item.wrapping_mul(0xa076_1d64_78bd_642f) ^ u64::from(attempt)));
        // Upper 53 bits → uniform fraction in [0, 1); jitter in [0.5, 1.0).
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        ((raw as f64) * (0.5 + 0.5 * frac)).round() as u64
    }
}

#[derive(Debug, Clone, Default)]
struct BreakerEntry {
    consecutive: u32,
    open: bool,
    trips: u64,
}

/// Per-key circuit breaker: `threshold` *consecutive* failures open the
/// circuit; any success closes it and resets the count. The caller decides
/// what an open circuit means (the harness admits one probe cell per app
/// per retry round and skips the rest). Keys are whatever identifies a
/// channel to the caller: app names in the harness, tenant ids in the
/// policy server, one constant per connection in the wire client.
///
/// State transitions depend only on the sequence of recorded outcomes —
/// callers must feed outcomes in a deterministic order (the harness uses
/// cell-index order) for cross-run reproducibility.
#[derive(Debug, Clone)]
pub struct CircuitBreaker<K> {
    threshold: u32,
    entries: BTreeMap<K, BreakerEntry>,
}

impl<K: Ord + Clone> CircuitBreaker<K> {
    /// `threshold` is clamped to at least 1.
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker { threshold: threshold.max(1), entries: BTreeMap::new() }
    }

    /// Records a failure for `key`; returns `true` iff this failure
    /// freshly tripped the breaker (already-open circuits don't re-trip).
    pub fn record_failure(&mut self, key: &K) -> bool {
        let e = self.entries.entry(key.clone()).or_default();
        e.consecutive = e.consecutive.saturating_add(1);
        if !e.open && e.consecutive >= self.threshold {
            e.open = true;
            e.trips += 1;
            return true;
        }
        false
    }

    /// Records a success: closes the circuit and resets the failure run.
    pub fn record_success(&mut self, key: &K) {
        let e = self.entries.entry(key.clone()).or_default();
        e.consecutive = 0;
        e.open = false;
    }

    /// Whether `key`'s circuit is currently open.
    pub fn is_open(&self, key: &K) -> bool {
        self.entries.get(key).is_some_and(|e| e.open)
    }

    /// Total trips across all keys over the breaker's lifetime.
    pub fn trips(&self) -> u64 {
        self.entries.values().map(|e| e.trips).sum()
    }

    /// Per-key state in sorted key order: `(key, consecutive_failures,
    /// open, lifetime_trips)`. The export/restore pair lets a long-running
    /// consumer (the policy server) carry breaker state through a
    /// kill-and-recover snapshot bit-exactly.
    pub fn export_state(&self) -> Vec<(K, u32, bool, u64)> {
        self.entries.iter().map(|(k, e)| (k.clone(), e.consecutive, e.open, e.trips)).collect()
    }

    /// Rebuilds a breaker from [`CircuitBreaker::export_state`] output.
    pub fn restore_state(threshold: u32, entries: Vec<(K, u32, bool, u64)>) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            entries: entries
                .into_iter()
                .map(|(k, consecutive, open, trips)| (k, BreakerEntry { consecutive, open, trips }))
                .collect(),
        }
    }

    /// The configured trip threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

/// Aggregate supervision outcome of one sweep, reported alongside
/// `fault_report` in run results and the JSON/CSV reports. All counters —
/// nothing here feeds back into cell numerics, so surviving cells stay
/// bit-identical to an unsupervised run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Watchdog cancellation give-ups observed (first passes and retries).
    pub timeouts: u64,
    /// Cells whose run was preempted at an epoch boundary into a snapshot.
    pub preemptions: u64,
    /// Retry attempts dispatched after a lost first attempt — the pool's
    /// deterministic in-pass resubmissions plus harness retry rounds.
    pub retries: u64,
    /// Previously failed/timed-out cells that eventually produced a result.
    pub recovered: u64,
    /// Fresh breaker trips (a key re-tripping after recovery counts again).
    pub breaker_trips: u64,
    /// Retry slots withheld because the cell's app circuit was open.
    pub breaker_skips: u64,
    /// Cells still without a result when the retry budget ran out.
    pub unrecovered: u64,
    /// Total backoff scheduled by the deterministic decision path, in
    /// milliseconds (what *would* be slept; the edge may clamp actual
    /// sleeps below the watchdog deadline).
    pub backoff_ms: u64,
}

impl SupervisionReport {
    /// Field-wise sum, for aggregating per-grid reports across a study.
    pub fn merge(&mut self, other: &SupervisionReport) {
        self.timeouts += other.timeouts;
        self.preemptions += other.preemptions;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.breaker_trips += other.breaker_trips;
        self.breaker_skips += other.breaker_skips;
        self.unrecovered += other.unrecovered;
        self.backoff_ms += other.backoff_ms;
    }
}

/// A [`SupervisionReport`] with a per-tenant breakdown. The plain
/// report's `merge` collapses everything into aggregate counters, which
/// is fine for a single sweep but useless for a multi-tenant server:
/// "3 breaker trips" doesn't say *which* tenant's telemetry channel is
/// flapping. This keyed variant attributes every recorded event to a
/// tenant id while keeping the aggregate total in lockstep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyedSupervisionReport {
    /// Aggregate across all tenants — always the field-wise sum of
    /// `per_key`'s values.
    pub total: SupervisionReport,
    /// Per-tenant reports in ascending tenant id.
    pub per_key: BTreeMap<u64, SupervisionReport>,
}

impl KeyedSupervisionReport {
    /// Records `delta` against tenant `key`, updating both the tenant's
    /// report and the aggregate.
    pub fn record(&mut self, key: u64, delta: &SupervisionReport) {
        self.total.merge(delta);
        self.per_key.entry(key).or_default().merge(delta);
    }
}

/// The watchdog edge: the one place in the crate allowed to touch real
/// time. Decisions (how long to wait, whether to retry) are made by the
/// pure layer above; this module merely *executes* them.
pub mod edge {
    use super::Backoff;
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    static CLOCK: OnceLock<Instant> = OnceLock::new();
    static IO_RETRIES: AtomicU64 = AtomicU64::new(0);

    /// Milliseconds since the first call in this process. Monotonic;
    /// only for measuring elapsed wall-clock at the edge (watchdog
    /// deadlines, study wall-time columns) — never for decisions.
    #[allow(clippy::disallowed_methods)]
    pub fn now_ms() -> u64 {
        let epoch = CLOCK.get_or_init(Instant::now);
        epoch.elapsed().as_millis() as u64
    }

    /// Sleeps a decision-layer delay. Edge-only by construction.
    #[allow(clippy::disallowed_methods)]
    pub fn sleep_ms(ms: u64) {
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Transient I/O failures retried process-wide so far (observability
    /// hook for reports; not part of any decision path).
    pub fn io_retries() -> u64 {
        IO_RETRIES.load(Ordering::Relaxed)
    }

    fn is_transient(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// Runs `f`, retrying up to `max_attempts` total on *transient* I/O
    /// errors (`Interrupted` / `WouldBlock` / `TimedOut`) with the given
    /// deterministic backoff schedule. Permanent errors (and transient
    /// ones that outlive the budget) are returned to the caller, which
    /// degrades exactly as before — e.g. the snapcache falls back to a
    /// cold start.
    pub fn retry_transient<T>(
        max_attempts: u32,
        backoff: &Backoff,
        seed: u64,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let max_attempts = max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < max_attempts && is_transient(e.kind()) => {
                    IO_RETRIES.fetch_add(1, Ordering::Relaxed);
                    sleep_ms(backoff.delay_ms(seed, 0, attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let b = Backoff { base_ms: 4, cap_ms: 64 };
        for item in 0..32u64 {
            for attempt in 1..12u32 {
                let d1 = b.delay_ms(7, item, attempt);
                let d2 = b.delay_ms(7, item, attempt);
                assert_eq!(d1, d2, "pure function of (seed, item, attempt)");
                assert!(d1 <= 64, "jitter never exceeds the cap");
                if attempt == 1 {
                    assert!(d1 >= 2, "first retry at least base/2");
                }
            }
        }
        // Different seeds/items decorrelate the jitter.
        let spread: std::collections::BTreeSet<u64> =
            (0..64).map(|i| b.delay_ms(1, i, 3)).collect();
        assert!(spread.len() > 4, "jitter spreads delays: {spread:?}");
    }

    #[test]
    fn backoff_grows_exponentially_before_cap() {
        let b = Backoff { base_ms: 8, cap_ms: 1 << 20 };
        // Jitter is within [0.5, 1.0) of raw, so attempt a+2 strictly
        // exceeds attempt a's maximum possible delay... not guaranteed
        // per-sample; check the raw envelope via many items instead.
        let max_at = |attempt: u32| (0..128).map(|i| b.delay_ms(3, i, attempt)).max().unwrap();
        assert!(max_at(4) > max_at(1), "envelope grows with attempts");
        assert_eq!(b.delay_ms(3, 5, 0), 0, "attempt 0 means no delay");
        assert_eq!(Backoff { base_ms: 0, cap_ms: 64 }.delay_ms(3, 5, 4), 0);
    }

    #[test]
    fn breaker_trips_after_k_and_recovers() {
        let mut cb = CircuitBreaker::new(3);
        assert!(!cb.record_failure(&"comd"));
        assert!(!cb.record_failure(&"comd"));
        assert!(!cb.is_open(&"comd"));
        assert!(cb.record_failure(&"comd"), "third consecutive failure trips");
        assert!(cb.is_open(&"comd"));
        assert!(!cb.record_failure(&"comd"), "open circuit does not re-trip");
        assert_eq!(cb.trips(), 1);

        cb.record_success(&"comd");
        assert!(!cb.is_open(&"comd"), "success closes the circuit");
        assert!(!cb.record_failure(&"comd"), "failure run restarts from zero");
        assert!(!cb.record_failure(&"comd"));
        assert!(cb.record_failure(&"comd"), "can trip again after recovery");
        assert_eq!(cb.trips(), 2);
    }

    #[test]
    fn breaker_keys_are_independent() {
        let mut cb = CircuitBreaker::new(2);
        cb.record_failure(&"a");
        cb.record_failure(&"b");
        assert!(!cb.is_open(&"a") && !cb.is_open(&"b"));
        cb.record_failure(&"a");
        assert!(cb.is_open(&"a"));
        assert!(!cb.is_open(&"b"));
        assert!(!cb.is_open(&"never-seen"));
    }

    #[test]
    fn report_merge_sums_fields() {
        let mut a = SupervisionReport { timeouts: 1, retries: 2, ..Default::default() };
        let b = SupervisionReport {
            timeouts: 3,
            recovered: 4,
            breaker_trips: 1,
            backoff_ms: 10,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.timeouts, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.recovered, 4);
        assert_eq!(a.breaker_trips, 1);
        assert_eq!(a.backoff_ms, 10);
    }

    #[test]
    fn keyed_report_attributes_per_key() {
        let mut k = KeyedSupervisionReport::default();
        k.record(3, &SupervisionReport { breaker_trips: 1, retries: 2, ..Default::default() });
        k.record(7, &SupervisionReport { breaker_trips: 3, ..Default::default() });
        k.record(3, &SupervisionReport { recovered: 1, ..Default::default() });
        assert_eq!(k.total.breaker_trips, 4);
        assert_eq!(k.total.retries, 2);
        assert_eq!(k.per_key[&3].retries, 2);
        assert_eq!(k.per_key[&3].recovered, 1);
        assert_eq!(k.per_key[&7].breaker_trips, 3);
    }

    #[test]
    fn breaker_state_roundtrips_and_attributes_trips() {
        let mut cb = CircuitBreaker::new(2);
        cb.record_failure(&1u64);
        cb.record_failure(&1); // trips 1
        cb.record_failure(&2);
        let exported = cb.export_state();
        assert_eq!(exported, vec![(1, 2, true, 1), (2, 1, false, 0)], "trips attributed per key");

        let restored = CircuitBreaker::restore_state(cb.threshold(), exported.clone());
        assert_eq!(restored.export_state(), exported, "export→restore→export is stable");
        assert!(restored.is_open(&1));
        assert!(!restored.is_open(&2));
        assert_eq!(restored.trips(), 1);
        // The restored breaker continues mid-run: 2 had 1 consecutive
        // failure, one more trips it.
        let mut restored = restored;
        assert!(restored.record_failure(&2));
        assert_eq!(restored.trips(), 2);
    }

    #[test]
    fn retry_transient_retries_then_succeeds() {
        let mut calls = 0;
        let out = edge::retry_transient(4, &Backoff { base_ms: 0, cap_ms: 0 }, 0, || {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
    }

    #[test]
    fn retry_transient_gives_up_on_permanent_and_budget() {
        let mut calls = 0;
        let out: io::Result<()> =
            edge::retry_transient(5, &Backoff { base_ms: 0, cap_ms: 0 }, 0, || {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::PermissionDenied, "permanent"))
            });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls, 1, "permanent errors are not retried");

        let mut calls = 0;
        let out: io::Result<()> =
            edge::retry_transient(3, &Backoff { base_ms: 0, cap_ms: 0 }, 0, || {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::WouldBlock, "always busy"))
            });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(calls, 3, "budget bounds transient retries");
    }
}
