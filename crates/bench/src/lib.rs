//! Shared statistics for the self-timed benches.
//!
//! Each `[[bench]]` target is a plain `fn main` (`harness = false`) that
//! times one layer, writes its `results/BENCH_*.json` row through
//! `harness::report::results_dir`, and under `PCSTALL_BENCH_SMOKE=1` runs
//! one short pass as a CI gate. The paper's figures and tables are not
//! benches: `repro run <id>` regenerates and archives them.

/// Min / median / max over N repetitions of a self-timed measurement.
///
/// Every `BENCH_*.json` writer reports these instead of a single-shot
/// number so the perf-regression gates compare a robust statistic, not
/// noise: `median` is the headline, `min`/`max` bound the spread, and the
/// raw `runs` go into the JSON so a suspicious median can be audited.
#[derive(Debug, Clone, PartialEq)]
pub struct RepStats {
    /// Slowest repetition (for rates: the worst run).
    pub min: f64,
    /// Middle repetition — the headline number.
    pub median: f64,
    /// Fastest repetition (for rates: the best run).
    pub max: f64,
    /// The raw per-repetition values, in measurement order.
    pub runs: Vec<f64>,
}

impl RepStats {
    /// JSON fragment with the three summary fields plus the raw runs.
    /// Callers splice this into their hand-rolled row objects.
    pub fn json_fields(&self, prefix: &str) -> String {
        let runs: Vec<String> = self.runs.iter().map(|r| format!("{r:.3}")).collect();
        format!(
            "\"{prefix}_min\": {:.3}, \"{prefix}_median\": {:.3}, \
             \"{prefix}_max\": {:.3}, \"{prefix}_runs\": [{}]",
            self.min,
            self.median,
            self.max,
            runs.join(", ")
        )
    }
}

/// Summarizes `runs` (which must be non-empty; benches control their own
/// repetition counts). Median of an even count averages the middle pair.
pub fn rep_stats(runs: &[f64]) -> RepStats {
    assert!(!runs.is_empty(), "rep_stats needs at least one run");
    let mut sorted = runs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = sorted.len();
    let median = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
    RepStats { min: sorted[0], median, max: sorted[n - 1], runs: runs.to_vec() }
}

/// Measures `f` `reps` times and summarizes. The closure returns the
/// figure of merit for one repetition (e.g. epochs/sec).
pub fn repeat_measure(reps: usize, mut f: impl FnMut() -> f64) -> RepStats {
    let runs: Vec<f64> = (0..reps).map(|_| f()).collect();
    rep_stats(&runs)
}
