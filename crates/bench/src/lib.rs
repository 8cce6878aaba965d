//! Shared statistics and report writer for the self-timed benches.
//!
//! Each `[[bench]]` target is a plain `fn main` (`harness = false`) that
//! times one layer perfbench does not measure and writes its
//! `results/BENCH_*.json` through [`Report`]. Under `PCSTALL_BENCH_SMOKE=1`
//! it runs one short pass as a CI smoke and writes nothing. Speed of the
//! simulator loop and the policy server is gated by perfbench A/B runs
//! (`perfgate.py`), and the paper's figures run through `repro`.

use std::fmt::Display;
use std::process::Command;

/// Min / median / max over N repetitions of a self-timed measurement.
///
/// Every `BENCH_*.json` writer reports these instead of a single-shot
/// number: `median` is the headline, `min`/`max` bound the spread, and the
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

/// True under `PCSTALL_BENCH_SMOKE=1`: one short pass, nothing archived.
pub fn smoke() -> bool {
    std::env::var("PCSTALL_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// One `results/BENCH_<name>.json` file. Every file opens with the same
/// header — `bench`, `workload`, `cores` (available parallelism of the
/// measuring host) and `rev` (`git describe --always --dirty` of the
/// measured tree) — followed by the bench's own fields in insertion order.
pub struct Report {
    name: &'static str,
    fields: Vec<String>,
}

impl Report {
    pub fn new(name: &'static str, workload: &str) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let fields = vec![
            format!("\"bench\": \"{name}\""),
            format!("\"workload\": \"{workload}\""),
            format!("\"cores\": {cores}"),
            format!("\"rev\": \"{}\"", git_rev()),
        ];
        Report { name, fields }
    }

    /// Adds `"key": value`; `value` is written as-is, so it must already
    /// be a JSON value (a number, or a string with its quotes).
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.fields.push(format!("\"{key}\": {value}"));
        self
    }

    /// Adds `stats`' `<prefix>_min/_median/_max/_runs` fields.
    pub fn stats(&mut self, prefix: &str, stats: &RepStats) -> &mut Self {
        self.fields.push(stats.json_fields(prefix));
        self
    }

    /// Writes the file, or under smoke only says the committed one stays.
    pub fn write(&self) {
        let file = format!("BENCH_{}.json", self.name);
        if smoke() {
            println!("[{}] smoke OK (committed {file} untouched)", self.name);
            return;
        }
        let json = format!("{{\n  {}\n}}\n", self.fields.join(",\n  "));
        let path = harness::report::results_dir().join(&file);
        harness::report::write_atomic(&path, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("wrote {}", path.display());
    }
}

fn git_rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(harness::report::results_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(|| "unknown".into(), |out| String::from_utf8_lossy(&out.stdout).trim().into())
}
