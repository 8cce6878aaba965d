//! Simulator throughput probe: whole-epoch simulation speed (1 µs epochs
//! on the 16-CU small platform) of the Quick-scale lulesh workload, the
//! *baseline probe*. Full mode writes it to `results/BENCH_parsim.json`.
//!
//! Smoke mode (`PCSTALL_BENCH_SMOKE=1`, the CI path) re-measures the probe
//! and fails loudly if its throughput regressed more than
//! `PCSTALL_PARSIM_TOL` (default 0.10 = 10%) below the committed JSON,
//! without overwriting the committed file.
//!
//! The committed JSON's `rows` measured a since-deleted lane scheduler;
//! the smoke gate reads only `baseline_probe`.

use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use gpu_sim::time::Femtos;
use std::hint::black_box;
use std::time::Instant;

const BASELINE_WORKLOAD: &str = "lulesh";
const EPOCHS_PER_ROUND: usize = 20;
const ROUNDS: usize = 3;
/// Measurement windows the smoke gate tries before declaring a
/// regression: the shared container's throughput swings ±30% over
/// minutes, and a floor check only needs one honest window.
const SMOKE_WINDOWS: usize = 5;

fn warmed_gpu(workload: &str) -> Gpu {
    let app = workloads::by_name(workload, workloads::Scale::Quick).unwrap();
    let mut gpu = Gpu::new(GpuConfig::small(), app);
    gpu.run_epoch(Femtos::from_micros(2));
    gpu
}

/// Epochs/sec starting from `warm`, summarized over `ROUNDS` rounds of
/// `EPOCHS_PER_ROUND` epochs each. The median is the
/// headline (and what the smoke gate compares): robust against a slow
/// outlier round, unlike a single shot, while min/max and the raw runs go
/// into the JSON so a suspicious number can be audited.
fn epochs_per_sec(warm: &Gpu) -> bench::RepStats {
    bench::repeat_measure(ROUNDS, || {
        let mut gpu = warm.clone();
        let start = Instant::now();
        for _ in 0..EPOCHS_PER_ROUND {
            black_box(gpu.run_epoch(Femtos::from_micros(1)));
        }
        EPOCHS_PER_ROUND as f64 / start.elapsed().as_secs_f64()
    })
}

/// Pulls `"epochs_per_sec": <float>` out of the committed JSON's
/// `baseline_probe` object. Hand-rolled on purpose: the bench writes this
/// file itself in a fixed shape, and the crate deliberately has no JSON
/// parser dependency.
fn committed_baseline(json: &str) -> Option<f64> {
    let probe = &json[json.find("\"baseline_probe\"")?..];
    let field = &probe[probe.find("\"epochs_per_sec\":")?..];
    let rest = field.split_once(':')?.1;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    let smoke = std::env::var("PCSTALL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let tol: f64 = std::env::var("PCSTALL_PARSIM_TOL")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.10);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let path = harness::report::results_dir().join("BENCH_parsim.json");

    let probe_gpu = warmed_gpu(BASELINE_WORKLOAD);
    let probe = epochs_per_sec(&probe_gpu);
    let probe_rate = probe.median;
    println!("baseline_probe[{BASELINE_WORKLOAD}]: {probe_rate:.1} epochs/sec (median)");

    if smoke {
        // Regression gate only; the committed JSON stays untouched.
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!(
                "[parsim] FAIL: cannot read committed {} ({e}); run the full bench \
                 (no PCSTALL_BENCH_SMOKE) to establish a baseline",
                path.display()
            );
            std::process::exit(1);
        });
        let committed = committed_baseline(&json).unwrap_or_else(|| {
            eprintln!("[parsim] FAIL: no baseline_probe in {}", path.display());
            std::process::exit(1);
        });
        let floor = committed * (1.0 - tol);
        // Throughput is max-bounded by the code and min-bounded by how
        // loaded the shared container happens to be, so a single slow
        // window is not evidence of a regression — but no number of
        // retries lets genuinely regressed code clear the floor. Accept
        // the first window whose median does; fail after SMOKE_WINDOWS,
        // with the retries spread out (1+2+4+8 s worst case) so a slow
        // spell can pass.
        let mut best = probe_rate;
        for attempt in 1..SMOKE_WINDOWS {
            if best >= floor {
                break;
            }
            std::thread::sleep(std::time::Duration::from_secs(1 << (attempt - 1)));
            let again = epochs_per_sec(&probe_gpu);
            println!(
                "baseline_probe[{BASELINE_WORKLOAD}] retry {attempt}: {:.1} \
                 epochs/sec (median)",
                again.median
            );
            best = best.max(again.median);
        }
        if best < floor {
            eprintln!(
                "[parsim] FAIL: simulator throughput regressed: best median {best:.1} \
                 epochs/sec over {SMOKE_WINDOWS} windows < {floor:.1} (committed \
                 {committed:.1} - {:.0}% tolerance)",
                tol * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "[parsim] smoke OK: {best:.1} epochs/sec vs committed {committed:.1} \
             (floor {floor:.1} at {:.0}% tolerance)",
            tol * 100.0
        );
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"parsim_baseline_probe\",\n  \"platform\": \
         \"small-16cu/quick/1us-epochs\",\n  \"cores\": {cores},\n  \
         \"epochs_per_round\": {EPOCHS_PER_ROUND},\n  \"rounds\": {ROUNDS},\n  \
         \"baseline_probe\": {{\"workload\": \"{BASELINE_WORKLOAD}\", \
         \"epochs_per_sec\": {probe_rate:.3}, {}}}\n}}\n",
        probe.json_fields("epochs_per_sec")
    );
    harness::report::write_atomic(&path, &json).expect("write BENCH_parsim.json");
    println!("wrote {}", path.display());
}
