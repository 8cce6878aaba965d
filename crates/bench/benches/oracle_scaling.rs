//! Thread-scaling benchmark for fork–pre-execute oracle sampling.
//!
//! Times `oracle::sample_with` (the crit_micro oracle workload: comd at
//! Quick scale on the tiny platform, 10 paper states, per-CU domains,
//! 1 µs epochs) on persistent worker pools of 1, 2, 4 and 8 threads and
//! reports samples/sec per pool size plus the speedup over the 1-thread
//! pool. Results go to `results/BENCH_oracle.json`.
//!
//! Honest numbers only: speedup is *reported*, not asserted — a 1-core
//! container legitimately measures ~1× at every pool size. Set
//! `PCSTALL_BENCH_SMOKE=1` to run a single iteration per pool size (the
//! CI smoke path); smoke runs only print, leaving the committed
//! `BENCH_oracle.json` untouched.

use dvfs::domain::DomainMap;
use dvfs::states::FreqStates;
use exec::WorkerPool;
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use gpu_sim::time::Femtos;
use pcstall::oracle;
use std::hint::black_box;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SAMPLES: usize = 5;

fn warmed_gpu() -> Gpu {
    let app = workloads::by_name("comd", workloads::Scale::Quick).unwrap();
    let mut gpu = Gpu::new(GpuConfig::tiny(), app);
    gpu.run_epoch(Femtos::from_micros(2));
    gpu
}

/// Samples/sec of `sample_with` on `pool`, summarized over `SAMPLES`
/// repetitions (median headline, min/max/runs archived).
fn sample_rate(pool: &WorkerPool, gpu: &Gpu, iters: u32) -> bench::RepStats {
    let states = FreqStates::paper();
    let domains = DomainMap::per_cu(gpu.n_cus());
    let duration = Femtos::from_micros(1);
    // Warm-up populates each lane's fork arena, so the timed region
    // measures steady-state (allocation-free) sampling.
    black_box(oracle::sample_with(pool, gpu, duration, &states, &domains));
    bench::repeat_measure(SAMPLES, || {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(oracle::sample_with(pool, gpu, duration, &states, &domains));
        }
        iters as f64 / start.elapsed().as_secs_f64()
    })
}

fn main() {
    let smoke = std::env::var("PCSTALL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let iters: u32 = if smoke { 1 } else { 10 };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let gpu = warmed_gpu();

    let mut rows = Vec::new();
    let mut base_rate = 0.0;
    for threads in THREAD_COUNTS {
        let pool = WorkerPool::new(threads);
        let stats = sample_rate(&pool, &gpu, iters);
        let rate = stats.median;
        if threads == 1 {
            base_rate = rate;
        }
        let speedup = rate / base_rate;
        println!(
            "oracle_sample[{threads} thread{}]: {rate:.1} samples/sec ({speedup:.2}x vs 1 thread)",
            if threads == 1 { "" } else { "s" }
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"samples_per_sec\": {rate:.3}, \
             \"speedup\": {speedup:.3}, {}}}",
            stats.json_fields("samples_per_sec")
        ));
    }
    println!(
        "(machine has {cores} core{}; speedup beyond min(threads, cores) is not expected)",
        if cores == 1 { "" } else { "s" }
    );
    if smoke {
        // Smoke is a does-the-loop-run gate; the committed full-run
        // numbers stay as they are.
        println!("[oracle_scaling] smoke OK (committed BENCH_oracle.json untouched)");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"oracle_sample_scaling\",\n  \"workload\": \
         \"comd-quick/tiny/10-states/per-cu-domains/1us\",\n  \"cores\": {cores},\n  \
         \"iters\": {iters},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = bench::results_dir().join("BENCH_oracle.json");
    harness::report::write_atomic(&path, &json).expect("write BENCH_oracle.json");
    println!("wrote {}", path.display());
}
