//! Self-timed microbenchmarks of the simulator and predictor hot paths.
//!
//! Deliberately framework-free: the build environment resolves crates
//! offline, so timing uses `std::time::Instant` directly — each benchmark
//! runs several sample batches and reports the median ns/op.

use dvfs::domain::DomainMap;
use dvfs::hierarchy::PowerCapConfig;
use dvfs::states::FreqStates;
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Femtos;
use harness::runner::RunConfig;
use harness::session::{EpochCtx, RunObserver, Session};
use pcstall::estimators::CuEstimator;
use pcstall::pc_table::{PcTable, PcTableConfig};
use pcstall::policy::PolicyKind;
use pcstall::sensitivity::LinearModel;
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 7;

/// Runs `f` `iters` times per sample, `SAMPLES` times, and prints the
/// median ns per operation.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    // Warm-up pass (fills caches, triggers lazy init).
    for _ in 0..iters.div_ceil(4).max(1) {
        f();
    }
    let mut per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.total_cmp(b));
    println!("{name}: {:.0} ns/op (median of {SAMPLES}x{iters})", per_op[SAMPLES / 2]);
}

fn warmed_gpu() -> Gpu {
    let app = workloads::by_name("comd", workloads::Scale::Quick).unwrap();
    let mut gpu = Gpu::new(GpuConfig::tiny(), app);
    gpu.run_epoch(Femtos::from_micros(2));
    gpu
}

fn bench_sim_epoch() {
    let gpu = warmed_gpu();
    bench("sim_epoch_1us_tiny_gpu", 50, || {
        let mut g = gpu.clone();
        black_box(g.run_epoch(Femtos::from_micros(1)));
    });
}

fn bench_sim_epoch_into() {
    let gpu = warmed_gpu();
    let mut out = EpochStats::empty();
    bench("sim_epoch_into_1us_tiny_gpu (reused buffers)", 50, || {
        let mut g = gpu.clone();
        g.run_epoch_into(Femtos::from_micros(1), &mut out);
        black_box(&out);
    });
}

fn bench_gpu_clone() {
    let gpu = warmed_gpu();
    bench("gpu_fork_clone_tiny", 200, || {
        black_box(gpu.clone());
    });
}

fn bench_oracle_sample() {
    let gpu = warmed_gpu();
    let states = FreqStates::paper();
    let domains = DomainMap::per_cu(gpu.n_cus());
    bench("oracle_sample_10_states_tiny", 20, || {
        black_box(pcstall::oracle::sample(&gpu, Femtos::from_micros(1), &states, &domains));
    });
}

fn bench_pc_table() {
    let mut t = PcTable::new(PcTableConfig::default());
    for pc in 0..512u32 {
        t.update(pc * 4, LinearModel { i0: pc as f64, s: 0.01 });
    }
    let mut pc = 0u32;
    bench("pc_table_lookup", 100_000, || {
        pc = pc.wrapping_add(52);
        black_box(t.lookup(pc & 0xFFF));
    });
    let mut pc = 0u32;
    bench("pc_table_update", 100_000, || {
        pc = pc.wrapping_add(52);
        t.update(pc & 0xFFF, LinearModel { i0: 5.0, s: 0.02 });
    });
}

/// Watches the simulator's event queue across a run.
#[derive(Default)]
struct HeapWatch {
    max_len: usize,
}

impl RunObserver for HeapWatch {
    fn on_epoch(&mut self, ctx: &EpochCtx<'_>, _stats: &EpochStats) {
        self.max_len = self.max_len.max(ctx.gpu.event_queue_len());
    }
}

/// Datapoint (not a timing): the event queue must stay bounded on a long
/// power-capped run, where every epoch retimes CUs: a retime overwrites
/// the CU's one entry, so the queue never holds more than one per CU.
fn heap_bound_datapoint() {
    let app = workloads::by_name("hacc", workloads::Scale::Quick).unwrap();
    let mut cfg = RunConfig::paper(PolicyKind::Reactive(CuEstimator::Crisp));
    cfg.gpu = GpuConfig::tiny();
    cfg.max_epochs = 400;
    // A tight cap keeps the manager narrowing/widening, maximizing
    // frequency churn.
    cfg.power_cap = Some(PowerCapConfig::new(1.0));
    let mut session = Session::new(&app, &cfg);
    let mut watch = HeapWatch::default();
    session.run(&mut [&mut watch]);
    let n_cus = cfg.gpu.n_cus;
    let bound = n_cus;
    println!(
        "event_queue_max_len: {} entries over {} power-capped epochs ({} CUs; bound {})",
        watch.max_len,
        session.epochs(),
        n_cus,
        bound
    );
    assert!(
        watch.max_len <= bound,
        "event queue grew past one entry per CU: {} > {}",
        watch.max_len,
        bound
    );
}

fn main() {
    bench_sim_epoch();
    bench_sim_epoch_into();
    bench_gpu_clone();
    bench_oracle_sample();
    bench_pc_table();
    heap_bound_datapoint();
}
