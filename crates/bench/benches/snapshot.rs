//! Checkpoint subsystem benchmark: snapshot codec throughput and the
//! warmup-reuse win.
//!
//! Two measurements, both archived to `results/BENCH_snapshot.json`:
//!
//! * **Codec throughput** — `Gpu::save_snapshot` / `Gpu::load_snapshot`
//!   over a warmed-up GPU, in MB/s (median of several rounds).
//! * **Warmup-reuse grid** — a P-policy sweep over one application where
//!   every session needs the same W-epoch warmup prefix. The cold path
//!   re-simulates the warmup per policy (P × (W + R) epochs); the warm
//!   path simulates it once, snapshots it into a content-addressed store
//!   and restores it per policy (W + P × (restore + R)). The restored
//!   state is bit-exact (pinned by `harness/tests/snapshot_resume.rs`),
//!   so the speedup is pure skipped work.
//!
//! Set `PCSTALL_BENCH_SMOKE=1` for single-iteration rounds (the CI smoke
//! path); smoke runs only print, leaving the committed JSON untouched.

use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use harness::runner::RunConfig;
use harness::session::Session;
use harness::snapcache;
use pcstall::policy::PolicyKind;
use snapshot::SnapshotStore;
use std::hint::black_box;
use std::time::Instant;

/// Warmup epochs every session of the grid shares.
const WARMUP_EPOCHS: usize = 40;
/// Post-warmup epochs each policy actually runs.
const RUN_EPOCHS: usize = 10;

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Static(1300),
        PolicyKind::Static(1700),
        PolicyKind::Static(2200),
        PolicyKind::Reactive(pcstall::estimators::CuEstimator::Stall),
    ]
}

fn bench_cfg(policy: PolicyKind) -> RunConfig {
    let mut cfg = RunConfig::paper(policy);
    cfg.gpu = GpuConfig::tiny();
    cfg.max_epochs = RUN_EPOCHS;
    cfg
}

/// Milliseconds of `f` per round over `rounds` rounds, summarized (median
/// headline, min/max/runs archived in the JSON; milliseconds keep the
/// fixed 3-decimal JSON fields meaningful for sub-second rounds).
fn round_ms(rounds: usize, mut f: impl FnMut()) -> bench::RepStats {
    bench::repeat_measure(rounds, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    })
}

fn main() {
    let smoke = std::env::var("PCSTALL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let rounds = if smoke { 1 } else { 5 };
    let iters: usize = if smoke { 4 } else { 20 };
    let app = workloads::by_name("comd", workloads::Scale::Quick).expect("registered");
    let base = bench_cfg(PolicyKind::Static(1700));

    // --- Codec throughput over a warmed GPU ----------------------------
    let warmed = snapcache::cold_warmup_gpu(&app, &base, WARMUP_EPOCHS);
    let bytes = warmed.save_snapshot();
    let mb = bytes.len() as f64 / 1e6;
    let save_stats = round_ms(rounds, || {
        for _ in 0..iters {
            black_box(warmed.save_snapshot());
        }
    });
    let restore_stats = round_ms(rounds, || {
        for _ in 0..iters {
            black_box(Gpu::load_snapshot(&bytes).expect("own snapshot decodes"));
        }
    });
    let save_s = save_stats.median / 1e3 / iters as f64;
    let restore_s = restore_stats.median / 1e3 / iters as f64;
    let save_mb_s = mb / save_s;
    let restore_mb_s = mb / restore_s;
    println!(
        "codec: {} byte snapshot — save {save_mb_s:.0} MB/s, restore {restore_mb_s:.0} MB/s",
        bytes.len()
    );

    // --- Warmup-reuse grid: cold vs warm -------------------------------
    let ps = policies();
    let run_tail = |mut session: Session| {
        session.run(&mut []);
        black_box(session.epochs());
    };
    let cold_stats = round_ms(rounds, || {
        for &p in &ps {
            let cfg = bench_cfg(p);
            let gpu = snapcache::cold_warmup_gpu(&app, &cfg, WARMUP_EPOCHS);
            run_tail(Session::with_warm_gpu(&app, &cfg, gpu));
        }
    });
    let warm_stats = round_ms(rounds, || {
        // A fresh in-memory store per round: the first policy pays the
        // warmup + snapshot, the rest restore — exactly what a sweep sees.
        let mut store = SnapshotStore::in_memory(4);
        for &p in &ps {
            let cfg = bench_cfg(p);
            let gpu =
                snapcache::warmed_gpu_in(&mut store, &app, &cfg, WARMUP_EPOCHS).expect("in-memory");
            run_tail(Session::with_warm_gpu(&app, &cfg, gpu));
        }
    });
    let cold_s = cold_stats.median / 1e3;
    let warm_s = warm_stats.median / 1e3;
    let speedup = cold_s / warm_s;
    println!(
        "warmup reuse: {} policies x ({WARMUP_EPOCHS} warmup + {RUN_EPOCHS} run) epochs — \
         cold {:.1} ms, warm {:.1} ms ({speedup:.2}x)",
        ps.len(),
        cold_s * 1e3,
        warm_s * 1e3,
    );

    if smoke {
        println!("[snapshot] smoke OK (committed BENCH_snapshot.json untouched)");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"snapshot\",\n  \"workload\": \"comd-quick/tiny/1us\",\n  \
         \"smoke\": {smoke},\n  \"snapshot_bytes\": {},\n  \"save_mb_per_s\": {save_mb_s:.1},\n  \
         \"restore_mb_per_s\": {restore_mb_s:.1},\n  \"grid_policies\": {},\n  \
         \"warmup_epochs\": {WARMUP_EPOCHS},\n  \"run_epochs\": {RUN_EPOCHS},\n  \
         \"cold_s\": {cold_s:.6},\n  \"warm_s\": {warm_s:.6},\n  \
         \"warm_reuse_speedup\": {speedup:.3},\n  {},\n  {},\n  {},\n  {}\n}}\n",
        bytes.len(),
        ps.len(),
        save_stats.json_fields("save_round_ms"),
        restore_stats.json_fields("restore_round_ms"),
        cold_stats.json_fields("cold_ms"),
        warm_stats.json_fields("warm_ms"),
    );
    let path = bench::results_dir().join("BENCH_snapshot.json");
    harness::report::write_atomic(&path, &json).expect("write BENCH_snapshot.json");
    println!("wrote {}", path.display());
}
