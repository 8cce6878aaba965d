//! Supervised-execution benchmark: wall-clock cost of completing a grid
//! under a ladder of injected hang rates (DESIGN.md §10).
//!
//! For each rate a seeded [`faults::ChaosPlan`] arms hangs over the grid
//! cells and the supervised executor — watchdog deadlines, deterministic
//! retry/backoff, circuit breaking — must bring the grid home anyway.
//! Measured per rate: wall time, timeouts, retries, recovered cells and
//! whether every survivor stayed bit-identical to a chaos-free grid.
//! Results land in `results/BENCH_supervision.json`.
//!
//! Set `PCSTALL_BENCH_SMOKE=1` to shrink the ladder for CI; smoke runs
//! only print, leaving the committed JSON untouched.

use faults::{ChaosPlan, FaultConfig};
use gpu_sim::config::GpuConfig;
use harness::runner::RunConfig;
use harness::supervised::{run_grid_supervised, SuperviseConfig};
use harness::sweeps::run_grid;
use pcstall::policy::PolicyKind;
use std::time::{Duration, Instant};

fn main() {
    let smoke = std::env::var("PCSTALL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let rates: &[f64] = if smoke { &[0.0, 0.20] } else { &[0.0, 0.01, 0.05, 0.20] };
    let app_names: &[&str] =
        if smoke { &["comd", "xsbench"] } else { &["comd", "xsbench", "dgemm", "hacc"] };
    let apps: Vec<_> = app_names
        .iter()
        .map(|n| workloads::by_name(n, workloads::Scale::Quick).expect("registered"))
        .collect();
    let policies = [PolicyKind::Static(1700), PolicyKind::Static(2200)];
    let mut base = RunConfig::paper(PolicyKind::Static(1700));
    base.gpu = GpuConfig::tiny();
    base.max_epochs = 20;
    // Seed 97 arms hang events at both the smoke and full grid sizes.
    let scfg = SuperviseConfig {
        deadline: Some(Duration::from_millis(2_000)),
        max_retries: 3,
        seed: 97,
        ..SuperviseConfig::default()
    };
    let threads = harness::sweeps::default_threads();
    let n_cells = apps.len() * policies.len();

    // Reps per rate: the hang plan is re-armed identically each rep (same
    // seed), so only the wall clock varies; the median is the headline.
    let reps = if smoke { 1 } else { 3 };
    let clean = run_grid(&apps, &policies, &base, threads);
    let mut points: Vec<String> = Vec::new();
    for &rate in rates {
        let make_plan = || {
            (rate > 0.0).then(|| {
                ChaosPlan::from_config(
                    &FaultConfig { seed: scfg.seed, hang_rate: rate, ..FaultConfig::default() },
                    n_cells,
                )
            })
        };
        let armed = make_plan().as_ref().map_or(0, ChaosPlan::remaining);
        let mut last_grid = None;
        let wall_stats = bench::repeat_measure(reps, || {
            let plan = make_plan();
            let t0 = Instant::now();
            let grid = run_grid_supervised(&apps, &policies, &base, threads, &scfg, plan.as_ref());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let survivors_clean = grid
                .cells
                .iter()
                .zip(&clean)
                .all(|(got, want)| got.as_ref().is_none_or(|c| c == want));
            assert!(survivors_clean, "supervision must never alter a surviving cell");
            last_grid = Some(grid);
            ms
        });
        let wall_ms = wall_stats.median;
        let grid = last_grid.expect("at least one rep ran");
        println!(
            "hang rate {rate:.2}: {armed} armed, {} timeouts, {} retries, {} recovered, \
             {}/{n_cells} completed in {wall_ms:.0} ms median of {reps} (survivors clean)",
            grid.report.timeouts,
            grid.report.retries,
            grid.report.recovered,
            grid.cells.iter().flatten().count(),
        );
        points.push(format!(
            "{{\"rate\":{rate:.4},\"armed\":{armed},\"timeouts\":{},\"retries\":{},\
             \"recovered\":{},\"breaker_trips\":{},\"unrecovered\":{},\"completed\":{},\
             \"survivors_clean\":true,\"wall_ms\":{wall_ms:.1}, {}}}",
            grid.report.timeouts,
            grid.report.retries,
            grid.report.recovered,
            grid.report.breaker_trips,
            grid.report.unrecovered,
            grid.cells.iter().flatten().count(),
            wall_stats.json_fields("wall_ms"),
        ));
    }

    if smoke {
        println!("[supervision] smoke OK (committed BENCH_supervision.json untouched)");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"supervision\",\n  \"workload\": \"quick/tiny/1us\",\n  \
         \"smoke\": {smoke},\n  \"grid_cells\": {n_cells},\n  \"deadline_ms\": {},\n  \
         \"max_retries\": {},\n  \"seed\": {},\n  \"points\": [\n    {}\n  ]\n}}\n",
        scfg.deadline.map_or(0, |d| d.as_millis()),
        scfg.max_retries,
        scfg.seed,
        points.join(",\n    "),
    );
    let path = bench::results_dir().join("BENCH_supervision.json");
    harness::report::write_atomic(&path, &json).expect("write BENCH_supervision.json");
    println!("wrote {}", path.display());
}
