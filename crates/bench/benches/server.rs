//! Policy-server throughput bench: sustained decisions/sec and p99
//! per-epoch decision latency vs tenant count, at 1 and 8 shards.
//!
//! Each cell drives a clean closed loop (every tenant delivers every
//! epoch, no faults, uncapped power) through [`serve::PolicyServer`] and
//! measures:
//!
//! * **decisions/sec** — tenants × epochs over the full loop wall time,
//!   ingest included (the sustained rate a driver actually sees);
//! * **p99 epoch latency** — 99th percentile of `run_epoch` wall time,
//!   the per-epoch decision deadline the server can hold.
//!
//! Honest caveat: the CI container is effectively **single-core**, so the
//! 8-shard column measures sharding *overhead* (mutex + reassembly on one
//! core), not parallel speedup; treat shards=1 as the throughput headline
//! and the 1-vs-8 delta as the cost of the sharded path. Decision logs are
//! bit-identical across the two (pinned by `serve`'s tests), so the
//! numbers are comparable runs of the same work.
//!
//! Set `PCSTALL_BENCH_SMOKE=1` for the single-rep CI smoke path, which
//! exercises the loop but leaves the committed JSON untouched. Full runs
//! rewrite `results/BENCH_server.json` (min/median/max over ≥3 reps).

use dvfs::states::FreqStates;
use gpu_sim::time::Frequency;
use serve::{PolicyServer, ServerConfig, TelemetryBatch};
use std::time::Instant;

/// One measured run: returns (decisions_per_sec, p99_epoch_ms).
fn run_once(tenants: u64, shards: usize, epochs: u64) -> (f64, f64) {
    let states = FreqStates::paper();
    let cfg = ServerConfig {
        shards,
        max_live: tenants as usize,
        queue_capacity: (tenants as usize * 2).max(64),
        states: states.clone(),
        power_cap_w: f64::INFINITY,
        seed: 42,
        ..ServerConfig::default()
    };
    let mut server = PolicyServer::new(cfg, exec::global_pool());
    let mut cur = vec![states.min(); tenants as usize];
    let mut epoch_ms = Vec::with_capacity(epochs as usize);
    let t0 = Instant::now();
    for e in 0..epochs {
        for t in 0..tenants {
            let rec = serve::synth_record(42, t, e, cur[t as usize]);
            server.submit(TelemetryBatch { tenant: t, tier: (t % 3) as u8, records: vec![rec] });
        }
        let e0 = Instant::now();
        let decisions = server.run_epoch();
        epoch_ms.push(e0.elapsed().as_secs_f64() * 1e3);
        for d in &decisions {
            cur[d.tenant as usize] = Frequency::from_mhz(d.freq_mhz);
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    let dps = (tenants * epochs) as f64 / total_s;
    epoch_ms.sort_by(f64::total_cmp);
    let idx = ((epoch_ms.len() as f64 * 0.99).ceil() as usize).clamp(1, epoch_ms.len()) - 1;
    (dps, epoch_ms[idx])
}

fn main() {
    let smoke = std::env::var("PCSTALL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let reps = if smoke { 1 } else { 3 };
    let epochs: u64 = if smoke { 12 } else { 60 };
    let tenant_counts: &[u64] = if smoke { &[8, 32, 64] } else { &[32, 128, 512] };
    let shard_counts = [1usize, 8usize];

    let mut rows = Vec::new();
    for &tenants in tenant_counts {
        for &shards in &shard_counts {
            let mut dps_runs = Vec::with_capacity(reps);
            let mut p99_runs = Vec::with_capacity(reps);
            for _ in 0..reps {
                let (dps, p99) = run_once(tenants, shards, epochs);
                dps_runs.push(dps);
                p99_runs.push(p99);
            }
            let dps = bench::rep_stats(&dps_runs);
            let p99 = bench::rep_stats(&p99_runs);
            println!(
                "tenants {tenants:>4}  shards {shards}  {:>9.0} decisions/s  p99 {:.3} ms",
                dps.median, p99.median
            );
            rows.push(format!(
                "    {{ \"tenants\": {tenants}, \"shards\": {shards}, {}, {} }}",
                dps.json_fields("decisions_per_s"),
                p99.json_fields("p99_epoch_ms"),
            ));
        }
    }

    if smoke {
        // Smoke is a does-the-loop-run gate; the committed full-run
        // numbers stay as they are.
        println!("[server] smoke OK (committed BENCH_server.json untouched)");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"server\",\n  \"reps\": {reps},\n  \
         \"epochs\": {epochs},\n  \"note\": \"single-core CI container: shards=8 measures the \
         sharded path's overhead on one core, not parallel speedup; decisions/sec include \
         ingest (submit) time\",\n  \"grid\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    let path = harness::report::results_dir().join("BENCH_server.json");
    harness::report::write_atomic(&path, &json).expect("write BENCH_server.json");
    println!("wrote {}", path.display());
}
