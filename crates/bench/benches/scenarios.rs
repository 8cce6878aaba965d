//! Scenario-frontend benchmark: trace codec throughput and fuzzer /
//! property-oracle rates.
//!
//! Three measurements, archived to `results/BENCH_scenarios.json`:
//!
//! * **Trace codec** — `trace::record` / `trace::parse` over the full
//!   16-workload Quick suite, in MB/s (every parse is asserted equal to
//!   the app it was recorded from, so the numbers cover validated
//!   round trips, not just byte shuffling).
//! * **Fuzzer rate** — seeded scenario generation in apps/s. Generation
//!   is a pure function of (seed, index), so this is the cost of
//!   conjuring a fresh validated workload from two integers.
//! * **Property oracle** — `properties::check_all` (monotonicity,
//!   conservation, snapshot round trip) in scenarios/s on the tiny platform — the price of one fuzz verdict.
//!
//! Set `PCSTALL_BENCH_SMOKE=1` for single-iteration rounds — the CI
//! smoke path, which exercises every loop (including the round-trip and
//! zero-violation assertions) but leaves the committed JSON untouched.

use scenarios::{fuzz, trace, PropertyConfig};
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds of `f` per round over `rounds` rounds.
fn round_ms(rounds: usize, mut f: impl FnMut()) -> bench::RepStats {
    bench::repeat_measure(rounds, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    })
}

fn main() {
    let smoke = bench::smoke();
    let rounds = if smoke { 1 } else { 5 };
    let codec_iters: usize = if smoke { 2 } else { 20 };
    let fuzz_count: u64 = if smoke { 8 } else { 64 };
    let oracle_count: u64 = if smoke { 2 } else { 8 };

    // --- Trace codec over the whole suite ------------------------------
    let suite = workloads::suite(workloads::Scale::Quick);
    let traces: Vec<Vec<u8>> = suite.iter().map(trace::record).collect();
    let total_bytes: usize = traces.iter().map(Vec::len).sum();
    let mb = total_bytes as f64 / 1e6;
    let record_stats = round_ms(rounds, || {
        for _ in 0..codec_iters {
            for app in &suite {
                black_box(trace::record(app));
            }
        }
    });
    let parse_stats = round_ms(rounds, || {
        for _ in 0..codec_iters {
            for (bytes, app) in traces.iter().zip(&suite) {
                let parsed = trace::parse(bytes).expect("own trace parses");
                assert_eq!(&parsed, app, "round trip must be exact");
            }
        }
    });
    let record_mb_s = mb / (record_stats.median / 1e3 / codec_iters as f64);
    let parse_mb_s = mb / (parse_stats.median / 1e3 / codec_iters as f64);
    println!(
        "trace codec: {} apps, {total_bytes} bytes — record {record_mb_s:.0} MB/s, \
         parse+verify {parse_mb_s:.0} MB/s",
        suite.len()
    );

    // --- Fuzzer generation rate ----------------------------------------
    let gen_stats = round_ms(rounds, || {
        for index in 0..fuzz_count {
            black_box(fuzz::generate(0xBE9C, index));
        }
    });
    let gen_per_s = fuzz_count as f64 / (gen_stats.median / 1e3);
    println!("fuzzer: {fuzz_count} scenarios/round — {gen_per_s:.0} apps/s");

    // --- Property-oracle throughput ------------------------------------
    let pcfg = PropertyConfig::default();
    let oracle_apps: Vec<_> = (0..oracle_count).map(|i| fuzz::generate(0xBE9C, i)).collect();
    let oracle_stats = round_ms(rounds, || {
        for app in &oracle_apps {
            let violations = scenarios::properties::check_all(app, &pcfg);
            assert!(violations.is_empty(), "oracle bench scenario violated: {violations:?}");
        }
    });
    let oracle_per_s = oracle_count as f64 / (oracle_stats.median / 1e3);
    println!(
        "property oracle: {oracle_count} scenarios x 3 properties/round — {oracle_per_s:.1} \
         scenarios/s"
    );

    bench::Report::new("scenarios", "suite-quick + fuzz/tiny")
        .field("suite_apps", suite.len())
        .field("trace_bytes", total_bytes)
        .field("record_mb_per_s", format!("{record_mb_s:.1}"))
        .field("parse_mb_per_s", format!("{parse_mb_s:.1}"))
        .field("fuzz_apps_per_s", format!("{gen_per_s:.1}"))
        .field("oracle_scenarios_per_s", format!("{oracle_per_s:.2}"))
        .stats("record_round_ms", &record_stats)
        .stats("parse_round_ms", &parse_stats)
        .stats("fuzz_round_ms", &gen_stats)
        .stats("oracle_round_ms", &oracle_stats)
        .write();
}
