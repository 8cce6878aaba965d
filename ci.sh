#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build and the full test suite.
# Mirrors what reviewers run by hand; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Oracle determinism at the thread-count extremes: the parallel oracle must
# be bit-for-bit identical whether the global pool is a single inline lane
# or 8 workers.
echo "==> oracle determinism @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p pcstall --test oracle_determinism

echo "==> oracle determinism @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p pcstall --test oracle_determinism

# Fault-injection determinism at the thread-count extremes: fault decisions
# hash (seed, epoch, channel, lane) — never thread state — so a faulted
# grid must be bit-identical on one inline lane and on 8 workers.
echo "==> fault injection & degradation ladder @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p harness --test resilience_faults

echo "==> fault injection & degradation ladder @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p harness --test resilience_faults

# The smoke grid is what results/resilience.* archive, so it must
# regenerate them byte-identically (~2.5 s).
echo "==> resilience smoke via the CLI (2 apps x 2 policies x 2 fault rates)"
PCSTALL_BENCH_SMOKE=1 cargo run -q --release --bin repro -- run resilience
git diff --exit-code -- results/resilience.md results/resilience.csv results/resilience.json

# Checkpoint/restore determinism at the thread-count extremes: restored
# warmup prefixes and resumed sweeps must be bit-identical to cold runs
# whether the pool is one inline lane or 8 workers.
echo "==> snapshot warmup-reuse & sweep resume @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p harness --test snapshot_resume

echo "==> snapshot warmup-reuse & sweep resume @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p harness --test snapshot_resume

echo "==> snapshot smoke bench (codec throughput + warmup-reuse grid)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench snapshot

# Supervised execution at the thread-count extremes: retry/backoff/breaker
# decisions are pure functions of counters and seeds, so a hang-injected
# grid's recovery schedule — and every surviving cell — must be
# bit-identical on one inline lane and on 8 workers.
echo "==> supervised execution (watchdog/retry/breaker) @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p harness --test supervision

echo "==> supervised execution (watchdog/retry/breaker) @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p harness --test supervision

echo "==> supervision smoke bench (hang-rate ladder)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench supervision

# Archive regression: `repro run` regenerates these committed results
# byte-identically (deterministic at every thread count, ~2.5 s together).
echo "==> archived results regenerate byte-identical (table1, table2, fig05, ablation_scope)"
for id in table1 table2 fig05 ablation_scope; do
  cargo run -q --release --bin repro -- run "$id" > /dev/null
done
git diff --exit-code -- results/table1_storage.md results/table1_storage.csv \
  results/table2_workloads.md results/table2_workloads.csv \
  results/fig05_linearity.md results/fig05_linearity.csv \
  results/ablation_scope.md results/ablation_scope.csv

# Bit-exactness oracle for the simulator: epoch stats, snapshot bytes and
# run-to-completion over the Table II suite, plus retimed runs on 64, 12
# and 1 CUs and on 8 CUs of 80 wavefront slots, must match the committed
# digests line for line.
echo "==> gpu-sim suite digest (diff against suite_digest.expected)"
cargo run -q --release -p gpu-sim --example suite_digest \
  | diff crates/gpu-sim/examples/suite_digest.expected -

# Policy-server chaos soak (20%-intensity fault storm, hung tenants, torn
# restore reads, mid-soak kill/recover): zero tenants lost, zero missed
# cap epochs, the pinned decision digest, and the same digest after the
# kill. The server steps serially and hands no work to the worker pool,
# so one run covers every PCSTALL_THREADS. The evict/storm/restore fuzz
# pins restored tenants bit-identical to never-evicted twins.
echo "==> policy-server chaos soak & evict/restore fuzz"
cargo test -q -p serve --test chaos_soak --test evict_restore

echo "==> policy-server soak via the CLI (storm + torn reads + kill/recover)"
cargo run -q --release --bin repro -- serve --tenants 32 --epochs 60 \
  --faults storm=0.2,seed=9,hang=0.25 --torn 0.25 --kill-at 31

# Scenario-frontend determinism at the thread-count extremes: fuzz apps
# hash (seed, index, counter) — never thread state — so generation and
# every property verdict must be bit-identical on one inline lane and on
# 8 workers.
echo "==> scenario fuzzer determinism & properties @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p scenarios --test fuzz_determinism --test fuzz_properties

echo "==> scenario fuzzer determinism & properties @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p scenarios --test fuzz_determinism --test fuzz_properties

echo "==> fuzz smoke via the CLI (25 scenarios x 3 oracles) @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo run -q --release --bin repro -- fuzz --count 25 --seed 42

echo "==> fuzz smoke via the CLI (25 scenarios x 3 oracles) @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo run -q --release --bin repro -- fuzz --count 25 --seed 42

# Trace round trip over the whole suite: record -> load -> run must be
# bit-identical to running the registry app directly (pinned digests).
echo "==> trace record/load/run round trip (16-workload suite)"
cargo test -q -p scenarios --test trace_roundtrip --test malformed_corpus

# One envelope-attack harness over every framed format: every prefix
# truncation, every single-byte flip, bad magic, future version and
# declared length +/-1 of PCKT traces, PCWR frames and PCSN snapshots must
# each be a typed error — never a panic, never Ok.
echo "==> framed-format malformed corpus (PCKT, PCWR, PCSN)"
cargo test -q --test malformed_corpus

echo "==> scenarios smoke bench (trace codec + fuzz/oracle rates)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench scenarios

# Wire-layer chaos: the one soak loop, serve::drive_soak, run through a
# wire::ClientFleet over the faulty duplex shim (disconnects, bit flips,
# drops, duplicates, delays, splits on every link) must meet the same SLOs
# and produce a decision digest bit-identical to the in-process run of the
# same loop, including across a mid-soak gateway kill/recover. The
# malformed corpus pins every hostile byte stream to a typed rejection.
# Like the server, the wire layer hands no work to the worker pool, so
# PCSTALL_THREADS cannot reach it.
echo "==> wire chaos soak & malformed-frame corpus"
cargo test -q -p wire --test wire_chaos --test malformed_corpus

# The same serve::drive_soak loop over a real TCP loopback through a
# wire::ClientFleet: its digest must equal the in-process soak's.
echo "==> wire TCP loopback (digest parity, busy shed, idle reap, resume)"
cargo test -q -p wire --test tcp_loopback

echo "==> wire kill/recover smoke via the CLI (TCP restart on a new port)"
cargo run -q --release --bin repro -- serve kill-recover --tenants 12 --epochs 30 \
  --max-live 9 --kill-at 15 --seed 7

# Speed gate: perfbench built from the parent (HEAD, or HEAD~1 on a clean
# tree) and from this tree, run in alternating same-seed pairs on this
# host. Fails if sim-pcstall epochs/s drops >10% or serve-tcp decisions/s
# >25% in the median pair ratio, or if the pairs' quartile spread stays
# wider than the bound (UNRESOLVED). Leaves the checkout untouched.
echo "==> perfbench A/B speed gate against the parent commit"
python3 perfgate.py

echo "CI OK"
