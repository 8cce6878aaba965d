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

echo "==> oracle scaling bench (smoke: one iteration per pool size)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench oracle_scaling

# Fault-injection determinism at the thread-count extremes: fault decisions
# hash (seed, epoch, channel, lane) — never thread state — so a faulted
# grid must be bit-identical on one inline lane and on 8 workers.
echo "==> fault injection & degradation ladder @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p harness --test resilience_faults

echo "==> fault injection & degradation ladder @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p harness --test resilience_faults

echo "==> resilience smoke bench (2 apps x 2 policies x 2 fault rates)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench resilience

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

# Sharded-lane determinism at the lane-count extremes: the per-CU lane
# scheduler must be bit-identical to the serial event loop — stats,
# snapshots and completion — whether the env default is serial or 4 lanes.
echo "==> lane determinism @ PCSTALL_SIM_LANES=1"
PCSTALL_SIM_LANES=1 cargo test -q -p gpu-sim --test lane_determinism

echo "==> lane determinism @ PCSTALL_SIM_LANES=4"
PCSTALL_SIM_LANES=4 cargo test -q -p gpu-sim --test lane_determinism

# Bit-exactness oracle for the simulator: epoch stats, snapshot bytes and
# run-to-completion over the Table II suite at 1 and 4 lanes, plus retimed
# runs on 64 and 12 CUs, must match the committed digests line for line.
echo "==> gpu-sim suite digest (diff against suite_digest.expected)"
cargo run -q --release -p gpu-sim --example suite_digest \
  | diff crates/gpu-sim/examples/suite_digest.expected -

# The parsim smoke re-measures only the serial-lane baseline probe and
# fails if it regressed >10% vs the committed BENCH_parsim.json: the lane
# seam must stay free when unused.
echo "==> parsim smoke bench (serial-lane regression gate)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench parsim

# The hotpath smoke re-measures the compute-bound probe set serially and
# fails if any median regressed >10% (PCSTALL_HOTPATH_TOL) vs the
# committed BENCH_hotpath.json: the epochs/sec trajectory only moves up.
echo "==> hotpath smoke bench (epochs/sec regression gate)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench hotpath

# Policy-server determinism at the thread-count extremes: the chaos soak
# (20%-intensity fault storm, hung tenants, torn restore reads, mid-soak
# kill/recover) pins zero tenants lost, zero missed cap epochs, and
# bit-identical decision digests at shard counts 1/2/8 — on one inline
# lane and on 8 workers. The evict/storm/restore fuzz pins restored
# tenants bit-identical to never-evicted twins.
echo "==> policy-server chaos soak & evict/restore fuzz @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p serve --test chaos_soak --test evict_restore

echo "==> policy-server chaos soak & evict/restore fuzz @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p serve --test chaos_soak --test evict_restore

echo "==> policy-server soak via the CLI (storm + torn reads + kill/recover)"
cargo run -q --release --bin repro -- serve --tenants 32 --epochs 60 --shards 2 \
  --faults storm=0.2,seed=9,hang=0.25 --torn 0.25 --kill-at 31

echo "==> server smoke bench (decisions/sec + p99 epoch latency)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench server

# Scenario-frontend determinism at the thread-count extremes: fuzz apps
# hash (seed, index, counter) — never thread state — so generation and
# every property verdict must be bit-identical on one inline lane and on
# 8 workers.
echo "==> scenario fuzzer determinism & properties @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p scenarios --test fuzz_determinism --test fuzz_properties

echo "==> scenario fuzzer determinism & properties @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p scenarios --test fuzz_determinism --test fuzz_properties

echo "==> fuzz smoke via the CLI (25 scenarios x 4 oracles) @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo run -q --release --bin repro -- fuzz --count 25 --seed 42

echo "==> fuzz smoke via the CLI (25 scenarios x 4 oracles) @ PCSTALL_THREADS=8"
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

# Wire-layer determinism at the thread-count extremes: the PR-8 chaos soak
# re-run over the faulty duplex shim (disconnects, bit flips, drops,
# duplicates, delays, splits on every link) must meet the same SLOs and
# produce a decision digest bit-identical to the in-process path at shard
# counts 1/2/8, including across a mid-soak gateway kill/recover. The
# malformed corpus pins every hostile byte stream to a typed rejection.
echo "==> wire chaos soak & malformed-frame corpus @ PCSTALL_THREADS=1"
PCSTALL_THREADS=1 cargo test -q -p wire --test wire_chaos --test malformed_corpus

echo "==> wire chaos soak & malformed-frame corpus @ PCSTALL_THREADS=8"
PCSTALL_THREADS=8 cargo test -q -p wire --test wire_chaos --test malformed_corpus

echo "==> wire TCP loopback (digest parity, busy shed, idle reap, resume)"
cargo test -q -p wire --test tcp_loopback

echo "==> wire kill/recover smoke via the CLI (TCP restart on a new port)"
cargo run -q --release --bin repro -- serve kill-recover --tenants 12 --epochs 30 \
  --max-live 9 --kill-at 15 --seed 7

echo "==> wire smoke bench (frame codec + TCP loopback decisions/sec)"
PCSTALL_BENCH_SMOKE=1 cargo bench -p bench --bench wire

echo "CI OK"
