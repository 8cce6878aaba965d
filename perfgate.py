#!/usr/bin/env python3
"""Speed gate: perfbench A/B against the parent commit, on this host.

    python3 perfgate.py

Run from anywhere inside the repository. The base is `HEAD` when tracked
files differ from it (uncommitted work is the change), otherwise `HEAD~1`
(the last commit is the change). perfbench is built twice, one after
the other, in the same temporary directory outside the checkout: once
from a `git archive` of the base and once from a copy of the working
tree (tracked and untracked files, ignored ones left out). One path for
both builds keeps path-derived symbol names, and so code layout, from
differing between the sides. The checkout itself, `perfbench/Cargo.lock`
included, is never written.

After one uncounted warm-up run, the two binaries run in alternating
pairs (the order flips every pair) with `--seconds 1 --trace 0`; both
sides of a pair get the same seed and the seed rotates per pair. Per
gated metric the gate takes the change/base ratio of every pair and:

* fails if any run exits non-zero or reports `correct: false`;
* adds pairs, up to MAX_PAIRS, while the ratios' quartile spread
  (q3 - q1) is wider than the bound;
* fails with UNRESOLVED if it is still wider at MAX_PAIRS, never passes;
* otherwise fails if the median ratio is worse than 1 - bound.

A deliberate slowdown therefore fails the commit that introduces it and
no later one: nothing is compared against numbers from another host.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# (workload, metric, bound): the median change/base ratio may drop by at
# most `bound`; both metrics are higher-is-better.
GATES = [
    ("sim-pcstall", "epochs_per_s", 0.10),
    ("serve-tcp", "decisions_per_s", 0.25),
]
# perfbench makes its minimum of 3 passes at any --seconds below 12.5; one
# run takes about 35 s on a 2-vCPU host either way.
SECONDS = 1
FIRST_PAIRS = 3
MAX_PAIRS = 7
FIRST_SEED = 1


def git(root, *args):
    return subprocess.run(
        ["git", "-C", root, *args], check=True, stdout=subprocess.PIPE
    ).stdout


def base_rev(root):
    dirty = git(root, "status", "--porcelain", "--untracked-files=no").strip()
    return "HEAD" if dirty else "HEAD~1"


def export_base(root, rev, dest):
    archive = subprocess.Popen(["git", "-C", root, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"perfgate: git archive {rev} failed")


def export_worktree(root, dest):
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.decode().split("\0")):
        src = os.path.join(root, rel)
        if os.path.isfile(src):  # a tracked file deleted in the change is absent
            os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def build(tmp, label, export):
    """Exports a tree into `tmp/tree`, builds perfbench there, keeps only
    the binary and returns its path. The binary is `tmp/<first letter of
    label>/perfbench`, so both sides' argv[0] has the same length: the
    process's initial stack layout, and with it alignment, depends on it."""
    start = time.monotonic()
    tree = os.path.join(tmp, "tree")
    os.mkdir(tree)
    export(tree)
    perfbench = os.path.join(tree, "perfbench")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(perfbench, "Cargo.toml"),
           "--target-dir", os.path.join(perfbench, "target")]
    if subprocess.run(cmd).returncode != 0:
        sys.exit(f"perfgate: building perfbench for {label} failed")
    binary = os.path.join(tmp, label[0], "perfbench")
    os.mkdir(os.path.dirname(binary))
    shutil.move(os.path.join(perfbench, "target", "release", "perfbench"), binary)
    shutil.rmtree(tree)
    print(f"perfgate: built {label} in {time.monotonic() - start:.0f} s", flush=True)
    return binary


def run(binary, workload, metric, seed):
    """One perfbench run; returns the metric, or None after printing why it failed.

    Each run executes a fresh copy of the binary. The two sides' builds
    differ only in symbol names and build id, yet in one A/A gate every
    pair read the same side 11-16% faster: a property of the file, such
    as where its pages sit in memory, can bias one side for a whole gate.
    A new file per run turns that into per-run noise the median absorbs.
    """
    fresh = binary + ".run"
    shutil.copy(binary, fresh)
    cmd = [fresh, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.remove(fresh)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if out.returncode != 0 or not result or not result.get("correct"):
        sys.stderr.write(out.stderr[-2000:])
        print(f"perfgate: {' '.join(cmd)} failed (exit {out.returncode})")
        return None
    return result["metrics"][metric]["value"]


def spread(ratios):
    # Quartiles interpolated between observed ratios (numpy's and R's
    # default). The exclusive method extrapolates past the extremes at
    # small n, reading about 1.5 sigma at 7 pairs where the population
    # quartile spread is 1.35 sigma.
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return q3 - q1


def gate(binaries, workload, metric, bound):
    """Runs pairs until resolved; returns True when the change passes."""
    ratios = []
    while True:
        pair = len(ratios)
        seed = FIRST_SEED + pair
        order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
        got = {}
        for side in order:
            got[side] = run(binaries[side], workload, metric, seed)
            if got[side] is None:
                return False
        ratios.append(got["change"] / got["base"])
        print(f"perfgate: {workload} pair {pair + 1} seed {seed}: {metric} "
              f"base {got['base']:.1f} change {got['change']:.1f} "
              f"ratio {ratios[-1]:.3f}", flush=True)
        if len(ratios) < FIRST_PAIRS:
            continue
        wide = spread(ratios) > bound
        if wide and len(ratios) < MAX_PAIRS:
            continue
        median = statistics.median(ratios)
        summary = (f"{workload} {metric}: median ratio {median:.3f} over {len(ratios)} "
                   f"pairs, quartile spread {spread(ratios):.3f}, bound {bound:.2f}")
        if wide:
            print(f"perfgate: UNRESOLVED {summary}")
            return False
        ok = median >= 1.0 - bound
        print(f"perfgate: {'PASS' if ok else 'FAIL'} {summary}")
        return ok


def main():
    start = time.monotonic()
    # Turn SIGTERM into SystemExit so the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfgate: terminated"))
    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    rev = base_rev(root)
    print(f"perfgate: base {rev} ({git(root, 'rev-parse', '--short', rev).decode().strip()}) "
          "vs the working tree", flush=True)
    with tempfile.TemporaryDirectory(prefix="perfgate-") as tmp:
        binaries = {
            "base": build(tmp, "base", lambda tree: export_base(root, rev, tree)),
            "change": build(tmp, "change", lambda tree: export_worktree(root, tree)),
        }
        # The first run after the builds can read slow (in A/A runs one
        # was 22% below its pair's other side), so it is not counted.
        workload, metric, _ = GATES[0]
        if run(binaries["base"], workload, metric, FIRST_SEED) is None:
            sys.exit(1)
        ok = all([gate(binaries, *g) for g in GATES])
    print(f"perfgate: {'OK' if ok else 'FAILED'} in {time.monotonic() - start:.0f} s")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
