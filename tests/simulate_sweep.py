"""Byte-identity sweep of the Monte Carlo `simulate` command.

Prints one line per CLI run, `<sha256> <label>`, where the hash covers
the exit code, stdout and stderr of `pbsgraph simulate ... --no-timestamp`.
Run one copy of it against the src of each of two commits and compare
the outputs; a Monte Carlo change that keeps every draw and count prints
the same lines:

    PYTHONPATH=src python3 tests/simulate_sweep.py > change.txt
    PYTHONPATH=../parent/src python3 tests/simulate_sweep.py > parent.txt

The grid is m = 1..5 at two operating points, both rebuild policies,
dark counts and number-resolving detectors alone and together, with and
without the final measurement, each at --threads 1 and 2 (never more:
each run starts its own workers), and then the first ops of the
benchmark's simulate workload at four benchmark seeds, as that workload
runs them. pytest does not collect this file (its name has no test_
prefix). It imports the simulate workload of this checkout's
benchmarks/ for those op arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
import time
from pathlib import Path

from pbsgraph import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from benchmarks.workloads import Simulate  # noqa: E402

POINTS = ((0.1, 0.7), (0.4, 0.9))
DETECTORS = ((), ("--dark", "0.02"), ("--number-resolving",),
             ("--dark", "0.02", "--number-resolving"))
# Fewer trials as the tree grows, so m=5 under `kept` stays a few seconds.
TRIALS = {1: 40, 2: 40, 3: 20, 4: 8, 5: 3}
BENCH_SEEDS, BENCH_OPS = (1, 2, 3, 4), 10


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()


def grid():
    """(label, argv) for the model grid."""
    for m, (eta_s, eta_d), policy, detector, final, threads in itertools.product(
        range(1, 6), POINTS, ("both", "kept"), DETECTORS, (True, False), (1, 2)
    ):
        flags = [*detector, *(() if final else ("--no-final-measurement",))]
        argv = ["simulate", "--m", str(m), "--eta-s", str(eta_s), "--eta-d", str(eta_d),
                "--trials", str(TRIALS[m]), "--seed", str(1000 * m),
                "--policy", policy, *flags, "--threads", str(threads), "--no-timestamp"]
        yield " ".join(argv[1:]), argv


def main() -> int:
    started = time.perf_counter()
    records = 0
    for label, argv in grid():
        print(_run(argv), label)
        records += 1
    with tempfile.TemporaryDirectory() as tmp:
        for seed in BENCH_SEEDS:
            workload = Simulate(seed, Path(tmp))
            for i, threads in itertools.product(range(BENCH_OPS), (1, 2)):
                argv = workload.argv(i, threads=threads)
                print(_run(argv), f"benchmark seed {seed} op {i}: {' '.join(argv[1:])}")
                records += 1
    print(f"{records} records in {time.perf_counter() - started:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
