"""idealtutte benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see ``workloads.WHY``): classical-random, cli-sweep,
exceptional. One process sends one request at a time, with numpy's BLAS held
to one thread.

--trace 0 times the workload untraced. It runs max(2, round(--seconds /
the workload's nominal pass time)) passes over the request list, each in
its own seeded order, stopping after two once 1.5 x --seconds have gone by.
Cheap requests get extra calls in later passes. A fixed probe loop timed
between calls tracks the host's speed, which on a shared VM swings by up to
2x, and every call is rescaled to the speed at which the probe takes 1 ms;
the unscaled figures are reported alongside. A request's latency is the
median of its rescaled calls; throughput is requests per pass over the sum
of those latencies. Set-up time (not rescaled) is the median of several
fresh interpreters that import the package, build the posets and generate
the inputs.

--trace 1 runs one traced pass, with spans around each layer's public
functions, then one untraced pass, and reports the per-layer metrics.

Every output is checked after the timed loop (see ``checks``). The last line
of standard output is a JSON object with keys correct, attempted, failed and
metrics; the full record, with provenance, the generated inputs and every
request's digest, goes to ``.bench_out/``. Exits 2 without a result when
``src/idealtutte`` is missing.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def use_source_tree():
    """Import the package from this checkout's src/, with BLAS on one thread.
    Returns False when the checkout has no package."""
    if not os.path.isfile(os.path.join(SRC, "idealtutte", "__init__.py")):
        return False
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not use_source_tree():
        print(f"error: no package at {SRC}/idealtutte; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_only:
        workloads.prepare(args.workload, args.seed, args.workdir)
        return 0
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
