"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs a few cheap requests of each kind, checks that their true outputs pass,
then corrupts them (a changed coefficient, a tampered cli JSON, a non-zero
exit code, a raised exception, the published I_d pair) and checks that each
corruption is counted as a failed request. Exits non-zero if any case goes
the wrong way.
"""

import os
import shutil
import sys

import run

if not run.use_source_tree():
    sys.exit(f"no package under {run.SRC}")

from idealtutte.exactpoly import BivariatePolynomial, parse_polynomial  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def cheapest(prepared, k):
    reqs = prepared.unique_requests()
    return sorted(reqs, key=lambda r: (len(r.ideal.complement_indices()), r.key))[:k]


def main():
    gate = checks.Gate(run.ROOT)
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    try:
        return cases(gate, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cases(gate, workdir):
    exc = workloads.prepare("exceptional", 1, None)
    cls = workloads.prepare("classical-random", 1, None)
    sweep = workloads.prepare("cli-sweep", 1, workdir)
    i_d = next(r for r in cls.requests if r.label == "I_d")
    exc.phases = [workloads.Phase("compute", cheapest(exc, 3) + [i_d])]
    sweep.phases = [workloads.Phase("cold", cheapest(sweep, 2)),
                    workloads.Phase("warm", cheapest(sweep, 2))]
    good = workloads.run_pass(exc, 0)[0] + workloads.run_pass(sweep, 0)[0]

    bad = []
    o = good[1]
    poly = dict(o.poly.coeffs)
    key = next(iter(poly))
    poly[key] += 1
    bad.append(("changed coefficient", workloads.Outcome(
        o.request, o.phase, o.start, o.seconds, poly=BivariatePolynomial(poly))))
    with open(os.path.join(gate.data_dir, "tutte_id.txt")) as fh:
        published = parse_polynomial(fh.read(), ("x", "y"))
    o = next(x for x in good if x.request is i_d)
    bad.append(("published I_d pair", workloads.Outcome(
        o.request, o.phase, o.start, o.seconds, poly=published)))
    o = good[-1]
    bad.append(("tampered cli JSON", workloads.Outcome(
        o.request, o.phase, o.start, o.seconds, stdout=o.stdout.replace('"c": "1"', '"c": "2"', 1),
        code=0)))
    bad.append(("non-zero exit", workloads.Outcome(
        o.request, o.phase, o.start, o.seconds, stdout="", code=1, error="error: boom")))
    bad.append(("raised", workloads.Outcome(
        o.request, o.phase, o.start, o.seconds, error="RuntimeError('boom')")))

    ok = True
    failed, _, records = harness.check_all(gate, good)
    print(f"true outputs: {len(good)} checked, {failed} failed")
    ok &= failed == 0
    for name, outcome in bad:
        failed, _, records = harness.check_all(gate, [outcome])
        print(f"{name}: failed={failed} {records[0]['failures']}")
        ok &= failed == 1
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
