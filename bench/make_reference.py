"""Regenerate bench/reference.json, the committed per-request output digests.

    python3 bench/make_reference.py [WORKLOAD ...]

With workload names, only those workloads' entries are regenerated. Each
distinct ideal of a workload is computed through
``specialize.tutte_of_ideal``, passed through the benchmark's own checks, and
cross-checked against the corank-nullity oracle wherever it has at most 24
hyperplanes. Any disagreement aborts without writing. All three workloads
take about 11 minutes on one core, almost all of it in the oracle.
"""

import json
import os
import shutil
import sys
import time

import run

if not run.use_source_tree():
    sys.exit(f"no package under {run.SRC}")

from idealtutte import crapo, specialize  # noqa: E402
from checks import (  # noqa: E402
    REFERENCE, Gate, complement_vectors, invariant_failures, load_reference, poly_digest,
)
from workloads import WORKLOADS, prepare  # noqa: E402

ORACLE_MAX_ELEMENTS = 24


def main(names):
    gate = Gate(run.ROOT, reference={})
    reference = load_reference() if os.path.exists(REFERENCE) else {"workloads": {}}
    reference["oracle_max_elements"] = ORACLE_MAX_ELEMENTS
    tmp = os.path.join(run.OUT, f"reference-{os.getpid()}")
    try:
        for name in names or WORKLOADS:
            digests, checked = {}, 0
            for req in prepare(name, 0, tmp).unique_requests():
                coeffs = dict(specialize.tutte_of_ideal(req.ideal).coeffs)
                problems = invariant_failures(coeffs, req)
                worked = gate.worked(req)
                if worked is not None and worked != coeffs:
                    problems.append(f"differs from the {req.label} reference")
                vectors = complement_vectors(req)
                if len(vectors) <= ORACLE_MAX_ELEMENTS:
                    t0 = time.perf_counter()
                    cfg = crapo.VectorConfig(vectors, dim=req.ideal.rst.rank)
                    oracle = crapo.tutte_corank_nullity(cfg, max_elements=ORACLE_MAX_ELEMENTS)
                    if dict(oracle.coeffs) != coeffs:
                        problems.append("differs from the corank-nullity oracle")
                    checked += 1
                    if len(vectors) >= 20:
                        print(f"oracle |H|={len(vectors)} {req.key[:40]}: "
                              f"{time.perf_counter() - t0:.1f}s", flush=True)
                if problems:
                    sys.exit(f"{req.key}: {'; '.join(problems)}")
                digests[req.key] = poly_digest(coeffs)
            reference["workloads"][name] = {"oracle_checked": checked, "digests": digests}
            print(f"{name}: {len(digests)} digests, {checked} oracle-checked", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
