"""Correctness gate, run after the timed loop.

Every output is checked against cheap invariants and a committed per-request
digest (``reference.json``, keyed by ideal coordinates, so it holds for any
seed). The worked ideals I_a, I_b, I_c, I_f and I_e are also compared with
``tests/data``; I_d is compared with the corank-nullity oracle, because
``tests/data/tutte_id.txt`` holds the published pair, which is known to be
wrong for the displayed ideal.
"""

import hashlib
import json
import os
from fractions import Fraction

from idealtutte import crapo
from idealtutte.exactpoly import parse_polynomial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORKED_FILES = {"I_a": "tutte_ia.txt", "I_b": "tutte_ib.txt", "I_c": "tutte_ic.txt",
                "I_f": "tutte_if.txt", "I_e": "tutte_ie.txt"}


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def poly_digest(coeffs):
    """Digest of a polynomial given as {(dx, dy): c}, independent of term order."""
    terms = sorted([dx, dy, str(c)] for (dx, dy), c in coeffs.items())
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()[:16]


def workload_digest(digests):
    """Digest of a whole workload's outputs, from {request key: digest}."""
    lines = "".join(f"{k}={d}\n" for k, d in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def exact_rank(vectors):
    """Rank over the rationals, kept apart from the package's own rank code so
    the degree checks do not trust what they check."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def complement_vectors(request):
    return [r.simple_coords for r in request.ideal.complement_roots()]


def invariant_failures(coeffs, request):
    vectors = complement_vectors(request)
    h, rank = len(vectors), exact_rank(vectors)
    out = []
    if any(c <= 0 for c in coeffs.values()):
        out.append("a coefficient is not positive")
    if sum(c * 2 ** (dx + dy) for (dx, dy), c in coeffs.items()) != 2 ** h:
        out.append(f"T(2,2) != 2^{h}")
    if coeffs and max(dx for dx, _ in coeffs) > rank:
        out.append(f"x-degree exceeds rank {rank}")
    if coeffs and max(dy for _, dy in coeffs) > h - rank:
        out.append(f"y-degree exceeds |H| - rank = {h - rank}")
    return out


def output_coeffs(outcome):
    """The polynomial an outcome returned, as {(dx, dy): c}; raises ValueError
    when there is none."""
    if outcome.error is not None and outcome.stdout is None:
        raise ValueError(f"raised {outcome.error}")
    if outcome.stdout is None:
        return dict(outcome.poly.coeffs)
    if outcome.code != 0:
        raise ValueError(f"exit code {outcome.code}: {outcome.error}")
    body = json.loads(outcome.stdout)
    return {(int(t["dx"]), int(t["dy"])): int(t["c"]) for t in body["terms"]}


class Gate:
    """Expected outputs: committed digests plus the worked-ideal references."""

    def __init__(self, root, reference=None):
        if reference is None:
            reference = {}
            for entry in load_reference()["workloads"].values():
                reference.update(entry["digests"])
        self.digests = reference
        self.data_dir = os.path.join(root, "tests", "data")
        self._worked = {}
        self._verdicts = {}

    def worked(self, request):
        """Expected coefficients for a worked ideal (None for other ideals)."""
        label = request.label
        if label is None:
            return None
        if label not in self._worked:
            if label == "I_d":
                cfg = crapo.VectorConfig(complement_vectors(request), dim=request.ideal.rst.rank)
                self._worked[label] = dict(crapo.tutte_corank_nullity(cfg).coeffs)
            else:
                with open(os.path.join(self.data_dir, WORKED_FILES[label])) as fh:
                    self._worked[label] = dict(parse_polynomial(fh.read(), ("x", "y")).coeffs)
        return self._worked[label]

    def check(self, outcome):
        """Return (digest or None, [failure reasons]) for one outcome."""
        req = outcome.request
        try:
            coeffs = output_coeffs(outcome)
        except (ValueError, KeyError, TypeError) as exc:
            return None, [f"no polynomial: {exc}"]
        digest = poly_digest(coeffs)
        if (req.key, digest) not in self._verdicts:
            failures = invariant_failures(coeffs, req)
            want = self.digests.get(req.key)
            if want is None:
                failures.append("no committed reference digest")
            elif want != digest:
                failures.append(f"digest {digest} != reference {want}")
            worked = self.worked(req)
            if worked is not None and worked != coeffs:
                failures.append(f"differs from the {req.label} reference")
            self._verdicts[req.key, digest] = failures
        return digest, list(self._verdicts[req.key, digest])
