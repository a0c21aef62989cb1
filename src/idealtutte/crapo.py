"""Tutte polynomials of integer vector configurations: Crapo's basis-activity
formula and the corank-nullity brute-force oracle.

All rank computations are exact.  ``tutte_crapo`` runs one vectorized engine
at every size: it scores candidate bases in batches in float64/int64,
certifies every batch with an exact integer identity, and recomputes any
batch that drifts or fails certification with the literal activity
definition.  Configurations whose minors could overflow the certificate's
int64 arithmetic go to that literal route as a whole.  The literal route is
also public as ``tutte_crapo_exact``, the reference the tests compare
against; rank computations there use division-free integer elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, hypot, inf, prod

from .errors import GuardExceeded
from .exactpoly import BivariatePolynomial

DEFAULT_MAX_BASIS_SUBSETS = 10 ** 8
DEFAULT_MAX_ORACLE_ELEMENTS = 24


class _Echelon:
    """Incremental division-free row echelon over the integers."""

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p]
                d = row[p]
                v = [a * d - b * c for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        v = self.reduce(vec)
        for p, a in enumerate(v):
            if a:
                g = 0
                for x in v:
                    g = _gcd(g, x)
                if g > 1:
                    v = [x // g for x in v]
                self.rows.append(v)
                self.pivots.append(p)
                return True
        return False

    def contains(self, vec):
        return not any(self.reduce(vec))

    def snapshot(self):
        e = _Echelon()
        e.rows = list(self.rows)
        e.pivots = list(self.pivots)
        return e

    @property
    def rank(self):
        return len(self.rows)


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def rank_of(vectors):
    """Exact rank of a list of integer vectors."""
    ech = _Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


class VectorConfig:
    """An ordered integer vector configuration; the order is the activity order."""

    def __init__(self, vectors, dim=None):
        self.vectors = tuple(tuple(int(x) for x in v) for v in vectors)
        if self.vectors:
            dims = {len(v) for v in self.vectors}
            if len(dims) != 1:
                raise ValueError("mixed vector dimensions")
            self.dim = dims.pop()
        else:
            self.dim = 0 if dim is None else dim
        if dim is not None:
            self.dim = dim
        self.rank = rank_of(self.vectors)

    def __len__(self):
        return len(self.vectors)


class BasisActivity:
    """Internal and external activity counts of one basis."""

    __slots__ = ("basis", "internal", "external")

    def __init__(self, basis, internal, external):
        self.basis = tuple(basis)
        self.internal = internal
        self.external = external

    def __repr__(self):
        return f"BasisActivity({self.basis}, i={self.internal}, e={self.external})"


def enumerate_bases(cfg, max_subsets=DEFAULT_MAX_BASIS_SUBSETS):
    """Yield every basis (size-rank independent subset) as an index tuple, in
    lexicographic order.

    Uses depth-first search with an incremental echelon so dependent prefixes
    are pruned without ever touching their supersets.
    """
    m, r = len(cfg), cfg.rank
    _check_basis_guard(m, r, max_subsets)
    if r == 0:
        yield ()
        return

    def walk(start, chosen, ech):
        if len(chosen) == r:
            yield tuple(chosen)
            return
        # not enough elements left to finish
        for i in range(start, m - (r - len(chosen)) + 1):
            ech2 = ech.snapshot()
            if ech2.add(cfg.vectors[i]):
                chosen.append(i)
                yield from walk(i + 1, chosen, ech2)
                chosen.pop()

    yield from walk(0, [], _Echelon())


def activity(cfg, basis):
    """Activities of one basis, computed literally from the two rank tests.

    An element b of the basis is internally active when no earlier element of
    the configuration can replace it; a non-basis element x is externally
    active when it already lies in the span of the later basis elements.  The
    replacement test compares against rank(X) so configurations that do not
    span the ambient space are handled uniformly.
    """
    basis = tuple(basis)
    bset = set(basis)
    r = cfg.rank
    internal = 0
    for b in basis:
        others = [cfg.vectors[j] for j in basis if j != b]
        active = True
        for x in range(b):
            if x in bset:
                continue
            if rank_of(others + [cfg.vectors[x]]) == r:
                active = False
                break
        if active:
            internal += 1
    external = 0
    for x in range(len(cfg)):
        if x in bset:
            continue
        later = [cfg.vectors[j] for j in basis if j > x]
        if rank_of(later + [cfg.vectors[x]]) == rank_of(later):
            external += 1
    return BasisActivity(basis, internal, external)


def _exact_activities(cfg, bases, hist=None):
    """Tally (internal, external) activities of the given bases, exactly."""
    hist = {} if hist is None else hist
    for basis in bases:
        act = activity(cfg, basis)
        k = (act.internal, act.external)
        hist[k] = hist.get(k, 0) + 1
    return hist


def _check_basis_guard(m, r, max_subsets):
    if comb(m, r) > max_subsets:
        raise GuardExceeded(
            f"C({m},{r}) = {comb(m, r)} basis candidates exceeds guard {max_subsets}"
        )


def tutte_crapo(cfg, max_subsets=DEFAULT_MAX_BASIS_SUBSETS):
    """Tutte polynomial as the basis-activity sum: T = sum x^i(B) y^e(B).

    Candidate bases are scored in batches with vectorized arithmetic; every
    batch is certified by an exact integer residual identity before its
    activities are trusted, and is recomputed exactly when it is not.
    """
    m, r = len(cfg), cfg.rank
    _check_basis_guard(m, r, max_subsets)
    if r == 0:
        # only loops: the one empty basis, with every element externally active
        return BivariatePolynomial({(0, m): 1}, ("x", "y"))
    return _tutte_crapo_batched(cfg)


def tutte_crapo_exact(cfg, max_subsets=DEFAULT_MAX_BASIS_SUBSETS):
    """The basis-activity sum by the literal route: every basis from
    ``enumerate_bases`` and its activities from ``activity``, all in exact
    integer arithmetic.  Slow; the reference for ``tutte_crapo``."""
    hist = _exact_activities(cfg, enumerate_bases(cfg, max_subsets=max_subsets))
    return BivariatePolynomial(hist, ("x", "y"))


def tutte_corank_nullity(cfg, max_elements=DEFAULT_MAX_ORACLE_ELEMENTS):
    """Brute-force Tutte polynomial over all 2^m subarrangements.

    T(x, y) = sum over subsets S of (x-1)^(r - r(S)) (y-1)^(|S| - r(S)).
    Subset ranks come from a depth-first include/exclude walk that shares
    echelon state, so each subset costs one incremental reduction.
    """
    m, r = len(cfg), cfg.rank
    if m > max_elements:
        raise GuardExceeded(f"{m} elements exceeds 2^{max_elements} subset guard")
    # counts[(size, rank)] = number of subsets
    counts = {}

    def walk(i, size, ech):
        if i == m:
            k = (size, ech.rank)
            counts[k] = counts.get(k, 0) + 1
            return
        walk(i + 1, size, ech)
        ech2 = ech.snapshot()
        ech2.add(cfg.vectors[i])
        walk(i + 1, size + 1, ech2)

    walk(0, 0, _Echelon())
    out = {}
    for (size, rs), cnt in counts.items():
        a, b = r - rs, size - rs
        # expand cnt * (x-1)^a (y-1)^b
        for i in range(a + 1):
            ca = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                cb = comb(b, j) * (-1) ** (b - j)
                k = (i, j)
                out[k] = out.get(k, 0) + cnt * ca * cb
    return BivariatePolynomial(out, ("x", "y"))


# ---- vectorized basis/activity engine -------------------------------------


def _row_space_coordinates(cfg):
    """Re-express every vector in an r-dimensional integer coordinate system.

    Vectors are solved against an integer basis of the row space and scaled
    per-vector to clear denominators; scaling changes no ranks, so the matroid
    is preserved exactly while determinants become r x r.
    """
    ech = _Echelon()
    for v in cfg.vectors:
        ech.add(v)
    rows = ech.rows
    pivots = ech.pivots
    r = len(rows)
    out = []
    for v in cfg.vectors:
        # back-substitute v over the echelon rows
        coeffs = [Fraction(0)] * r
        rem = [Fraction(x) for x in v]
        for i in range(r):
            p = pivots[i]
            if rem[p]:
                c = rem[p] / rows[i][p]
                coeffs[i] = c
                for k in range(len(rem)):
                    rem[k] -= c * rows[i][k]
        if any(rem):
            raise ArithmeticError("vector escapes its own row space")
        denom = 1
        for c in coeffs:
            denom = denom * c.denominator // _gcd(denom, c.denominator)
        out.append(tuple(int(c * denom) for c in coeffs))
    return out


def _tutte_crapo_batched(cfg, chunk=4096):
    import itertools

    import numpy as np

    m, r = len(cfg), cfg.rank
    coords = _row_space_coordinates(cfg)
    # Hadamard bound on any r x r minor; keeps float dets and int64 products
    # exact.  Taken on Python ints: the coordinates need not fit int64.
    max_abs = max(abs(x) for v in coords for x in v)
    hadamard = inf
    if max_abs <= 2 ** 61:
        hadamard = prod(sorted(hypot(*v) for v in coords)[-r:])
    if hadamard > 2 ** 48 or hadamard * max_abs * r > 2 ** 61:
        # certified int64 arithmetic would overflow; use the exact route
        # (the caller has already applied its basis-candidate guard)
        return tutte_crapo_exact(cfg, max_subsets=comb(m, r))

    hist = {}
    W = np.array(coords, dtype=np.int64)  # (m, r)
    Wf = W.astype(np.float64)
    combos = itertools.combinations(range(m), r)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        counts = _certified_batch(W, Wf, block)
        if counts is None:
            # float drift or a failed certificate: redo this batch exactly
            bases = (c for c in block if rank_of([cfg.vectors[i] for i in c]) == r)
            _exact_activities(cfg, bases, hist)
            continue
        for i, e in counts:
            hist[(i, e)] = hist.get((i, e), 0) + 1
    return BivariatePolynomial(hist, ("x", "y"))


def _certified_batch(W, Wf, block):
    """(internal, external) activities of the bases among one batch of
    candidate index tuples, or None when float drift or a failed exact
    certificate means the batch cannot be trusted."""
    import numpy as np

    m, r = W.shape
    idx = np.array(block, dtype=np.int64)  # (B, r)
    dets = np.linalg.det(Wf[idx])
    rdets = np.rint(dets)
    if np.abs(dets - rdets).max(initial=0.0) > 0.01:
        return None
    keep = rdets != 0
    if not keep.any():
        return []
    bidx = idx[keep]  # (Nb, r)
    bdet = rdets[keep].astype(np.int64)
    nb = len(bidx)
    # expansion coefficients of every element over each basis, scaled by det:
    # x = sum_b lambda_b(x) * basisvec_b  <=>  M^T lambda = x
    sol = np.linalg.solve(
        Wf[bidx].transpose(0, 2, 1), np.broadcast_to(Wf.T, (nb, r, m)).copy()
    )
    scaled = sol * bdet[:, None, None]
    adjx = np.rint(scaled)
    if np.abs(scaled - adjx).max(initial=0.0) > 0.01:
        return None
    adjx = adjx.astype(np.int64)
    # certify: M^T applied to adjx must reproduce det * X^T exactly
    lhs = np.einsum("brk,bkx->brx", W[bidx].transpose(0, 2, 1), adjx)
    rhs = bdet[:, None, None] * np.broadcast_to(W.T, (nb, r, m))
    if not np.array_equal(lhs, rhs):
        return None
    all_idx = np.arange(m)
    nonzero = adjx != 0  # (Nb, r, m)
    in_basis = np.zeros((nb, m), dtype=bool)
    np.put_along_axis(in_basis, bidx, True, axis=1)
    # external activity: x not in B is active iff every basis row with a
    # nonzero coefficient on x sits after x in the order
    basis_pos = bidx[:, :, None]  # (Nb, r, 1)
    support_min = np.where(nonzero, basis_pos, m + 1).min(axis=1)  # (Nb, m)
    ext = (~in_basis) & (support_min > all_idx[None, :])
    e_counts = ext.sum(axis=1)
    # internal activity: basis row b is active iff no earlier non-basis x
    # carries a nonzero coefficient on b
    xmask = (~in_basis)[:, None, :] & nonzero  # (Nb, r, m)
    xmin = np.where(xmask, all_idx[None, None, :], m + 1).min(axis=2)  # (Nb, r)
    i_counts = (xmin > bidx).sum(axis=1)
    return list(zip(i_counts.tolist(), e_counts.tolist()))
