"""Tutte polynomials of integer vector configurations: Crapo's basis-activity
formula and the corank-nullity brute-force oracle.

All arithmetic is exact.  A ``VectorConfig`` is eliminated once, for its rank
and pivot columns; the activities depend only on which subsets are bases, so
the vectors restricted to those columns serve as r-dimensional coordinates.
``tutte_crapo`` runs one integer kernel on them at every size: a prefix tree
of fraction-free eliminations finds the bases, and every activity is a
lookup in their exchange table (B - b + x is a basis exactly when x has a
nonzero coefficient on b).  The eliminations run in int64 when they cannot
overflow it and on Python integers otherwise.  ``activity`` computes one
basis's activities literally, from rank tests.
"""

from __future__ import annotations

from math import comb, gcd, hypot, prod

from .errors import GuardExceeded
from .exactpoly import BivariatePolynomial

DEFAULT_MAX_BASIS_SUBSETS = 10 ** 8
# subsets the corank-nullity oracle may walk: at most 24 hyperplanes
ORACLE_MAX_SUBSETS = 2 ** 24
# bytes the kernel may hold in bases and exchange table for one configuration
MAX_KERNEL_BYTES = 1 << 29
# array cells per vectorized step
_CHUNK = 1 << 20


class _Echelon:
    """Incremental division-free row echelon over the integers."""

    __slots__ = ("rows", "pivots")

    def __init__(self, vectors=()):
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

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
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
                self.rows.append(v)
                self.pivots.append(p)
                return True
        return False

    def snapshot(self):
        e = _Echelon()
        e.rows = list(self.rows)
        e.pivots = list(self.pivots)
        return e

    @property
    def rank(self):
        return len(self.rows)


def rank_of(vectors):
    """Exact rank of a list of integer vectors."""
    return _Echelon(vectors).rank


class VectorConfig:
    """An ordered integer vector configuration; the order is the activity order.

    One echelon pass gives ``rank`` and ``pivots``, the sorted pivot columns.
    Each echelon row is zero at the earlier rows' pivots and nonzero at its
    own, so restricting the vectors to those columns is injective on their
    span: ``pivot_coordinates`` keeps every rank in r coordinates.
    """

    def __init__(self, vectors, dim=None):
        self.vectors = tuple(tuple(int(x) for x in v) for v in vectors)
        dims = {len(v) for v in self.vectors}
        if len(dims) > 1:
            raise ValueError("mixed vector dimensions")
        self.dim = dim if dim is not None else max(dims, default=0)
        ech = _Echelon(self.vectors)
        self.rank = ech.rank
        self.pivots = tuple(sorted(ech.pivots))

    def __len__(self):
        return len(self.vectors)

    def pivot_coordinates(self):
        """The vectors restricted to the pivot columns: same matroid, r entries each."""
        return [tuple(v[p] for p in self.pivots) for v in self.vectors]


class BasisActivity:
    """Internal and external activity counts of one basis."""

    __slots__ = ("basis", "internal", "external")

    def __init__(self, basis, internal, external):
        self.basis = tuple(basis)
        self.internal = internal
        self.external = external

    def __repr__(self):
        return f"BasisActivity({self.basis}, i={self.internal}, e={self.external})"


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


def _check_basis_guard(m, r, max_subsets):
    if comb(m, r) > max_subsets:
        raise GuardExceeded(
            f"C({m},{r}) = {comb(m, r)} basis candidates exceeds guard {max_subsets}"
        )


def _check_kernel_bytes(need, m, r):
    if need > MAX_KERNEL_BYTES:
        raise GuardExceeded(
            f"the bases and exchange table of {m} elements of rank {r} need "
            f"at least {need} bytes, over the kernel's {MAX_KERNEL_BYTES}"
        )


def tutte_crapo(cfg):
    """Tutte polynomial as the basis-activity sum: T = sum x^i(B) y^e(B).

    Exact integer arithmetic throughout, on the vectors restricted to the
    configuration's pivot columns (the same bases in r coordinates): the bases
    come from a prefix tree of fraction-free eliminations and the activities
    from lookups in their exchange table.  The eliminations run in int64 while
    the Hadamard bound of those coordinates is at most 2^30, and on Python
    integers above it.  No check of its own: the dispatcher (``specialize``)
    certifies the result.  Raises ``GuardExceeded`` past
    ``DEFAULT_MAX_BASIS_SUBSETS`` candidates or past ``MAX_KERNEL_BYTES`` of
    bases and table.
    """
    m, r = len(cfg), cfg.rank
    _check_basis_guard(m, r, DEFAULT_MAX_BASIS_SUBSETS)
    if r == 0:
        # only loops: the one empty basis, with every element externally active
        return BivariatePolynomial({(0, m): 1}, ("x", "y"))
    return BivariatePolynomial(_exchange_tally(cfg.pivot_coordinates(), r), ("x", "y"))


def int64_safe(coords, r):
    """Whether fraction-free int64 elimination on these integer coordinates
    of rank r cannot overflow: their Hadamard bound is at most 2^30.

    The bound holds for any minor of up to r nonzero integer rows (every such
    row has norm >= 1).  Every value an elimination forms is a minor, a
    partial sum of a dot product that equals a minor (bounded by the same
    product of norms), or a product of two minors: all under 2^60.  Taken on
    Python ints: the coordinates need not fit int64.
    """
    max_abs = max(abs(x) for v in coords for x in v)
    if max_abs > 2 ** 30:  # a lower bound on the Hadamard bound, enough to refuse
        return False
    return prod(sorted(hypot(*v) for v in coords)[-r:]) <= 2 ** 30


def tutte_corank_nullity(cfg, max_subsets=ORACLE_MAX_SUBSETS, *, max_elements=None):
    """Brute-force Tutte polynomial over all 2^m subarrangements.

    T(x, y) = sum over subsets S of (x-1)^(r - r(S)) (y-1)^(|S| - r(S)).
    Subset ranks come from a depth-first include/exclude walk that shares
    echelon state, so each subset costs one incremental reduction.  Raises
    ``GuardExceeded`` before any work when 2^m exceeds ``max_subsets``;
    ``max_elements`` is the older spelling of the guard, 2^max_elements
    subsets, kept for the benchmark's reference generator.
    """
    m, r = len(cfg), cfg.rank
    if max_elements is not None:
        max_subsets = 2 ** max_elements
    if 2 ** m > max_subsets:
        raise GuardExceeded(f"2^{m} subsets exceeds guard {max_subsets}")
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
    # cnt (x-1)^a (y-1)^b per (size, rank) class, a = r - rs and b = size - rs,
    # expanded by the binomial theorem
    coeffs = {}
    for (size, rs), cnt in counts.items():
        a, b = r - rs, size - rs
        for i in range(a + 1):
            for j in range(b + 1):
                term = cnt * comb(a, i) * comb(b, j) * (-1) ** (a - i + b - j)
                coeffs[(i, j)] = coeffs.get((i, j), 0) + term
    return BivariatePolynomial(coeffs, ("x", "y"))


# ---- exact exchange-table engine ------------------------------------------


def _exchange_tally(coords, r):
    """(internal, external) -> number of bases, for integer coordinates of rank
    r: in int64 when ``int64_safe`` holds, and as Python integers otherwise.

    By Cramer's rule the coefficient of x on basis element b is nonzero
    exactly when B - b + x is a basis, so once every basis is known the
    activities are table lookups.  ``table[colex(F), x]`` is True when the
    (r-1)-subset F plus x is a basis; then b is internally active when no
    element below b completes B - b, and x is externally active when every
    basis element whose exchange admits x comes after x.
    """
    import numpy as np

    W = np.array(coords, dtype=np.int64 if int64_safe(coords, r) else object)
    m = len(W)
    blocks = _bases(W, r)
    # the table rows are bit sets of the m elements in 64-bit words: 8 bytes
    # per 64 elements instead of one per element, and the lookups below work
    # a word at a time
    words = -(-m // 64)
    table_bytes = comb(m, r - 1) * words * 8
    _check_kernel_bytes(sum(c.nbytes for c in blocks) + table_bytes, m, r)
    # binom[c, i] = C(c, i); a sorted set a_0 < a_1 < ... has colex rank
    # sum_i C(a_i, i + 1), and dropping a_j shifts every later a_i down one.
    # Only entries with c - i <= m - r are ever read (a_i <= m - r + i), and
    # those are at most C(m, r).
    binom = np.array(
        [[comb(c, i) if c - i <= m - r else 0 for i in range(r + 1)] for c in range(m)],
        dtype=np.int64,
    )
    pos = np.arange(r)

    def drop_ranks(c):
        keep = binom[c, pos + 1]
        shift = binom[c, pos]
        before = keep.cumsum(axis=1) - keep
        after = shift[:, ::-1].cumsum(axis=1)[:, ::-1] - shift
        return before + after  # (n, r): colex rank of B - c_j

    step = max(1, _CHUNK // (r * m))
    chunks = [c[lo : lo + step] for c in blocks for lo in range(0, len(c), step)]
    table = np.zeros(table_bytes // 8, dtype=np.uint64)
    for c in chunks:
        bit = np.left_shift(np.uint64(1), (c & 63).astype(np.uint64))
        np.bitwise_or.at(table, drop_ranks(c) * words + (c >> 6), bit)
    table = table.reshape(-1, words)
    # below[c]: the elements x < c, in words like the table rows
    below = np.array(
        [[(1 << min(64, max(0, c - 64 * w))) - 1 for w in range(words)] for c in range(m)],
        dtype=np.uint64,
    )
    cols = m - r + 1
    tally = np.zeros((r + 1) * cols, dtype=np.int64)
    for c in chunks:
        rows = table[drop_ranks(c)]  # (n, r, words): the x completing B - c_j
        low = below[c]
        internal = r - (rows & low).any(axis=2).sum(axis=1)
        admitted = np.bitwise_or.reduce(rows & ~low, axis=1)  # by some c_j <= x
        external = m - np.bitwise_count(admitted).sum(axis=1, dtype=np.int64)
        tally += np.bincount(internal * cols + external, minlength=len(tally))
    return {divmod(k, cols): int(n) for k, n in enumerate(tally.tolist()) if n}


def _bases(W, r):
    """Every basis of the rows of the integer array W (m x r, rank r), as index
    tuples in lexicographic order: a list of (n, r) int32 blocks.  The
    eliminations take W's dtype: int64, or object for Python integers.

    Depth first over a prefix tree of increasing index tuples, one bounded
    block of prefixes at a time.  A prefix of k rows carries a fraction-free
    (Bareiss) basis N of the vectors orthogonal to them, r - k integer rows
    whose entries are k x k minors of W, and the pivot d of its last step.
    Row x extends the prefix exactly when u = N W[x] is nonzero; then one
    ``bareiss_step`` gives the grown prefix's N and d.  A prefix with
    no extension is dropped with every superset, and prefixes that could not
    be completed to r rows are never made.
    """
    import numpy as np

    m = len(W)
    elements = np.arange(m)
    root = (np.zeros((1, 0), dtype=np.int32), np.eye(r, dtype=W.dtype)[None],
            np.ones(1, dtype=W.dtype))
    stack, found, count = [root], [], 0
    while stack:
        prefixes, normals, pivots = stack.pop()
        k = prefixes.shape[1]
        block = max(1, _CHUNK // (m * r * (r - k)))
        if len(prefixes) > block:
            # later blocks wait below the earlier ones: lexicographic order
            for lo in reversed(range(0, len(prefixes), block)):
                stack.append(tuple(a[lo : lo + block] for a in (prefixes, normals, pivots)))
            continue
        last = prefixes[:, -1:] if k else -1
        u = normals @ W.T  # (n, r - k, m)
        pi, x = np.nonzero(u.any(axis=1) & (elements > last) & (elements <= m - r + k))
        grown = np.column_stack((prefixes[pi], x.astype(np.int32)))
        if k + 1 == r:
            found.append(grown)
            count += len(grown)
            _check_kernel_bytes(4 * r * count, m, r)
            continue
        stack.append((grown, *bareiss_step(normals[pi], u[pi, :, x], pivots[pi])))
    return found


def bareiss_step(normals, u, pivots):
    """One fraction-free elimination step on a batch of normal bases.

    ``normals`` is (n, k, r): each entry a basis of the vectors orthogonal to
    some set of rows, whose last step had pivot ``pivots`` (n,).  ``u`` is
    (n, k): the images N w of one new vector w per entry, each nonzero.  With
    the first nonzero u_s, every N_t becomes (u_s N_t - u_t N_s) / d (exact,
    by Sylvester's identity) and row s is dropped.  Returns the (n, k - 1, r)
    normals orthogonal to the rows and w, and the new pivots u_s.
    """
    import numpy as np

    n, k, r = normals.shape
    s = (u != 0).argmax(axis=1)
    at = np.arange(n)
    us = u[at, s]
    out = us[:, None, None] * normals - u[:, :, None] * normals[at, s][:, None, :]
    out //= pivots[:, None, None]  # exact
    return out[np.arange(k) != s[:, None]].reshape(n, k - 1, r), us
