"""Ideals of positive root systems: enumeration, construction from roots or
from generating boxes, ideal arrangements, a tuple set's blocks of
exchangeable coordinates and their flags (``block_flags``), the classes of
the tuples' signed graph (which give the counting model's rank), component
decomposition by the complement's connected sets of simple roots, each
component named as the complement of an ideal of its own system, and the
ideal exponents read off the complement's heights, with the one check that
a characteristic polynomial splits over them.

Classical roots are named throughout by the hyperplane tuple notation:
(i, j) is x_i = x_j, (i, -j) is x_i = -x_j, (i, 0) is x_i = 0, always with
i < |j|; every route reads a classical ideal's complement as the frozenset
of its tuples, ``complement``.  The diagram's boxes are the root poset's
tuples, laid out by ``grid_position``, the one per-family table here: a box
generates every box weakly below and to its right, which is all
``ideal_from_boxes`` needs.  The paper's reading of an ideal's diagram
(generating boxes of its complement, fullness, connectivity, signatures and
Algorithm P) lives in ``paper``.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import ConstraintError, InconsistencyError, UnsupportedTypeError
from .exactpoly import UnivariatePolynomial
from .rootsystems import RootSystemType, root_poset


class Ideal:
    """An upward-closed subset of a root poset, stored as a bitmask over root indices."""

    __slots__ = ("poset", "mask")

    def __init__(self, poset, mask):
        self.poset = poset
        self.mask = int(mask)

    @property
    def rst(self):
        return self.poset.rst

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.poset.rst == other.poset.rst
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.poset.rst, self.mask))

    def root_indices(self):
        return [i for i in range(len(self.poset)) if self.mask >> i & 1]

    def roots(self):
        return [self.poset.roots[i] for i in self.root_indices()]

    def complement_mask(self):
        return ((1 << len(self.poset)) - 1) ^ self.mask

    def complement_indices(self):
        m = self.complement_mask()
        return [i for i in range(len(self.poset)) if m >> i & 1]

    def complement_roots(self):
        return [self.poset.roots[i] for i in self.complement_indices()]

    def __repr__(self):
        return f"Ideal({self.poset.rst}, {sorted(str(r) for r in self.roots())})"


def _check_upward_closed(poset, mask):
    for i in range(len(poset)):
        if mask >> i & 1:
            missing = poset.up_masks[i] & ~mask
            if missing:
                j = missing.bit_length() - 1
                raise ConstraintError(
                    f"not an ideal of {poset.rst}: contains u={poset.roots[i]} "
                    f"with u ⪯ v but lacks v={poset.roots[j]}"
                )


def ideal_from_mask(poset, mask):
    if not 0 <= mask < 1 << len(poset):
        raise ConstraintError(f"mask {mask} is not a set of the {len(poset)} roots of {poset.rst}")
    _check_upward_closed(poset, mask)
    return Ideal(poset, mask)


def ideal_from_root_coords(poset, coords_list):
    """Build and validate an ideal from explicit simple-coordinate vectors."""
    mask = 0
    for coords in coords_list:
        mask |= 1 << poset.index_of(coords)
    return ideal_from_mask(poset, mask)


def ideal_from_boxes(poset, boxes):
    """Build an ideal of a classical system from generating boxes of its complement.

    Any box list is accepted; the complement is the union of the generated box
    sets, normalized internally.
    """
    rst = poset.rst
    if not rst.is_classical:
        raise UnsupportedTypeError(f"{rst.family} ideals take explicit root lists")
    tuple_index = {t: i for i, t in enumerate(poset.tuples)}
    comp = set()
    for b in boxes:
        b = (int(b[0]), int(b[1]))
        if b not in tuple_index:
            raise ConstraintError(f"{b} is not a box of the {rst} diagram")
        comp |= generated_box_set(rst, b)
    mask = 0
    full = (1 << len(poset)) - 1
    for t in comp:
        mask |= 1 << tuple_index[t]
    return ideal_from_mask(poset, full ^ mask)


# ---- enumeration -----------------------------------------------------------


def iter_ideals(poset):
    """All ideals, streamed by ascending cardinality, ascending mask value within.

    Breadth first by level sets: the ideals of size k+1 are the sorted set of
    the size-k ideals each grown by one addable root (one whose strict up-set
    the ideal already holds), so the set dedupes them and only one level is
    held in memory.
    """
    bits = [(1 << i, up & ~(1 << i)) for i, up in enumerate(poset.up_masks)]
    level = [0]
    while level:
        yield from (Ideal(poset, mask) for mask in level)
        level = sorted(
            {mask | bit for mask in level for bit, above in bits
             if not (mask & bit or above & ~mask)}
        )


def enumerate_ideals(poset):
    """Materialized list of all ideals, ordered as iter_ideals streams them."""
    return list(iter_ideals(poset))


# ---- diagram geometry ------------------------------------------------------


def diagram_boxes(rst):
    """All boxes of the shifted Young diagram: the positive roots' hyperplane tuples."""
    if not rst.is_classical:
        raise UnsupportedTypeError(f"{rst.family} has no shifted Young diagram")
    return list(root_poset(rst).tuples)


def grid_position(rst, box):
    """(row, column) of a box in the drawn diagram, for adjacency tests."""
    f, n = rst.family, rst.ambient_dim
    i, v = box
    if f == "A":
        return (i, n - v + 1)
    if f == "B":
        if v < 0:
            return (i, -v - 1)
        if v == 0:
            return (i, n)
        return (i, 2 * n - v + 1)
    if f == "C":
        if v == 0:
            return (i, i)
        if v < 0:
            return (i, -v)
        return (i, 2 * n - v + 1)
    # D
    if v < 0:
        return (i, -v - 1)
    return (i, 2 * n - v)


@functools.lru_cache(maxsize=None)
def diagram_grid(rst):
    """{box: (row, column)} over the whole diagram."""
    return {b: grid_position(rst, b) for b in diagram_boxes(rst)}


def generated_box_set(rst, box):
    """The box set generated by one box: everything weakly below and to its right."""
    grid = diagram_grid(rst)
    row, col = grid[box]
    return {b for b, (r, c) in grid.items() if r >= row and c >= col}


def complement(ideal):
    """The hyperplane tuples of a classical ideal's complement, as a
    frozenset; UnsupportedTypeError on an exceptional type."""
    tuples = ideal.poset.tuples
    if tuples is None:
        raise UnsupportedTypeError(f"{ideal.rst.family} has no shifted-diagram tuple form")
    return frozenset([tuples[i] for i in ideal.complement_indices()])


def signed_classes(m, tuples):
    """The classes of coordinates 1..m under hyperplane tuples read as a
    signed graph, and whether each class is balanced.

    x_i = x_j is a positive edge, x_i = -x_j a negative edge and x_i = 0 a
    half-edge.  A class is balanced when it holds no half-edge and no cycle
    of an odd number of negative edges; the normals span Zaslavsky's frame
    matroid of the graph, of rank m minus the number of balanced classes.
    One union-find keeps each coordinate's sign against its root,
    x_i = +-x_root.  Returns (classes, balanced): classes[x - 1] is the class
    of coordinate x, numbered 0, 1, ... in ascending order of their least
    coordinate, and balanced[c] the flag of class c.
    """
    parent = list(range(m + 1))
    flip = [0] * (m + 1)  # 1 when x_i = -x_parent
    balanced = [True] * (m + 1)

    def find(x):
        sign = 0
        while parent[x] != x:
            sign ^= flip[x]
            x = parent[x]
        return x, sign

    for i, j in tuples:
        ri, si = find(i)
        if j == 0:
            balanced[ri] = False
            continue
        rj, sj = find(abs(j))
        odd = si ^ sj ^ (j < 0)
        if ri == rj:
            balanced[ri] = balanced[ri] and not odd
        else:
            parent[rj], flip[rj] = ri, odd
            balanced[ri] = balanced[ri] and balanced[rj]
    roots = {}
    classes = [roots.setdefault(find(x)[0], len(roots)) for x in range(1, m + 1)]
    return classes, [balanced[root] for root in roots]


# ---- blocks of exchangeable coordinates ------------------------------------


def block_flags(m, tuples, blocks=None):
    """(blocks, within, cross): the blocks of exchangeable coordinates of
    hyperplane tuples on 1..m and their flags, from one reading of the
    tuples into zero flags and pos/neg neighbour sets.  A tuple other than
    (i, j), 1 <= i < |j| <= m, or (i, 0), 1 <= i <= m, raises ConstraintError.

    Two coordinates are exchangeable (swapping them fixes the tuple set) when
    they carry the same zero flag and pos/neg flags against every third
    coordinate.  By default each coordinate joins the first block whose
    first member it matches, else opens one.  Passed ``blocks`` must
    partition 1..m, each member exchangeable with its block's first, else
    ConstraintError; swaps compose, so each flag then holds on every pair of
    its blocks or on none.  ``within`` holds per block (pw, nw, z), whether
    x_i = x_j, x_i = -x_j and x_i = 0 hold within it, and ``cross`` per block
    the (bj, pc, nc) of each earlier block bj that x_i = x_j (pc) or
    x_i = -x_j (nc) links it to, both read off the blocks' first members.
    """
    zero = [False] * (m + 1)
    pos = [set() for _ in range(m + 1)]
    neg = [set() for _ in range(m + 1)]
    for i, j in tuples:
        if not (1 <= i <= m and (j == 0 or i < abs(j) <= m)):
            raise ConstraintError(f"{(i, j)} is not a hyperplane tuple on 1..{m}")
        if j == 0:
            zero[i] = True
        else:
            nbrs = pos if j > 0 else neg
            nbrs[i].add(abs(j))
            nbrs[abs(j)].add(i)

    def exchangeable(x, y):
        return pos[x] - {y} == pos[y] - {x} and neg[x] - {y} == neg[y] - {x}

    if blocks is None:
        blocks = []
        for x in range(1, m + 1):
            for b in blocks:
                if zero[b[0]] == zero[x] and exchangeable(b[0], x):
                    b.append(x)
                    break
            else:
                blocks.append([x])
    else:
        blocks = [list(b) for b in blocks]
        if not all(blocks) or sorted(x for b in blocks for x in b) != list(range(1, m + 1)):
            raise ConstraintError("blocks must partition 1..m")
        for b in blocks:
            for x in b[1:]:
                if zero[b[0]] != zero[x]:
                    raise ConstraintError(f"block {b} not uniform on the zero column")
                if not exchangeable(b[0], x):
                    raise ConstraintError(f"block {b} not pair-uniform")
    within, cross = [], []
    for bj, b in enumerate(blocks):
        f, second = b[0], (b[1] if len(b) > 1 else None)
        within.append((second in pos[f], second in neg[f], zero[f]))
        links = [(bi, g[0] in pos[f], g[0] in neg[f]) for bi, g in enumerate(blocks[:bj])]
        cross.append([link for link in links if link[1] or link[2]])
    return blocks, within, cross


# ---- arrangements and components -------------------------------------------


def arrangement_of(ideal):
    """The ideal arrangement as a ``crapo.VectorConfig``: its normals are the
    doubled coordinates of the complement, in R^ambient_dim."""
    from . import crapo

    return crapo.VectorConfig(
        [r.ambient2 for r in ideal.complement_roots()], dim=ideal.rst.ambient_dim
    )


class IdealExponents(namedtuple("IdealExponents", "heights exponents")):
    """Height partition of an ideal complement, lambda_1 >= lambda_2 >= ...,
    and its dual partition, the exponents m_{lambda_1} >= ... >= m_1."""

    __slots__ = ()


def _height_counts(ideal):
    """lambda_h, the complement's roots of height h: one popcount per
    ``RootPoset.height_masks`` entry, trailing zeros kept."""
    comp = ideal.complement_mask()
    return tuple([(comp & heights).bit_count() for heights in ideal.poset.height_masks])


def _conjugate(lam):
    """The exponents, the conjugate partition mu_k = #{h : lambda_h >= k} of
    the height counts ``lam``, which must weakly decrease."""
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise InconsistencyError(f"height counts {list(lam)} are not weakly decreasing")
    return tuple(sum(1 for l in lam if l >= k) for k in range(1, lam[0] + 1)) if lam else ()


def ideal_exponents(ideal):
    """Ideal exponents from the height partition of the complement."""
    lam = _height_counts(ideal)
    exps = _conjugate(lam)
    return IdealExponents(lam[:exps[0]] if exps else (), exps)  # mu_1 counts the nonzero heights


@functools.lru_cache(maxsize=1024)
def _factorization(lam, length):
    """The exponents of the height counts ``lam`` and the coefficients,
    lowest first, of q^(length - 1 - k) prod (q - m_i) over those k, as
    tuples; the most recent 1024 are kept for the next check."""
    exps = _conjugate(lam)
    want = [0] * (length - 1 - len(exps)) + [1]
    for m in exps:
        want = [a - m * b for a, b in zip([0] + want, want + [0])]  # times (q - m)
    return exps, tuple(want)


def check_exponent_factorization(ideal, chi):
    """The ideal exponents of ``ideal`` (``ideal_exponents``), once its
    characteristic polynomial is seen to split over them.

    ``chi`` lists chi(q)'s coefficients lowest first, say a
    ``UnivariatePolynomial.coeffs`` or a ``FlatLattice.kinds`` row.  Every
    ideal arrangement of a Weyl arrangement is free with the ideal exponents
    m_1, ..., m_k (Abe, Barakat, Cuntz, Hoge and Terao, 2016), so ``chi`` must
    be q^(len(chi) - 1 - k) prod (q - m_i); InconsistencyError otherwise.  A
    check costs the popcounts and one lookup in ``_factorization``.
    """
    exps, want = _factorization(_height_counts(ideal), len(chi))
    if tuple(chi) != want:
        raise InconsistencyError(
            f"chi = {UnivariatePolynomial(chi)} of the {ideal.rst} ideal arrangement "
            f"is not {UnivariatePolynomial(want)}, the product over its ideal "
            f"exponents {list(exps)}"
        )
    return exps


def tuple_normal(t, n):
    """Integer normal vector of a hyperplane tuple inside R^n."""
    i, j = t
    v = [0] * n
    v[i - 1] = 1
    if j > 0:
        v[j - 1] = -1
    elif j < 0:
        v[-j - 1] = 1
    return tuple(v)


class IdealComponent(namedtuple("IdealComponent", "index_map tuples size rst mask")):
    """One connected component of an ideal complement, relabeled to compressed
    coordinates: the old index of each new coordinate (1-based), the
    relabeled hyperplane tuples and the number of compressed coordinates.
    The component is also the complement of an ideal of its own irreducible
    system ``rst``, the one its connected set of simple roots spans, and
    ``mask`` is that complement over ``rst``'s root poset.  Both are None
    for the one component that is no such complement: alpha_(n-1) and
    alpha_n of D_n without alpha_(n-2), two hyperplanes that share
    coordinates n - 1 and n."""

    __slots__ = ()


def _connected_simple_sets(rst, simple):
    """The connected sets of the simple roots in the bitmask ``simple``
    (bit k for alpha_(k+1)), each a bitmask, in ascending order of their
    least coordinate; in D_n, alpha_(n-1) and alpha_n without alpha_(n-2)
    form one set, as they share coordinates.  The Dynkin diagram is the path
    alpha_1 ... alpha_n, except in D_n, where alpha_n hangs off alpha_(n-2),
    so each set is a run of bits along the path (one AND with the run's
    carry), alpha_n of D_n then joined to its neighbour's run."""
    n = rst.rank
    fork = 1 << n - 1 if rst.family == "D" and simple >> n - 1 & 1 else 0
    chain, runs = simple ^ fork, []
    while chain:
        run = chain & ~(chain + (chain & -chain))
        runs.append(run)
        chain ^= run
    if fork:
        # alpha_n joins the run of alpha_(n-2), else that of alpha_(n-1)
        # (which it shares coordinates with), else stands alone
        for near in (1 << n - 3, 1 << n - 2):
            at = next((k for k, run in enumerate(runs) if run & near), None)
            if at is not None:
                runs[at] |= fork
                break
        else:
            runs.append(fork)
    return runs


@functools.lru_cache(maxsize=None)
def _parabolic(rst, subset):
    """(support, system, index_map, rows) of a connected set ``subset`` of
    the simple roots of ``rst`` (``_connected_simple_sets``): the mask of
    the roots supported on it, the irreducible system they form (None for
    the pair alpha_(n-1), alpha_n of D_n), the coordinates its roots touch,
    ascending, and rows[i] = (root i's tuple relabeled to those
    coordinates, its bit in ``system``'s root poset, 0 without a system)
    for every root i of ``support``.  A run of simple roots is A_k; a B or C
    run that holds alpha_n is B_k or C_k, or A_1 alone; a D run that holds
    alpha_(n-2), alpha_(n-1) and alpha_n is D_k for k >= 4, and for k = 3 it
    is A_3 with alpha_(n-2) in the middle; a D run through one of
    alpha_(n-1), alpha_n is A_k, in the order of the path."""
    poset = root_poset(rst)
    f, n = rst.family, rst.rank
    order = [k for k in range(n) if subset >> k & 1]
    k = len(order)
    system = RootSystemType("A", k)
    if f in ("B", "C") and k > 1 and order[-1] == n - 1:
        system = RootSystemType(f, k)
    elif f == "D" and {n - 3, n - 2, n - 1} <= set(order):
        if k > 3:
            system = RootSystemType(f, k)
        else:
            order = [n - 2, n - 3, n - 1]  # D_3 is A_3, alpha_(n-2) in the middle
    elif f == "D" and order == [n - 2, n - 1]:
        system = None
    sub = root_poset(system) if system is not None else None
    support, coords, rows = 0, set(), {}
    for root, t in zip(poset.roots, poset.tuples):
        c = root.simple_coords
        if any(c[j] for j in range(n) if not subset >> j & 1):
            continue
        support |= 1 << root.index
        coords.update((t[0], abs(t[1])))
        rows[root.index] = (t, 1 << sub.index_of([c[j] for j in order]) if sub else 0)
    coords.discard(0)
    index_map = tuple(sorted(coords))
    remap = {old: new + 1 for new, old in enumerate(index_map)}
    remap[0] = 0
    rows = {i: ((remap[a], remap[b] if b >= 0 else -remap[-b]), bit)
            for i, ((a, b), bit) in rows.items()}
    return support, system, index_map, rows


def decompose_components(ideal):
    """Split the ideal's complement into independent subarrangements with
    compressed labels, each named as the complement of an ideal of its own
    system (``IdealComponent``).

    The complement is a lower set, so it spans what its simple roots span,
    and each of its roots is supported on one connected set of them.  Each
    connected set (``_connected_simple_sets``) takes its roots with one AND
    against the mask of the roots it supports (``_parabolic``, kept per
    system and set).  Components come in ascending order of their least
    coordinate, ``index_map[0]``, and their coordinate sets are disjoint:
    hyperplanes on disjoint coordinate sets are matroid-independent, so
    Tutte and coboundary polynomials multiply across the returned
    components.  These are the classes of the coordinate-interaction graph
    (``signed_classes`` on the ambient coordinates) that carry a hyperplane,
    which can be coarser than the drawn diagram's grid components: for the
    D family those may split dependent hyperplanes.  UnsupportedTypeError on
    an exceptional type.
    """
    rst, poset = ideal.rst, ideal.poset
    if poset.tuples is None:
        raise UnsupportedTypeError(f"{rst.family} has no shifted-diagram tuple form")
    comp = ideal.complement_mask()
    simple = sum(1 << k for k, i in enumerate(_simple_indices(rst)) if comp >> i & 1)
    out = []
    for subset in _connected_simple_sets(rst, simple):
        support, system, index_map, rows = _parabolic(rst, subset)
        tuples, mask, rest = [], 0, comp & support
        while rest:
            low = rest & -rest
            t, bit = rows[low.bit_length() - 1]
            tuples.append(t)
            mask |= bit
            rest ^= low
        out.append(IdealComponent(index_map, tuple(tuples), len(index_map), system,
                                  mask if system is not None else None))
    return out


@functools.lru_cache(maxsize=None)
def _simple_indices(rst):
    """The root-poset index of each simple root, alpha_1 first."""
    poset = root_poset(rst)
    return tuple(poset.index_of([int(j == k) for j in range(rst.rank)]) for k in range(rst.rank))
