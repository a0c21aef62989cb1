"""The paper's classical route: a reference that only ``minors`` loads; it loads no engine.

The paper reads an ideal of type A, B, C or D off the shifted Young diagram:
the generating boxes of its complement, the signature of each integer (which
generating box sets mention it), and Algorithm P, the partition of [n] in
accordance with the ideal.  Each function here takes the ``Ideal`` and reads
its complement with ``ideals.complement``; ``ideals.block_flags`` checks
Algorithm P's blocks and reads the flags that rebuild the tuple set.  The
paper's prime route passes the same blocks to ``CountingModel(blocks=...)``,
counts points over F_p for primes outside the minor set of the root matrix
and interpolates (demo 02; ``tests/test_paper.py`` holds it to production).
Production takes ``block_flags``'s default blocks, never finer than
Algorithm P's and there for every type-D ideal, and reads chi-bar directly
from one dynamic program.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import comb

from .errors import ConstraintError, GuardExceeded, UnsupportedTypeError
from .ideals import block_flags, complement, diagram_grid, generated_box_set, grid_position

MAX_MINORS = 5_000_000  # minor_set refuses a matrix with more square minors


# ---- the shifted diagram ---------------------------------------------------


def rightmost_boxes(rst):
    """The rightmost box of every diagram row; their presence defines fullness."""
    last = {}
    for b, (row, _) in sorted(diagram_grid(rst).items(), key=lambda kv: kv[1]):
        last[row] = b
    return list(last.values())


def generating_boxes(ideal):
    """The unique minimal generating antichain: the maximal roots of the complement.

    Returned in ascending row order.  For families A, B, C the drawn diagram
    encodes the root order faithfully, so every ideal complement is an open
    set with such a presentation.  The D diagram flattens the incomparable
    pair e_i - e_n, e_i + e_n into one row, so a D ideal separating such a
    pair has no generating-box presentation and raises ConstraintError.
    """
    tset = complement(ideal)  # raises for non-classical
    rst = ideal.rst
    grid = diagram_grid(rst)

    def dominated(b):
        # b lies in the generated set of another box of the complement
        row, col = grid[b]
        return any(b2 != b and grid[b2][0] <= row and grid[b2][1] <= col for b2 in tset)

    gens = sorted((b for b in tset if not dominated(b)), key=lambda b: b[0])
    union = set()
    for g in gens:
        union |= generated_box_set(rst, g)
    if union != tset:
        raise ConstraintError(
            f"complement of {rst} ideal is not an open diagram set: "
            f"generated box sets of {gens} do not reproduce it"
        )
    rows = [b[0] for b in gens]
    if len(set(rows)) != len(rows):
        raise ConstraintError(f"generating boxes {gens} share a row")
    return gens


def is_full(ideal):
    """Full means every diagram row's rightmost box lies in the complement."""
    return set(rightmost_boxes(ideal.rst)) <= complement(ideal)


def _components_of_boxes(rst, boxes):
    boxes = list(boxes)
    pos = {b: grid_position(rst, b) for b in boxes}
    by_pos = {p: b for b, p in pos.items()}
    seen = set()
    comps = []
    for b in boxes:
        if b in seen:
            continue
        stack, comp = [b], []
        seen.add(b)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            r, c = pos[cur]
            for p2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                nb = by_pos.get(p2)
                if nb is not None and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps


def is_connected(ideal):
    """Connectivity of the complement in the 4-neighborhood of the diagram grid."""
    return len(_components_of_boxes(ideal.rst, complement(ideal))) <= 1


# ---- signatures and the partition in accordance ----------------------------


def signature(ideal, x):
    """Signature s(x): indices of the generating boxes whose box set mentions x.

    x = 0 is only meaningful for B and C diagrams, negative x only where the
    diagram has negative columns.
    """
    f = ideal.rst.family
    x = int(x)
    if x == 0 and f in ("A", "D"):
        raise UnsupportedTypeError(f"signature of 0 undefined for type {f}")
    if x < 0 and f == "A":
        raise UnsupportedTypeError("type A has no negative columns")
    return signature_table(ideal).get(x, set())


def signature_table(ideal):
    """Signatures of every integer appearing in some box of the complement,
    built in one pass over the generators' box sets (which cover it).

    Keys follow the worked-example layout: positive indices, then 0 when a
    zero column is present, then negative columns.
    """
    table = {}
    for l, g in enumerate(generating_boxes(ideal), 1):
        for box in generated_box_set(ideal.rst, g):
            for x in box:
                table.setdefault(x, set()).add(l)
    order = sorted(table, key=lambda v: (v <= 0, v == 0, abs(v)))
    return {x: table[x] for x in order}


class BlockPartition(namedtuple("BlockPartition", "rst a_blocks b_blocks signatures "
                                "hyperplanes r_sets ra_sets s_sets r0 s0")):
    """The partition A^(1)|...|A^(r)|B^(1)|...|B^(s) of [n], with signatures,
    the sorted hyperplane tuples and the adjacency index sets of the counting
    theorems (1-based block indices): R^(u) per A-block, R_A^(v) and S^(v)
    per B-block, R_0 and S_0; ``blocks`` is the combined block list, A-blocks
    then B-blocks."""

    __slots__ = ()

    @property
    def blocks(self):
        return self.a_blocks + self.b_blocks


def partition_in_accordance(ideal):
    """Algorithm P: partition [n] in accordance with the ideal.

    Negative-column membership splits [n] into A and B parts; A-members group
    by their signature, B-members by the pair (negative signature, positive
    signature).  The refinement by the positive signature is needed so every
    block is exchangeable in the hyperplane set; on partitions where positive
    signatures are constant per negative-signature class this reduces to the
    plain grouping.
    """
    rst = ideal.rst
    n = rst.ambient_dim
    tset = complement(ideal)
    negatives = {j for (_, j) in tset if j < 0}
    table = signature_table(ideal)
    sig = {x: frozenset(table.get(x, ())) for x in range(1, n + 1)}
    nsig = {x: frozenset(table.get(-x, ())) for x in range(1, n + 1)}
    a_members = [x for x in range(1, n + 1) if -x not in negatives]
    b_members = [x for x in range(1, n + 1) if -x in negatives]
    a_blocks = _group_consecutive(a_members, key=lambda x: sig[x])
    b_blocks = _group_consecutive(b_members, key=lambda x: (nsig[x], sig[x]))
    signatures = {x: set(sig[x]) for x in range(1, n + 1)}
    signatures |= {-x: set(nsig[x]) for x in b_members}
    if rst.family in ("B", "C"):
        signatures[0] = table.get(0, set())
    # theorem-style adjacency sets
    r, s = len(a_blocks), len(b_blocks)
    sA = [sig[blk[0]] for blk in a_blocks]
    sBneg = [nsig[blk[0]] for blk in b_blocks]
    s0 = frozenset(signatures.get(0, set()))
    return BlockPartition(
        rst=rst,
        a_blocks=a_blocks,
        b_blocks=b_blocks,
        signatures=signatures,
        hyperplanes=tuple(sorted(tset)),
        r_sets=[[v + 1 for v in range(u + 1, r) if sA[u] & sA[v]] for u in range(r)],
        ra_sets=[[l + 1 for l in range(r) if sBneg[v] & sA[l]] for v in range(s)],
        s_sets=[[h + 1 for h in range(v) if sBneg[v] & sBneg[h]] for v in range(s)],
        r0=[l + 1 for l in range(r) if s0 & sA[l]],
        s0=[h + 1 for h in range(s) if s0 & sBneg[h]],
    )


def _group_consecutive(members, key):
    blocks = []
    for x in members:
        if blocks and key(blocks[-1][-1]) == key(x):
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return blocks


def reconstruct_tuples(bp):
    """Rebuild the hyperplane tuple set from the block partition and its flags.

    This is the disjoint-union decomposition of the arrangement: binomial
    pairs and cross products over A-blocks, signed pairs and signed products
    over B-blocks, and the zero column, each switched by its flag from
    ``ideals.block_flags``, which refuses non-uniform blocks.
    """
    blocks, within, cross = block_flags(bp.rst.ambient_dim, bp.hyperplanes, bp.blocks)
    out = set()
    for blk, (pw, nw, z), links in zip(blocks, within, cross):
        pairs = list(itertools.combinations(blk, 2))
        if pw:
            out.update(pairs)
        if nw:
            out.update((a, -b) for a, b in pairs)
        if z:
            out.update((x, 0) for x in blk)
        for bj, pc, nc in links:
            for a in blocks[bj]:
                for b in blk:
                    lo, hi = min(a, b), max(a, b)
                    if pc:
                        out.add((lo, hi))
                    if nc:
                        out.add((lo, -hi))
    return out


# ---- minor sets -------------------------------------------------------------


def _det(rows):
    """Exact determinant by fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_set(vectors):
    """Every square minor of the matrix whose rows are the given vectors, as
    a frozenset.  It is symmetric: row swaps realize both signs, so d and -d
    are recorded together.

    Exhaustive over row and column subsets, so intended for ambient dimension
    at most 5; GuardExceeded for more than ``MAX_MINORS`` minors.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return frozenset()
    dim = len(vectors[0])
    m = len(vectors)
    order = min(m, dim)
    total = sum(comb(m, k) * comb(dim, k) for k in range(1, order + 1))
    if total > MAX_MINORS:
        raise GuardExceeded(f"{total} minors exceeds guard {MAX_MINORS}")
    minors = set()
    for k in range(1, order + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(dim), k):
                d = _det([[vectors[r][c] for c in cols] for r in rows])
                minors.add(d)
                minors.add(-d)
    return frozenset(minors)
