"""The finite field method for ideal arrangements of classical root systems:
the counting model whose one dynamic program yields the coboundary polynomial
directly (a full arrangement is the single-block case), and the brute-force
point-counting oracle.  The minor sets of the paper's theorem on which primes
reduce correctly live in ``paper``, with the rest of the paper's prime route.

The count over F_p sums, over all ways of distributing each block of
exchangeable coordinates across the residues of F_p, the multinomial weight
times t to the number of hyperplanes the distribution satisfies.  The dynamic
program consumes the nonzero residues in steps, which keeps it independent of
which residue is which; residue 0 takes whatever coordinates the steps leave,
and the hyperplanes it satisfies have a closed form.  Each step takes s
residues: a symmetric pair {c, p-c} (s = 2) when some hyperplane is x_i = -x_j
or x_i = 0, else one residue c (s = 1), since x_i = x_j alone never relates
distinct residues.  A step left empty changes nothing, so the program records
only non-empty steps; the count at any odd p, and chi-bar(q, t) itself, follow
from that record by the binomial weights C((p-1)/s, u).

A step that takes a_i coordinates of block i to c and b_i to p-c has weight
C(r_i, a_i) C(r_i - a_i, b_i) = C(r_i, m_i) C(m_i, a_i), m_i = a_i + b_i, and
a t-exponent that depends on the a's and b's alone.  So the splits of each
consumption m are summed once per model into a t-polynomial H(m), and a state
r has one move per nonzero m <= r, of weight prod_i C(r_i, m_i) H(m); the
stride decides only whether b may be nonzero.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb, factorial, prod

from .errors import ConstraintError, GuardExceeded, InconsistencyError, UnsupportedTypeError
from .exactpoly import BivariatePolynomial, UnivariatePolynomial, coboundary_to_tutte
from .ideals import (
    automorphism_blocks,
    block_incidence,
    complement,
    decompose_components,
    tuple_normal,
)
from . import crapo

DEFAULT_MAX_POINTS = 10 ** 8


# ---- brute-force point counting ---------------------------------------------


@dataclass(frozen=True)
class TProfile:
    """counts[k] = number of points of F_p^n lying on exactly k hyperplanes."""

    counts: tuple
    p: int
    n: int
    rank: int

    def total(self):
        return sum(self.counts)

    def coboundary(self):
        """chi-bar(p, t) as a polynomial in t: the profile divided by p^(n - rank)."""
        d = self.p ** (self.n - self.rank)
        out = []
        for c in self.counts:
            if c % d:
                raise InconsistencyError(
                    f"profile entry {c} not divisible by p^(n-rank) = {d}"
                )
            out.append(c // d)
        return UnivariatePolynomial(out)


def count_points_bruteforce(tuples, n, p, max_points=DEFAULT_MAX_POINTS):
    """Exhaustive weighted point count over F_p^n.

    Membership per hyperplane tuple: (i, j) holds when x_i = x_j, (i, -j)
    when x_i = -x_j, and (i, 0) when x_i = 0.
    """
    if p ** n > max_points:
        raise GuardExceeded(f"p^n = {p ** n} exceeds guard {max_points}")
    tuples = [tuple(t) for t in tuples]
    rank = crapo.rank_of([tuple_normal(t, n) for t in tuples])
    import numpy as np

    total = p ** n
    chunk = 1 << 20
    weights = p ** np.arange(n, dtype=np.int64)
    counts = np.zeros(len(tuples) + 1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        grid = (idx[None, :] // weights[:, None]) % p
        hits = np.zeros(idx.shape[0], dtype=np.int64)
        for (i, j) in tuples:
            if j == 0:
                hits += grid[i - 1] == 0
            elif j > 0:
                hits += grid[i - 1] == grid[j - 1]
            else:
                hits += grid[i - 1] == (p - grid[-j - 1]) % p
        counts += np.bincount(hits, minlength=len(tuples) + 1)
    return TProfile(tuple(int(c) for c in counts), p, n, rank)


# ---- the counting model and its dynamic program ------------------------------


class CountingModel:
    """Blocks of exchangeable coordinates plus their ``incidence``
    (``ideals.block_incidence``) for one hyperplane tuple set.  One dynamic
    program over the nonzero residues, with residue 0 in closed form, gives
    both its coboundary polynomial and its weighted point count at any odd
    prime.  Its step is chosen from the incidence flags: one residue per
    step (stride 1) when every hyperplane is x_i = x_j, else one pair
    {c, p-c} per step (stride 2); either way the splits of a step are
    summed once per model (``_split_table``).

    ``blocks`` defaults to the coordinate classes under hyperplane-set
    automorphisms; the partition in accordance with an ideal is passed as
    ``CountingModel(n, bp.hyperplanes, blocks=bp.blocks)``.  Either way the
    blocks must partition 1..m with uniform incidence, else ConstraintError.
    """

    def __init__(self, m, tuples, blocks=None):
        self.m = m
        self.tuples = sorted(tuple(t) for t in tuples)
        for i, j in self.tuples:
            # the incidence flags read only normal tuples (i, j), i < |j|
            if not (1 <= i <= m and (j == 0 or i < abs(j) <= m)):
                raise ConstraintError(f"{(i, j)} is not a hyperplane tuple on 1..{m}")
        tset = set(self.tuples)
        self.rank = crapo.rank_of([tuple_normal(t, m) for t in self.tuples])
        if blocks is None:
            blocks = automorphism_blocks(m, tset)
        self.blocks = [list(b) for b in blocks]
        covered = sorted(x for b in self.blocks for x in b)
        if covered != list(range(1, m + 1)):
            raise ConstraintError("blocks must partition 1..m")
        inc = self.incidence = block_incidence(self.blocks, tset)
        paired = any(inc.neg_within) or any(inc.neg_cross.values()) or any(inc.zero_flags)
        self.stride = 2 if paired else 1
        # per block, the earlier blocks bj some hyperplane links it to:
        # (bj, has x_i = x_j, has x_i = -x_j)
        self._cross = [
            [(bj, inc.pos_cross[(bj, bi)], inc.neg_cross[(bj, bi)]) for bj in range(bi)
             if inc.pos_cross[(bj, bi)] or inc.neg_cross[(bj, bi)]]
            for bi in range(len(self.blocks))
        ]
        self._sizes = tuple(len(b) for b in self.blocks)
        # place values of the mixed-radix code of a vector m <= the block sizes
        self._radix = tuple(
            prod(n + 1 for n in self._sizes[:bi]) for bi in range(len(self._sizes))
        )
        self._splits = None  # code of m -> H(m), built by residue_profile
        self._kernel = {}  # state -> (zero exponent, moves)
        self._profile = None

    def _zero_exponent(self, state):
        """t-exponent of sending every coordinate left in ``state`` to residue 0.

        At 0, x_i = x_j, x_i = -x_j and x_i = 0 all hold; a coordinate at 0
        and one at a nonzero residue satisfy neither x_i = x_j nor x_i = -x_j.
        """
        inc = self.incidence
        de = 0
        for bi, r in enumerate(state):
            de += (inc.pos_within[bi] + inc.neg_within[bi]) * comb(r, 2)
            de += inc.zero_flags[bi] * r
            for bj, pc, nc in self._cross[bi]:
                de += (pc + nc) * state[bj] * r
        return de

    def _split_table(self, width):
        """H(m) for every consumption vector m <= the full block sizes, in a
        flat list indexed by the mixed-radix code sum_i m_i radix_i: the
        packed t-polynomial shifted down by its lowest exponent e, and e.

        H(m)(t) = sum over the splits a + b = m of prod_i C(m_i, a_i) t^de,
        a_i coordinates of block i to c and b_i to p-c (b = 0 at stride 1).
        A hyperplane x_i = x_j (x_i = -x_j) holds when i and j take the same
        (opposite) residue of the step, and x_i = 0 never holds off residue
        0, so de depends on the split alone, never on the state it is taken
        from.  At stride 2, swapping c and p-c maps a split to one with the
        same m, weight and exponent, so only splits whose first unequal
        (a_i, b_i) has a_i > b_i are enumerated, at double weight.
        """
        inc = self.incidence
        pair = self.stride == 2
        # partial splits over the blocks so far:
        # (code of m, a's, b's, weight, t-exponent, still a == b everywhere)
        partial = [(0, (), (), 1, 0, pair)]
        for bi, (n, radix) in enumerate(zip(self._sizes, self._radix)):
            pw, nw = inc.pos_within[bi], inc.neg_within[bi]
            within = [
                (a, b, (a + b) * radix, comb(a + b, a),
                 pw * (a * (a - 1) + b * (b - 1)) // 2 + nw * a * b)
                for a in range(n + 1) for b in range(n - a + 1 if pair else 1)
            ]
            canonical = [o for o in within if o[0] >= o[1]]
            cross = self._cross[bi]
            grown = []
            for code, aa, bb, weight, de, tied in partial:
                at_c = at_minus_c = 0
                for bj, pc, nc in cross:
                    if pc:
                        at_c += aa[bj]
                        at_minus_c += bb[bj]
                    if nc:
                        at_c += bb[bj]
                        at_minus_c += aa[bj]
                for a, b, dcode, w, d in canonical if tied else within:
                    grown.append((
                        code + dcode, aa + (a,), bb + (b,), weight * w,
                        de + d + a * at_c + b * at_minus_c, tied and a == b,
                    ))
            partial = grown
        table = [0] * prod(n + 1 for n in self._sizes)
        for code, _, _, weight, de, tied in partial:
            table[code] += (2 * weight if pair and not tied else weight) << (de * width)
        out = []
        for poly in table:
            e = ((poly & -poly).bit_length() - 1) // width
            out.append((poly >> (e * width), e))
        return out

    def _step(self, state):
        """(zero exponent, moves) of ``state``, computed once per model: one
        move (rest r - m, packed weight prod_i C(r_i, m_i) H(m), its lowest
        t-exponent) per nonzero m <= r, so exactly prod_i (r_i + 1) - 1 at
        either stride.  The empty step is the identity, left to
        residue_profile's binomial weights."""
        entry = self._kernel.get(state)
        if entry is None:
            # (rest, code of m, prod C(r_i, m_i)) over the blocks so far
            partial = [((), 0, 1)]
            for r, radix in zip(state, self._radix):
                row = [comb(r, k) for k in range(r + 1)]
                partial = [
                    (rest + (r - k,), code + k * radix, w * c)
                    for rest, code, w in partial for k, c in enumerate(row)
                ]
            splits = self._splits
            moves = [  # partial[0] consumes nothing
                (rest, w * poly, e) for rest, code, w in partial[1:] for poly, e in [splits[code]]
            ]
            entry = self._kernel[state] = (self._zero_exponent(state), moves)
        return entry

    def residue_profile(self):
        """F_u for u = 0, 1, ...: dense t-coefficient lists of the weight that
        exhausts every block with exactly u non-empty steps and residue 0,
        where a step is one residue pair (stride 2) or one residue (stride 1).

        Starting from the full block sizes, each round first closes every live
        state into F_u (residue 0 takes whatever the steps left, at weight 1
        and ``_zero_exponent``), then applies one more non-empty step.  An
        empty step leaves the state unchanged, so over the (p-1)/s steps the
        count is sum_u C((p-1)/s, u) F_u.  Each non-empty step consumes at
        least one coordinate, so the loop ends within m + 1 rounds.  Computed
        once per model, and refused with GuardExceeded before anything is
        built when the kernel would cache more than
        ``crapo.MAX_KERNEL_BYTES // 180`` moves: prod_i C(n_i + 2, 2) -
        prod_i (n_i + 1) over the block sizes n_i.

        Each t-polynomial is one integer, the coefficient of t^e in bits
        [e * width, (e + 1) * width): applying a move is one multiplication
        by its packed weight and one shift by its lowest exponent.  Every
        weight is positive, so each coefficient of a product, a state's or a
        move's, is a partial count: at most the maps from the m coordinates
        to residue 0 and the s * u residues of u <= m steps, at most
        (s m + 1)^m < 2^width.  So no field carries into the next, though a
        move's weight has many terms at stride 2.
        """
        if self._profile is not None:
            return self._profile
        # every state r <= the block sizes is reachable and caches
        # prod_i (r_i + 1) - 1 moves, at about 180 bytes each
        moves = prod(comb(n + 2, 2) for n in self._sizes) - prod(n + 1 for n in self._sizes)
        if moves > crapo.MAX_KERNEL_BYTES // 180:
            raise GuardExceeded(
                f"the counting kernel of blocks {list(self._sizes)} would cache {moves} "
                f"moves, over {crapo.MAX_KERNEL_BYTES // 180} (MAX_KERNEL_BYTES // 180)"
            )
        width = ((self.stride * self.m + 1) ** self.m).bit_length()
        mask = (1 << width) - 1
        self._splits = self._split_table(width)
        states = {self._sizes: 1}
        profile = []
        while states:
            closed = 0
            nxt = defaultdict(int)
            for st, poly in states.items():
                de0, moves = self._step(st)
                closed += poly << (de0 * width)
                for st2, w, de in moves:
                    nxt[st2] += (poly * w) << (de * width)
            profile.append([(closed >> (e * width)) & mask for e in range(len(self.tuples) + 1)])
            states = nxt
        self._profile = tuple(profile)
        return self._profile

    def point_count_profile(self, p):
        """Dense coefficient list of sum over F_p^m of t^(#satisfied hyperplanes)."""
        if p % 2 == 0:
            raise ConstraintError("the counting model requires an odd prime")
        steps = (p - 1) // self.stride
        out = [0] * (len(self.tuples) + 1)
        for u, f in enumerate(self.residue_profile()):
            w = comb(steps, u)
            for e, c in enumerate(f):
                out[e] += w * c
        if sum(out) != p ** self.m:
            raise InconsistencyError("point count does not total p^m")
        return out

    def coboundary(self):
        """chi-bar(q, t) exactly, with no primes and no interpolation.

        N(q, t) = sum_u C((q-1)/s, u) F_u(t), with s the stride, agrees with
        the point count at every odd prime, so it is the point-count
        polynomial, and chi-bar is N / q^(m - rank).
        C((q-1)/s, u) = prod_{k<u} (q-1-sk) / (s^u u!), and each division is
        checked exact.
        """
        s = self.stride
        num = {}
        falling = [1]  # q-coefficients of prod_{k<u} (q - 1 - sk)
        for u, f in enumerate(self.residue_profile()):
            d = s ** u * factorial(u)
            for e, c in enumerate(f):
                if not c:
                    continue
                if c % d:
                    raise InconsistencyError(
                        f"F_{u} coefficient {c} at t^{e} not divisible by s^u u! = {d}"
                    )
                for dq, a in enumerate(falling):
                    num[(dq, e)] = num.get((dq, e), 0) + a * (c // d)
            shifted = [0] + falling
            for k, a in enumerate(falling):
                shifted[k] -= (s * u + 1) * a
            falling = shifted
        shift = self.m - self.rank
        out = {}
        for (dq, dt), c in num.items():
            if not c:
                continue
            if dq < shift:
                raise InconsistencyError(
                    f"point-count polynomial not divisible by q^(m-rank) = q^{shift}"
                )
            out[(dq - shift, dt)] = c
        at_one = {}
        for (dq, _), c in out.items():
            at_one[dq] = at_one.get(dq, 0) + c
        if {k: c for k, c in at_one.items() if c} != {self.rank: 1}:
            raise InconsistencyError(f"chi-bar(q, 1) is not q^{self.rank}")
        return BivariatePolynomial(out, ("q", "t"))

    def coboundary_at_prime(self, p):
        """chi-bar(p, t): the profile divided by p^(m - rank), exactly."""
        return TProfile(tuple(self.point_count_profile(p)), p, self.m, self.rank).coboundary()


# ---- full classical arrangements --------------------------------------------


def full_arrangement_tuples(family, n):
    """Hyperplane tuples of the full classical arrangement."""
    if family not in ("A", "B", "C", "D"):
        raise UnsupportedTypeError(f"full arrangements are for classical families, not {family}")
    out = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if family in ("B", "C", "D"):
        out += [(i, -j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if family in ("B", "C"):
        out += [(i, 0) for i in range(1, n + 1)]
    return sorted(out)


def coboundary_full(family, n):
    """Exact chi-bar(q, t) of the full classical arrangement.

    Every coordinate is exchangeable with every other, so the counting model
    has a single block and its one dynamic program gives chi-bar directly.
    """
    return CountingModel(n, full_arrangement_tuples(family, n)).coboundary()


# ---- the ideal pipeline ------------------------------------------------------


def _coboundary_and_rank(ideal):
    """chi-bar(q, t) and the rank of a classical ideal arrangement.

    Decomposes the complement into connected components and multiplies their
    coboundary polynomials (chi-bar is rank-relative, so components simply
    multiply).  Each component's chi-bar comes straight from its counting
    model's residue profile; the components share no coordinate, so their
    ranks add up to the arrangement's.
    """
    rst = ideal.rst
    if not rst.is_classical:
        raise UnsupportedTypeError(
            f"the finite field pipeline covers classical types, not {rst.family}"
        )
    result = BivariatePolynomial.one(("q", "t"))
    rank = 0
    for component in decompose_components(complement(ideal)):
        model = CountingModel(component.size, component.tuples)
        result = result * model.coboundary()
        rank += model.rank
    return result, rank


def coboundary_polynomial(ideal):
    """Exact coboundary polynomial chi-bar(q, t) of a classical ideal arrangement."""
    return _coboundary_and_rank(ideal)[0]


def tutte_via_ffmethod(ideal):
    """Tutte polynomial of a classical ideal arrangement via the coboundary route."""
    return coboundary_to_tutte(*_coboundary_and_rank(ideal))
