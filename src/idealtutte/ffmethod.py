"""The finite field method for ideal arrangements of classical root systems:
the counting model whose one dynamic program yields the coboundary polynomial
directly (a full arrangement is the single-block case), its one entry
``coboundary_and_rank`` (which the dispatcher, ``specialize``, certifies), and
the brute-force point-counting oracle.  The minor sets of the paper's theorem
on which primes reduce correctly live in ``paper``, with the rest of the
paper's prime route.

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
a t-exponent that depends on the a's and b's alone (b = 0 at stride 1).  So
the splits of each m are summed once per model into a t-polynomial H(m), and
a state r with polynomial P_r has one move per nonzero m <= r, of weight
C(r, m) H(m) = r! H(m) / (m! (r - m)!), k! = prod_i k_i!.  Carrying
Q_r = r! P_r instead makes the weight H(m) D / m! (D = n!) the same in any r.
Nor do a state's moves change between rounds: each state's down-set, the
codes of its nonzero m <= r at one list slot per move, its closing weight
D / r! and its zero exponent, a quadratic form in r, are built once per
``residue_profile`` call, in one sweep over the codes in order, each from a
smaller state's, so a round only multiplies, shifts and adds.

The rank that chi-bar is relative to is read off the tuples as a signed
graph (Zaslavsky's frame matroid), by the union-find that also splits an
ideal's complement into components (``ideals.signed_classes``), apart from
the DP, so the division of the count by q^(m - rank) still checks the DP;
the brute-force oracle takes its rank by Gaussian elimination instead.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import comb, factorial, prod

from .errors import ConstraintError, GuardExceeded, InconsistencyError, UnsupportedTypeError
from .exactpoly import BivariatePolynomial, UnivariatePolynomial
from .ideals import (
    automorphism_blocks,
    complement,
    decompose_components,
    signed_classes,
    tuple_normal,
)

DEFAULT_MAX_POINTS = 10 ** 8
# (state, move) pairs one round of the counting DP may expand
MAX_ROUND_MOVES = 2982616


# ---- brute-force point counting ---------------------------------------------


class TProfile(namedtuple("TProfile", "counts p n rank")):
    """counts[k] = number of points of F_p^n lying on exactly k hyperplanes."""

    __slots__ = ()

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


def count_points_bruteforce(tuples, n, p):
    """Exhaustive weighted point count over F_p^n, up to ``DEFAULT_MAX_POINTS``.

    Membership per hyperplane tuple: (i, j) holds when x_i = x_j, (i, -j)
    when x_i = -x_j, and (i, 0) when x_i = 0.  A repeated tuple counts once,
    in its first place, as ``CountingModel`` reads its tuples as a set.
    """
    if p ** n > DEFAULT_MAX_POINTS:
        raise GuardExceeded(f"p^n = {p ** n} exceeds guard {DEFAULT_MAX_POINTS}")
    from . import crapo

    tuples = list(dict.fromkeys(tuple(t) for t in tuples))
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


def _block_flags(tuples, blocks):
    """Per block (pw, nw, z), whether x_i = x_j, x_i = -x_j and x_i = 0 hold
    within it, and per block the (bj, pc, nc) of each earlier block bj that
    x_i = x_j (pc) or x_i = -x_j (nc) links it to, from one pass over a set
    of normal tuples.  Each tuple is counted under its block pair and kind;
    a flag holds on every pair of its blocks or on none, so ConstraintError
    unless each count is 0 or full: |b_i| |b_j| across two blocks, C(|b|, 2)
    within one, |b| on the zero column.  A repeated tuple would count twice.
    """
    block_of = {x: bi for bi, b in enumerate(blocks) for x in b}
    counts = Counter(
        (block_of[i], block_of[i], 2) if j == 0
        else (*sorted((block_of[i], block_of[abs(j)])), int(j < 0))
        for i, j in tuples
    )
    within = [[False] * 3 for _ in blocks]
    cross = [{} for _ in blocks]
    for (bi, bj, kind), count in sorted(counts.items()):
        n = len(blocks[bi])
        if bi == bj:
            if count != (n if kind == 2 else comb(n, 2)):
                fault = "uniform on the zero column" if kind == 2 else "pair-uniform"
                raise ConstraintError(f"block {blocks[bi]} not {fault}")
            within[bi][kind] = True
        elif count != n * len(blocks[bj]):
            raise ConstraintError(f"blocks {blocks[bi]} x {blocks[bj]} not pair-uniform")
        else:
            cross[bj].setdefault(bi, [bi, False, False])[1 + kind] = True
    return [tuple(w) for w in within], [[tuple(c) for c in links.values()] for links in cross]


class CountingModel:
    """Blocks of exchangeable coordinates for one set of hyperplane tuples (a
    repeated tuple names one hyperplane), with their flags (``_block_flags``):
    ``within``, per block (pw, nw, z), and ``cross``, per block the
    (bj, pc, nc) of the earlier blocks linked to it.  One dynamic program
    over the nonzero residues, with residue 0 in closed form, gives both its
    coboundary polynomial and its weighted point count at any odd prime.
    Its step is chosen from the tuples: one residue per step (stride 1) when
    every hyperplane is x_i = x_j, else one pair {c, p-c} per step
    (stride 2); either way the splits of a step are summed once per model
    into weights that serve every state.

    ``blocks`` defaults to the coordinate classes under hyperplane-set
    automorphisms; the partition in accordance with an ideal is passed as
    ``CountingModel(n, bp.hyperplanes, blocks=bp.blocks)``.  Either way the
    blocks must partition 1..m with uniform flags, else ConstraintError.
    ``rank`` is m minus the number of balanced classes of the tuples' signed
    graph (``ideals.signed_classes``), independent of the blocks and the DP.
    """

    def __init__(self, m, tuples, blocks=None):
        self.m = m
        self.tuples = sorted({tuple(t) for t in tuples})
        for i, j in self.tuples:
            # the flags count only normal tuples (i, j), i < |j|
            if not (1 <= i <= m and (j == 0 or i < abs(j) <= m)):
                raise ConstraintError(f"{(i, j)} is not a hyperplane tuple on 1..{m}")
        self.rank = m - sum(signed_classes(m, self.tuples)[1])
        if blocks is None:
            blocks = automorphism_blocks(m, set(self.tuples))
        self.blocks = [list(b) for b in blocks]
        covered = sorted(x for b in self.blocks for x in b)
        if covered != list(range(1, m + 1)):
            raise ConstraintError("blocks must partition 1..m")
        self.within, self.cross = _block_flags(self.tuples, self.blocks)
        self.stride = 2 if any(j <= 0 for _, j in self.tuples) else 1
        self._sizes = tuple(len(b) for b in self.blocks)
        # place values of the mixed-radix code of a vector m <= the block sizes
        self._radix = tuple(
            prod(n + 1 for n in self._sizes[:bi]) for bi in range(len(self._sizes))
        )
        self._profile = None

    def _split_table(self, width):
        """The move weight H(m) D / m! for every m <= n, in a flat list
        indexed by the mixed-radix code sum_i m_i radix_i: the packed
        t-polynomial shifted down by its lowest exponent e, and e * width.

        H(m)(t) = sum over the splits a + b = m of prod_i C(m_i, a_i) t^de,
        a_i coordinates of block i to c and b_i to p-c (b = 0 at stride 1);
        the weight's terms are prod_i n_i! / (a_i! b_i!) t^de.
        A hyperplane x_i = x_j (x_i = -x_j) holds when i and j take the same
        (opposite) residue of the step, and x_i = 0 never holds off residue
        0, so de depends on the split alone, never on the state it is taken
        from.  At stride 2, swapping c and p-c maps a split to one with the
        same m, weight and exponent, so only splits whose first unequal
        (a_i, b_i) has a_i > b_i are enumerated, at double weight.
        """
        pair = self.stride == 2
        last = len(self._sizes) - 1
        table = [0] * prod(n + 1 for n in self._sizes)
        # partial splits over the blocks so far:
        # (code of m, a's, b's, weight, t-exponent, still a == b everywhere)
        partial = [(0, (), (), 1, 0, pair)]
        for bi, (n, radix) in enumerate(zip(self._sizes, self._radix)):
            pw, nw, _ = self.within[bi]
            within = [
                (a, b, (a + b) * radix, factorial(n) // (factorial(a) * factorial(b)),
                 pw * (a * (a - 1) + b * (b - 1)) // 2 + nw * a * b)
                for a in range(n + 1) for b in range(n - a + 1 if pair else 1)
            ]
            canonical = [o for o in within if o[0] >= o[1]]
            if bi == last:
                # the last block's splits go straight into the table, at
                # stride 2 at double weight unless a == b everywhere
                within = [(a, b, dc, w << pair, d) for a, b, dc, w, d in within]
                canonical = [(a, b, dc, w << (a != b), d) for a, b, dc, w, d in canonical]
            cross = self.cross[bi]
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
                if bi == last:
                    for a, b, dcode, w, d in canonical if tied else within:
                        table[code + dcode] += (weight * w) << (
                            (de + d + a * at_c + b * at_minus_c) * width
                        )
                    continue
                for a, b, dcode, w, d in canonical if tied else within:
                    grown.append((
                        code + dcode, aa + (a,), bb + (b,), weight * w,
                        de + d + a * at_c + b * at_minus_c, tied and a == b,
                    ))
            partial = grown
        out = []
        for poly in table:  # with no blocks, the one entry is 0, at shift 0
            shift = ((poly & -poly).bit_length() - 1) // width * width if poly else 0
            out.append((poly >> shift, shift))
        return out

    def _state_tables(self, width):
        """Per state code r, three flat lists: ``down``, the codes of the
        prod_i (r_i + 1) - 1 nonzero m <= r, r's moves (the empty step is
        left to residue_profile's binomial weights); ``closes``, the closing
        weight D / r!; ``shifts``, the t-exponent de(r) of sending every
        coordinate left in r to residue 0, times width.

        One sweep steps r in place like an odometer, in code order: the
        first block below its size steps up, and every block before it
        restarts at 0.  That block i is r's first nonzero block, so r - e_i
        has the smaller code code - radix_i, and r's entries come from its:
        - down(r) = down(r - e_i) + the codes with m_i = r_i, which are
          r_i radix_i plus 0 or a code of down(r'), r' = r with block i
          emptied, a smaller code.  Every entry is an int of one shared list
          of the codes, so the table costs one list slot per move.
        - r! = (r - e_i)! r_i.
        - At 0, x_i = x_j, x_i = -x_j and x_i = 0 all hold; a coordinate at 0
          and one at a nonzero residue satisfy neither.  So de(r) is the
          quadratic form sum_i ((pw_i + nw_i) C(r_i, 2) + z_i r_i)
          + sum_{j < i} (pc_ij + nc_ij) r_i r_j, and de(r) = de(r - e_i)
          + (pw_i + nw_i)(r_i - 1) + z_i + sum_j (pc_ij + nc_ij) r_j over the
          blocks j linked to i, all later than i since r_j = 0 before it.
        """
        sizes = self._sizes
        within = [width * (pw + nw) for pw, nw, _ in self.within]
        zero = [width * z for _, _, z in self.within]
        later = [[] for _ in sizes]
        for bi, cross in enumerate(self.cross):
            for bj, pc, nc in cross:
                later[bj].append((bi, width * (pc + nc)))
        codes = list(range(prod(n + 1 for n in sizes)))
        down, closes, shifts = [[]], [prod(map(factorial, sizes))], [0]
        r = [0] * len(sizes)
        for code in range(1, len(codes)):
            i = 0
            while r[i] == sizes[i]:
                r[i] = 0
                i += 1
            r[i] += 1
            ri, radix = r[i], self._radix[i]
            prev, low = code - radix, ri * radix
            down.append(down[prev] + [codes[low]]
                        + [codes[low + c] for c in down[code - low]])
            closes.append(closes[prev] // ri)
            shifts.append(shifts[prev] + within[i] * (ri - 1) + zero[i]
                          + sum(c * r[j] for j, c in later[i]))
        return down, closes, shifts

    def residue_profile(self):
        """F_u for u = 0, 1, ...: dense t-coefficient lists of the weight that
        exhausts every block with exactly u non-empty steps and residue 0,
        where a step is one residue pair (stride 2) or one residue (stride 1).

        Starting from the full block sizes n, each round first closes every
        live state into F_u (residue 0 takes whatever the steps left, at the
        state's zero exponent), then applies one more non-empty step.  An empty
        step leaves the state unchanged, so over the (p-1)/s steps the count
        is sum_u C((p-1)/s, u) F_u.  The loop ends within m + 1 rounds.
        Computed once per model, and refused with GuardExceeded before
        anything is built when one round could expand more than
        ``MAX_ROUND_MOVES`` (state, move) pairs:
        prod_i C(n_i + 2, 2) - prod_i (n_i + 1) moves.  Past the guard, the
        moves of every state, one list slot per move, the states' closing
        weights and zero shifts (all three in one sweep, ``_state_tables``)
        and the move weights (``_split_table``) are built once, as flat lists
        indexed by code; every round reads them, and they are
        freed on return, so the model keeps only the profile.  A state r
        carries Q_r = r! P_r, from Q_n = D; a move adds Q_r times its weight
        to D Q_(r-m), r closes at D / r! into D F_u; every division by D is
        checked.

        Each t-polynomial is one integer, the coefficient of t^e in bits
        [e * width, (e + 1) * width): a move is one multiplication and one
        shift.  Every weight is positive, so each coefficient of a product
        is at most one of some D Q_r <= D^2 P_r, and one of P_r counts at
        most the maps from the m coordinates to residue 0 and the s * u
        residues of u <= m steps, (s m + 1)^m.  So (s m + 1)^m D^2 < 2^width
        keeps every field from carrying into the next.
        """
        if self._profile is not None:
            return self._profile
        # a round expands each state r <= n at most once, into prod_i (r_i + 1) - 1 moves
        moves = prod(comb(n + 2, 2) for n in self._sizes) - prod(n + 1 for n in self._sizes)
        if moves > MAX_ROUND_MOVES:
            raise GuardExceeded(
                f"the counting DP of blocks {list(self._sizes)} can expand {moves} moves "
                f"in one round, over its guard of {MAX_ROUND_MOVES}"
            )
        scale = prod(map(factorial, self._sizes))
        width = ((self.stride * self.m + 1) ** self.m * scale ** 2).bit_length()
        mask = (1 << width) - 1
        weights, shifts = zip(*self._split_table(width))
        down, closes, zero_shifts = self._state_tables(width)
        states = [(len(closes) - 1, scale)]
        profile = []
        while states:
            closed = 0
            nxt = [0] * len(closes)
            for code, q in states:
                closed += (q * closes[code]) << zero_shifts[code]
                for mc in down[code]:
                    nxt[code - mc] += (q * weights[mc]) << shifts[mc]
            closed = _divide_exactly(closed, scale)
            profile.append([(closed >> (e * width)) & mask for e in range(len(self.tuples) + 1)])
            states = [(code, _divide_exactly(q, scale)) for code, q in enumerate(nxt) if q]
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
        checked exact.  N is expanded into one dense t-list per q-degree;
        dividing it by q^(m - rank), with ``rank`` from the signed graph,
        checks that its low q-rows vanish, and chi-bar(q, 1) = q^rank that
        the row sums do.
        """
        s = self.stride
        profile = self.residue_profile()
        # num[dq][e]: the coefficient of q^dq t^e in N
        num = [[0] * (len(self.tuples) + 1) for _ in profile]
        falling = [1]  # q-coefficients of prod_{k<u} (q - 1 - sk)
        for u, f in enumerate(profile):
            d = s ** u * factorial(u)
            for e, c in enumerate(f):
                if c % d:
                    raise InconsistencyError(
                        f"F_{u} coefficient {c} at t^{e} not divisible by s^u u! = {d}"
                    )
            # only F_u's nonzero span [lo, hi) of t-exponents is added in
            lo, hi = 0, len(f)
            while hi and not f[hi - 1]:
                hi -= 1
            while lo < hi and not f[lo]:
                lo += 1
            f = [c // d for c in f[lo:hi]]
            for dq, a in enumerate(falling):
                row = num[dq]
                row[lo:hi] = [x + a * c for x, c in zip(row[lo:hi], f)]
            shifted = [0] + falling
            for k, a in enumerate(falling):
                shifted[k] -= (s * u + 1) * a
            falling = shifted
        shift = self.m - self.rank
        if any(map(any, num[:shift])):
            raise InconsistencyError(
                f"point-count polynomial not divisible by q^(m-rank) = q^{shift}"
            )
        at_one = {dq: c for dq, c in enumerate(map(sum, num[shift:])) if c}
        if at_one != {self.rank: 1}:
            raise InconsistencyError(f"chi-bar(q, 1) is not q^{self.rank}")
        out = {
            (dq, e): c for dq, row in enumerate(num[shift:]) for e, c in enumerate(row) if c
        }
        return BivariatePolynomial._of(out, ("q", "t"))

    def coboundary_at_prime(self, p):
        """chi-bar(p, t): the profile divided by p^(m - rank), exactly."""
        return TProfile(tuple(self.point_count_profile(p)), p, self.m, self.rank).coboundary()


def _divide_exactly(poly, d):
    """poly // d for a packed t-polynomial, InconsistencyError on a remainder.

    The check sees the whole integer, sum_e c_e 2^(e * width), not each field
    c_e: the remainder mixes the fields' residues.  When d = 2^k it reads the
    low k bits alone, so only the lowest t-field is checked.  What it misses
    is caught downstream: ``coboundary`` checks each F_u coefficient's
    division by s^u u! and chi-bar(q, 1) = q^rank, and
    ``specialize.certify_coboundary`` checks chi-bar(1, t) = t^m and chi's
    split over the ideal exponents on every command.
    """
    q, rem = divmod(poly, d)
    if rem:
        raise InconsistencyError(f"a counting DP polynomial is not divisible by D = {d}")
    return q


# ---- the ideal pipeline ------------------------------------------------------


def coboundary_and_rank(ideal):
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
    result, rank = None, 0
    for component in decompose_components(complement(ideal)):
        model = CountingModel(component.size, component.tuples)
        cb = model.coboundary()
        result = cb if result is None else result * cb
        rank += model.rank
    return (BivariatePolynomial.one(("q", "t")) if result is None else result), rank
