"""The finite field method for ideal arrangements of classical root systems:
the counting model whose one dynamic program yields the coboundary polynomial
directly (a full arrangement is the single-block case), its one entry
``coboundary_and_rank`` (which the dispatcher, ``specialize``, certifies), and
the brute-force point-counting oracle, with ``coboundary_at``, which reads
chi-bar at a prime for comparison with it.  The model's blocks and flags,
and the oracle's check of its tuples, come from ``ideals.block_flags``.  The
minor sets of the paper's theorem on which primes reduce correctly live in
``paper``, with the rest of the paper's prime route.

The count over F_p sums, over all ways of distributing each block of
exchangeable coordinates across the residues of F_p, the multinomial weight
times t to the number of hyperplanes the distribution satisfies.  The dynamic
program consumes the nonzero residues in steps, which keeps it independent of
which residue is which; residue 0 takes whatever coordinates the steps leave,
and the hyperplanes it satisfies have a closed form.  Each step takes s
residues: a symmetric pair {c, p-c} (s = 2) when some hyperplane is x_i = -x_j
or x_i = 0, else one residue c (s = 1), since x_i = x_j alone never relates
distinct residues.  A step left empty changes nothing, so the program records
only non-empty steps, and as a set: G_u, the weight of every set of u
non-empty steps.  Over F_p a set of u steps goes onto the (p-1)/s residue
steps in C((p-1)/s, u) u! = prod_{k<u} (p-1-sk) / s^u ways, so the count is a
polynomial in p, and chi-bar(q, t) follows from the record by those weights
with q for p.  The count at a prime p is chi-bar read at q = p, times
p^(m - rank).

A step that takes a_i coordinates of block i to c and b_i to p-c has weight
C(r_i, a_i) C(r_i - a_i, b_i) = C(r_i, m_i) C(m_i, a_i), m_i = a_i + b_i, and
a t-exponent that depends on the a's and b's alone (b = 0 at stride 1).  So
the splits of each m are summed once per model into a t-polynomial H(m).
Each set of steps is counted once by pointing (the exponential formula's
d_i (G^u / u!) = (G^(u-1) / (u-1)!) d_i G, Stanley, EC2 5.1).  With W_u(e)
the weight of the sets of u steps that use exactly the coordinates of e,
W_u(e) = sum_m C(e, m) (m_i / e_i) H(m) W_(u-1)(e - m) over the nonzero
m <= e with m_i > 0, for i the last nonzero block of e:
C(e, m) m_i / e_i = C(e - 1_i, m - 1_i) chooses the step that holds one
fixed coordinate of block i, and the program takes that step last.  So a
state r, whose consumed vector e' = n - r ends at block L, has one move per
nonzero m <= r with an entry at a block >= L (m_i > 0 for the last nonzero
block i of e' + m; every nonzero m at r = n), and that block i is m's last
nonzero block.  Carrying Q_r = D W(e') / e'! (D = n!, from Q_n = D), the
move adds Q_r H(m) m_i D / m!, the same in any r, to D e_i Q_(r-m).
Nor do a state's moves change between rounds: each state's moves, the codes
of those m at one list slot per move, its closing weight D / r! and its zero
exponent, a quadratic form in r, are built once per DP run, in one sweep
over the codes in order, each from a smaller state's, so a round only
multiplies, shifts, adds and divides.

The rank that chi-bar is relative to is read off the tuples as a signed
graph (Zaslavsky's frame matroid), by the union-find that also splits an
ideal's complement into components (``ideals.signed_classes``), apart from
the DP, so the division of the count by q^(m - rank) still checks the DP;
the brute-force oracle takes its rank by Gaussian elimination instead.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial, prod

from .errors import GuardExceeded, InconsistencyError
from .exactpoly import BivariatePolynomial, UnivariatePolynomial
from .ideals import block_flags, decompose_components, signed_classes, tuple_normal

DEFAULT_MAX_POINTS = 10 ** 8
# the (state, move) pairs one round of the counting DP may expand, checked
# against an upper bound: every state r with all prod_i (r_i + 1) - 1 of its
# nonzero m <= r, of which pointing keeps a part
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


def coboundary_at(cb, q):
    """chi-bar(q, t) read at the integer q, a polynomial in t: at a prime q,
    what ``TProfile.coboundary`` gives of the count over F_q."""
    coeffs = [0] * (cb.degree(1) + 1)
    for (dq, dt), c in cb.coeffs.items():
        coeffs[dt] += c * q ** dq
    return UnivariatePolynomial(coeffs)


def count_points_bruteforce(tuples, n, p):
    """Exhaustive weighted point count over F_p^n, up to ``DEFAULT_MAX_POINTS``.

    Membership per hyperplane tuple: (i, j) holds when x_i = x_j, (i, -j)
    when x_i = -x_j, and (i, 0) when x_i = 0.  A repeated tuple counts once,
    in its first place, as ``CountingModel`` reads its tuples as a set, and
    ``ideals.block_flags`` refuses the tuples that model refuses.
    """
    tuples = list(dict.fromkeys(tuple(t) for t in tuples))
    block_flags(n, tuples)
    if p ** n > DEFAULT_MAX_POINTS:
        raise GuardExceeded(f"p^n = {p ** n} exceeds guard {DEFAULT_MAX_POINTS}")
    from . import crapo

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
    """Blocks of exchangeable coordinates for one set of hyperplane tuples (a
    repeated tuple names one hyperplane), with their flags, all three from
    one reading of the tuples (``ideals.block_flags``): ``within``, per
    block (pw, nw, z), and ``cross``, per block the (bj, pc, nc) of the
    earlier blocks linked to it.  One dynamic program over the nonzero
    residues, with residue 0 in closed form, gives its coboundary
    polynomial, read at q = p for the count at a prime p.
    Its step is chosen from the tuples: one residue per step (stride 1) when
    every hyperplane is x_i = x_j, else one pair {c, p-c} per step
    (stride 2); either way the splits of a step are summed once per model
    into weights that serve every state.  ``moves_expanded`` counts the
    (state, move) pairs the program expanded, 0 until it has run.

    ``blocks`` defaults to the coordinate classes under hyperplane-set
    automorphisms; the partition in accordance with an ideal is passed as
    ``CountingModel(n, bp.hyperplanes, blocks=bp.blocks)``, which
    ``block_flags`` checks.
    ``rank`` is m minus the number of balanced classes of the tuples' signed
    graph (``ideals.signed_classes``), independent of the blocks and the DP.
    """

    def __init__(self, m, tuples, blocks=None):
        self.m = m
        self.tuples = sorted({tuple(t) for t in tuples})
        self.blocks, self.within, self.cross = block_flags(m, self.tuples, blocks)
        self.rank = m - sum(signed_classes(m, self.tuples)[1])
        self.stride = 2 if any(j <= 0 for _, j in self.tuples) else 1
        self._sizes = tuple(len(b) for b in self.blocks)
        # place values of the mixed-radix code of a vector m <= the block sizes
        self._radix = tuple(
            prod(n + 1 for n in self._sizes[:bi]) for bi in range(len(self._sizes))
        )
        self._rounds = None
        self.moves_expanded = 0

    def _last_entries(self):
        """Per code of a vector v <= the block sizes, v's entry at its last
        nonzero block, the code's leading mixed-radix digit (0 at v = 0)."""
        tops = self._radix[1:] + (prod(n + 1 for n in self._sizes),)
        return [0] + [
            code // radix for radix, top in zip(self._radix, tops) for code in range(radix, top)
        ]

    def _split_table(self, width):
        """The move weight H(m) m_i D / m!, i the last nonzero block of m,
        for every m <= n, in a flat list indexed by the mixed-radix code
        sum_i m_i radix_i: the packed t-polynomial shifted down by its lowest
        exponent e, and e * width.

        H(m)(t) = sum over the splits a + b = m of prod_i C(m_i, a_i) t^de,
        a_i coordinates of block i to c and b_i to p-c (b = 0 at stride 1);
        the weight's terms are m_i prod_j n_j! / (a_j! b_j!) t^de.
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
        # with no blocks, the one entry is 0, at shift 0; m = 0 weighs 0
        for poly, last in zip(table, self._last_entries()):
            shift = ((poly & -poly).bit_length() - 1) // width * width if poly else 0
            out.append(((poly >> shift) * last, shift))
        return out

    def _state_tables(self, width):
        """Per state code r, three flat lists: ``down``, the codes of r's
        moves, the nonzero m <= r with an entry at a block >= L, L the last
        nonzero block of r's consumed vector n - r (every nonzero m <= n at
        r = n; the empty step is left to ``coboundary``'s weights); ``closes``,
        the closing weight D / r!; ``shifts``, the t-exponent de(r) of sending
        every coordinate left in r to residue 0, times width.

        One sweep steps r in place like an odometer, in code order: the
        first block below its size steps up, and every block before it
        restarts at 0.  That block i is r's first nonzero block, so r - e_i
        has the smaller code code - radix_i, and r's entries come from its:
        - down(r) = down(r - e_i) + the moves with m_i = r_i: r_i radix_i
          plus each code of down(r'), r' = r with block i emptied, a smaller
          code, and r_i radix_i itself (m = r_i e_i) when L <= i, that is
          when every block after i is full in r.  When L > i, r - e_i and r'
          share r's L; when L <= i, theirs is i, and every nonzero m below
          them is a move, as it is for r.  Every entry is an int of one
          shared list of the codes, so the table costs one list slot per
          move.
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
        # every block after i is full in r exactly when r's code is at least
        # that of n with blocks 0..i emptied
        full_after = [len(codes) - top for top in self._radix[1:] + (len(codes),)]
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
            first = [codes[low]] if code >= full_after[i] else []
            down.append(down[prev] + first + [codes[low + c] for c in down[code - low]])
            closes.append(closes[prev] // ri)
            shifts.append(shifts[prev] + within[i] * (ri - 1) + zero[i]
                          + sum(c * r[j] for j, c in later[i]))
        return down, closes, shifts

    def _packed_rounds(self):
        """(width, G): G_u for u = 0, 1, ..., each one packed t-polynomial,
        the weight that exhausts every block with a set of exactly u
        non-empty steps and residue 0, where a step is one residue pair
        (stride 2) or one residue (stride 1).

        Starting from the full block sizes n, each round first closes every
        live state into G_u (residue 0 takes whatever the steps left, at the
        state's zero exponent), then applies one more non-empty step.  The
        loop ends within m + 1 rounds.  Computed once per model, and refused
        with GuardExceeded before anything is built when one round could
        expand more than ``MAX_ROUND_MOVES`` (state, move) pairs, by the
        upper bound prod_i C(n_i + 2, 2) - prod_i (n_i + 1), the moves of
        every state without pointing.  Past the guard, the moves of every
        state, one list slot per move, the states' closing weights and zero
        shifts (all three in one sweep, ``_state_tables``) and the move
        weights (``_split_table``) are built once, as flat lists indexed by
        code; every round reads them, and they are freed on return, so the
        model keeps only the rounds.  A state r carries Q_r, from Q_n = D; a
        move adds Q_r times its weight to D e_i Q_(r-m), and r closes at
        D / r! into D G_u; every division, by D or by D e_i (e_i the entry
        of n - r at its last nonzero block), is checked.

        Each t-polynomial is one integer, the coefficient of t^e in bits
        [e * width, (e + 1) * width): a move is one multiplication and one
        shift.  Every weight is positive, so each coefficient of a product
        is at most one of the sum it is added into, D e_i Q_r' for the
        target r', where e_i Q_r' = (n! / e!) e_i W(e) <= D W(e) as
        n_i! / (e_i - 1)! <= n_i!; and one of W(e) counts at most the maps
        from the m coordinates to residue 0 and the s * u residues of u <= m
        steps, (s m + 1)^m.  ``coboundary`` adds the rounds into signed
        fields of N(q, t), each at most (m + 1) (s m + 1)^m in absolute
        value.  So a width of bits for D^2 (s m + 1)^m and for twice that
        keeps every field from carrying into the next, and leaves the
        signed ones a sign bit.
        """
        if self._rounds is not None:
            return self._rounds
        moves = prod(comb(n + 2, 2) for n in self._sizes) - prod(n + 1 for n in self._sizes)
        if moves > MAX_ROUND_MOVES:
            raise GuardExceeded(
                f"the counting DP of blocks {list(self._sizes)} can expand {moves} moves "
                f"in one round, over its guard of {MAX_ROUND_MOVES}"
            )
        m = self.m
        scale = prod(map(factorial, self._sizes))
        width = (max(scale ** 2, 2 * (m + 1)) * (self.stride * m + 1) ** m).bit_length()
        weights, shifts = zip(*self._split_table(width))
        down, closes, zero_shifts = self._state_tables(width)
        # a move's target r (never n) divides by D e_i, e_i the last nonzero
        # entry of n - r, whose code is the last code minus r's
        divisors = [scale * last for last in reversed(self._last_entries())]
        states = [(len(closes) - 1, scale)]
        rounds, expanded = [], 0
        while states:
            closed = 0
            nxt = [0] * len(closes)
            for code, q in states:
                closed += (q * closes[code]) << zero_shifts[code]
                expanded += len(down[code])
                for mc in down[code]:
                    nxt[code - mc] += (q * weights[mc]) << shifts[mc]
            rounds.append(_divide_exactly(closed, scale, "D"))
            states = [
                (code, _divide_exactly(q, divisors[code], "D e_i"))
                for code, q in enumerate(nxt) if q
            ]
        self.moves_expanded = expanded
        self._rounds = (width, tuple(rounds))
        return self._rounds

    def coboundary(self):
        """chi-bar(q, t) exactly, with no primes and no interpolation.

        N(q, t) = sum_u G_u(t) prod_{k<u} (q-1-sk) / s^u, with s the stride,
        agrees with the point count at every odd prime, so it is the
        point-count polynomial, and chi-bar is N / q^(m - rank).  N is
        expanded on the packed rounds, one packed t-polynomial per q-degree.
        At stride 2 every H(m) is even, as swapping c and p-c pairs its
        splits with none left fixed, so each G_u is checked to have every
        t-coefficient divisible by 2^u (one AND) and divided by one shift; at
        stride 1 nothing is divided, and G_u is integral by construction,
        with no u! to divide out.  The signed fields are read once, with
        half a field added to every field.  Dividing N by q^(m - rank), with
        ``rank`` from the signed graph, checks that its low q-rows vanish,
        and chi-bar(q, 1) = q^rank that the row sums do.
        """
        s = self.stride
        width, rounds = self._packed_rounds()
        fields = len(self.tuples) + 1
        ones = ((1 << width * fields) - 1) // ((1 << width) - 1)  # 1 in every field
        rows = [0] * len(rounds)  # rows[dq]: the coefficient of q^dq in N
        falling = [1]  # q-coefficients of prod_{k<u} (q - 1 - sk)
        for u, g in enumerate(rounds):
            if s == 2:
                if g & ones * ((1 << u) - 1):
                    raise InconsistencyError(
                        f"a t-coefficient of G_{u} is not divisible by s^u = {1 << u}"
                    )
                g >>= u
            for dq, a in enumerate(falling):
                rows[dq] += a * g
            shifted = [0] + falling
            for k, a in enumerate(falling):
                shifted[k] -= (s * u + 1) * a
            falling = shifted
        shift = self.m - self.rank
        if any(rows[:shift]):
            raise InconsistencyError(
                f"point-count polynomial not divisible by q^(m-rank) = q^{shift}"
            )
        bias, mask, half = ones << width - 1, (1 << width) - 1, 1 << width - 1
        out, at_one = {}, [0] * (len(rows) - shift)
        for dq, row in enumerate(rows[shift:]):
            row += bias
            for e in range(fields):
                c = (row >> (e * width) & mask) - half
                if c:
                    out[dq, e] = c
                    at_one[dq] += c
        if {dq: c for dq, c in enumerate(at_one) if c} != {self.rank: 1}:
            raise InconsistencyError(f"chi-bar(q, 1) is not q^{self.rank}")
        return BivariatePolynomial._of(out, ("q", "t"))

    def coboundary_at_prime(self, p):
        """chi-bar(p, t), read off ``coboundary`` at q = p."""
        return coboundary_at(self.coboundary(), p)


def _divide_exactly(poly, d, name):
    """poly // d for a packed t-polynomial, InconsistencyError on a remainder.

    The check sees the whole integer, sum_e c_e 2^(e * width), not each field
    c_e: the remainder mixes the fields' residues.  When d = 2^k it reads the
    low k bits alone, so only the lowest t-field is checked.  What it misses
    is caught downstream: ``coboundary`` checks, at stride 2, each G_u
    coefficient's division by 2^u, and at any stride the division by
    q^(m - rank) and chi-bar(q, 1) = q^rank, which also make the count at a
    prime total p^m; ``specialize.certify_coboundary`` checks
    chi-bar(1, t) = t^m and chi's split over the ideal exponents on every
    command, and ``verify`` checks chi-bar(3, t) against brute force.
    """
    q, rem = divmod(poly, d)
    if rem:
        raise InconsistencyError(f"a counting DP polynomial is not divisible by {name} = {d}")
    return q


# ---- the ideal pipeline ------------------------------------------------------


def coboundary_and_rank(ideal):
    """chi-bar(q, t) and the rank of a classical ideal arrangement.

    Decomposes the complement into connected components and multiplies their
    coboundary polynomials (chi-bar is rank-relative, so components simply
    multiply).  Each component's chi-bar comes straight from its counting
    model's rounds (``CountingModel.coboundary``); the components share no
    coordinate, so their ranks add up to the arrangement's.  An exceptional
    type has no tuples, and ``ideals.complement`` refuses it with
    UnsupportedTypeError.
    """
    result, rank = None, 0
    for component in decompose_components(ideal):
        model = CountingModel(component.size, component.tuples)
        cb = model.coboundary()
        result = cb if result is None else result * cb
        rank += model.rank
    return (BivariatePolynomial.one(("q", "t")) if result is None else result), rank
