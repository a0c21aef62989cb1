"""An exact oracle for the counting DP: Ardila's exponential formula for the
point count of an arrangement whose hyperplanes are x_i = x_j, x_i = -x_j and
x_i = 0 (Pacific J. Math. 230, 2007).

Split the coordinates into blocks of exchangeable ones, sizes n = (n_i), and
write x^m / m! for prod_i x_i^(m_i) / m_i!.  Over F_q, q odd, group the
nonzero residues into alpha = (q - 1) / s classes: one residue each (s = 1)
when every hyperplane is x_i = x_j, else one pair {c, -c} (s = 2).  No
hyperplane holds between coordinates in different classes or between residue
0 and a class, so

  N(q, t) = n! [x^n] Z(x) G(x)^alpha,

where Z(x) = sum_m t^z(m) x^m / m! puts m coordinates at residue 0 and
G(x) = sum_m H(m) x^m / m! puts them in one class: H(m) sums, over the ways
to send a_i of them to c and the other m_i - a_i to -c (a = m at s = 1),
prod_i C(m_i, a_i) t^(hyperplanes that hold).  P = G^alpha has P_0 = 1 and,
from G d_i P = alpha P d_i G along any block i with m_i > 0,

  P_m = sum_{0 < k <= m} (C(m_i - 1, k_i - 1) alpha - C(m_i - 1, k_i))
        prod_{j != i} C(m_j, k_j) H(k) P_(m - k),

integer polynomials in alpha and t throughout.  Every exponent here is counted
on concrete coordinates straight from the tuple set, and the blocks are the
classes of coordinates whose transposition maps the tuple set to itself; the
oracle shares no code with ``ffmethod``: no split table, no rounds, no
scaling by factorials and no division by D.

The coboundary polynomial is N / q^(m - rank).  No rank is computed here:
chi-bar(0, t) = (t - 1)^rank T(1, t) is never zero, so m - rank is the
q-adic valuation of N.

Each polynomial in alpha and t is one signed integer, the coefficient of
alpha^a t^e in the field (a * T + e) of ``width`` bits, T the number of
hyperplanes plus one.  A product with H(k) is a few shifts, and only N is
decoded, by adding half a field to every field first.
"""

from itertools import product
from math import comb, prod


def _hyperplane(i, j, relabel):
    """The hyperplane (i, j) with its coordinates relabelled, in a form that
    forgets which coordinate was written first."""
    i = relabel.get(i, i)
    if j == 0:
        return (0, i, i)
    k = relabel.get(abs(j), abs(j))
    return (1 if j > 0 else -1, min(i, k), max(i, k))


def exchangeable_blocks(m, tuples):
    """Coordinates 1..m grouped by exchangeability: x and y share a block
    when swapping them maps the tuple set to itself.  Swaps that do form the
    transpositions of a group, so the relation is an equivalence."""
    hyperplanes = {_hyperplane(i, j, {}) for i, j in tuples}
    blocks = []
    for x in range(1, m + 1):
        for block in blocks:
            swap = {block[0]: x, x: block[0]}
            if {_hyperplane(i, j, swap) for i, j in tuples} == hyperplanes:
                block.append(x)
                break
        else:
            blocks.append([x])
    return blocks


def _satisfied(tuples, at):
    """How many hyperplanes hold at a partial point: ``at`` maps coordinates
    to 0, 1 or -1, standing for residue 0, c or -c (c != 0)."""
    hit = 0
    for i, j in tuples:
        if i in at:
            if j == 0:
                hit += at[i] == 0
            elif abs(j) in at:
                hit += at[i] == (at[j] if j > 0 else -at[-j])
    return hit


def _point(blocks, a, b, c):
    """A partial point: the first a_i coordinates of block i at c, the next
    b_i at -c."""
    point = {}
    for block, ai, bi in zip(blocks, a, b):
        point.update((x, c) for x in block[:ai])
        point.update((x, -c) for x in block[ai:ai + bi])
    return point


def _width(m, s):
    """Bits per field: every coefficient of N, in alpha and t, is below half
    a field.  Bound by the coefficients' absolute sum: F(j) >= that of P_m for
    |m| = j, from the recurrence with C(m_i - 1, k_i - 1) + C(m_i - 1, k_i)
    = C(m_i, k_i) and H(k) summing to s^|k| at t = 1."""
    f = [1]
    for j in range(1, m + 1):
        f.append(sum(comb(j, i) * s ** i * f[j - i] for i in range(1, j + 1)))
    bound = sum(comb(m, i) * f[i] for i in range(m + 1))
    return -(-(bound.bit_length() + 1) // 8) * 8


def point_count(m, tuples):
    """N(q, t) = sum over F_q^m of t^(hyperplanes that hold), for odd q, as
    {(q-degree, t-degree): coefficient}."""
    tuples = sorted(tuple(t) for t in tuples)
    s = 2 if any(j <= 0 for _, j in tuples) else 1
    blocks = exchangeable_blocks(m, tuples)
    sizes = tuple(map(len, blocks))
    fields = len(tuples) + 1
    width = _width(m, s)
    states = list(product(*(range(n + 1) for n in sizes)))  # each m - k comes before m
    # H(k) as (coefficient, shift) terms
    h = {}
    for k in states:
        terms = {}
        for a in product(*(range(r + 1) for r in k)) if s == 2 else [k]:
            e = _satisfied(tuples, _point(blocks, a, [r - c for r, c in zip(k, a)], 1))
            terms[e] = terms.get(e, 0) + prod(map(comb, k, a))
        h[k] = [(c, e * width) for e, c in terms.items()]
    shift_alpha = fields * width
    p = {states[0]: 1}
    for mm in states[1:]:
        i = next(i for i, r in enumerate(mm) if r)
        with_alpha = without = 0
        for k in product(*(range(r + 1) for r in mm)):
            if not any(k):
                continue
            rest = p[tuple(r - c for r, c in zip(mm, k))]
            x = sum((c * rest) << sh for c, sh in h[k])
            x *= prod(comb(r, c) for j, (r, c) in enumerate(zip(mm, k)) if j != i)
            if k[i]:
                with_alpha += comb(mm[i] - 1, k[i] - 1) * x
            without += comb(mm[i] - 1, k[i]) * x
        p[mm] = (with_alpha << shift_alpha) - without
    packed = 0
    for z in states:
        zero = _satisfied(tuples, _point(blocks, z, [0] * len(z), 0))
        packed += (prod(map(comb, sizes, z)) * p[tuple(n - r for n, r in zip(sizes, z))]) << (
            zero * width
        )
    # decode: with half a field added to each, every field is its
    # coefficient plus half, in [0, 2^width)
    count = (m + 1) * fields
    half = 1 << (width - 1)
    raw = (packed + half * (((1 << (width * count)) - 1) // ((1 << width) - 1))).to_bytes(
        width * count // 8, "little"
    )
    step = width // 8
    # substitute alpha = (q - 1) / s: s^m N is an integer polynomial in q
    scaled = {}
    for f in range(count):
        c = int.from_bytes(raw[f * step:(f + 1) * step], "little") - half
        if not c:
            continue
        a, e = divmod(f, fields)
        c *= s ** (m - a)
        for dq in range(a + 1):
            key = (dq, e)
            scaled[key] = scaled.get(key, 0) + c * comb(a, dq) * (-1) ** (a - dq)
    out = {}
    for key, c in scaled.items():
        if c:
            assert c % s ** m == 0, "N(q, t) has a non-integer coefficient"
            out[key] = c // s ** m
    return out


def coboundary(m, tuples):
    """chi-bar(q, t) = N(q, t) / q^(m - rank) as {(q-degree, t-degree): c}."""
    n = point_count(m, tuples)
    shift = min(dq for dq, _ in n)
    return {(dq - shift, dt): c for (dq, dt), c in n.items()}
