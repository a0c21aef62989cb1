"""Exact big-integer polynomial arithmetic and the coboundary/Tutte/characteristic transforms.

Bivariate polynomials are sparse maps (deg_a, deg_b) -> int; univariate
polynomials are dense coefficient lists.  Rationals appear only inside
Lagrange interpolation, a piece of the paper's prime route that no pipeline
takes, and are asserted integral before anything leaves this module.  It
belongs with that route in ``paper``, and stays here until the benchmark's
tracing, which hooks it by this module's name, follows it there.

Both directions between chi-bar(q, t) and T(x, y) work on the q-columns of
chi-bar: each column is divided exactly by (t-1) (synthetic division, with
its remainder checked) or multiplied by it, and the other axis takes a shift
by +-1 along the short x-axis, whose degree is at most the rank.  Taylor
shifts along a whole axis (``_taylor_shift``) serve only the corank-nullity
oracle's change of variables and the characteristic transform.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from operator import add, itemgetter, sub

from .errors import ConstraintError, InconsistencyError


_COEFF_RE = re.compile(r"-?[0-9]+")


class BivariatePolynomial:
    """Sparse exact polynomial in two variables.

    Coefficients are arbitrary-precision integers; zero coefficients are
    never stored.  Variable labels are presentation only: equality and
    arithmetic look at the coefficient map alone.
    """

    __slots__ = ("coeffs", "variables")

    def __init__(self, coeffs=None, variables=("x", "y")):
        self.variables = tuple(variables)
        self.coeffs = {}
        if coeffs:
            for (da, db), c in dict(coeffs).items():
                if c:
                    self.coeffs[(int(da), int(db))] = int(c)

    @classmethod
    def _of(cls, coeffs, variables):
        """Wrap a coefficient map that is already canonical: int degree
        pairs to nonzero ints, owned by the new polynomial."""
        poly = cls.__new__(cls)
        poly.coeffs, poly.variables = coeffs, variables
        return poly

    @classmethod
    def zero(cls, variables=("x", "y")):
        return cls({}, variables)

    @classmethod
    def one(cls, variables=("x", "y")):
        return cls({(0, 0): 1}, variables)

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, da, db):
        return self.coeffs.get((da, db), 0)

    def degree(self, axis):
        """Largest exponent of the given variable (0 or 1); -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(k[axis] for k in self.coeffs)

    def total_degree(self):
        if not self.coeffs:
            return -1
        return max(a + b for a, b in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, BivariatePolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ({} if other == 0 else {(0, 0): other})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return BivariatePolynomial(out, self.variables)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return BivariatePolynomial({k: -c for k, c in self.coeffs.items()}, self.variables)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivariatePolynomial(
                {k: c * other for k, c in self.coeffs.items()}, self.variables
            )
        other = self._coerce(other)
        out = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePolynomial(out, self.variables)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, BivariatePolynomial):
            return other
        if isinstance(other, int):
            return BivariatePolynomial({(0, 0): other}, self.variables)
        raise TypeError(type(other))

    def evaluate(self, a, b):
        """Exact value at integer point (a, b), Horner-style in the second variable."""
        by_db = {}
        for (da, db), c in self.coeffs.items():
            by_db[db] = by_db.get(db, 0) + c * a ** da
        total = 0
        prev = None
        for db in sorted(by_db, reverse=True):
            total = by_db[db] if prev is None else total * b ** (prev - db) + by_db[db]
            prev = db
        if prev:
            total *= b ** prev
        return total

    def terms(self):
        """Terms sorted by ascending total degree, then lexicographic exponents."""
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))

    # ---- serialization -------------------------------------------------

    def to_text(self):
        """Canonical text form: sorted by total degree then lexicographic."""
        if not self.coeffs:
            return "0"
        va, vb = self.variables
        parts = []
        for (da, db), c in self.terms():
            parts.append(_format_term(c, ((va, da), (vb, db)), leading=not parts))
        return "".join(parts)

    def to_latex(self):
        """LaTeX math expression, descending second-variable degree then first."""
        if not self.coeffs:
            return "0"
        va, vb = self.variables
        order = sorted(self.coeffs.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))
        parts = []
        for (da, db), c in order:
            parts.append(
                _format_term(c, ((va, da), (vb, db)), leading=not parts, latex=True)
            )
        return "".join(parts)

    def to_json_dict(self):
        return {
            "variables": list(self.variables),
            "terms": [
                {"dx": da, "dy": db, "c": str(c)} for (da, db), c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of ``to_json_dict``; ValueError on anything it would not write.

        ``variables`` must be two names and every term exactly ``dx``, ``dy``
        (non-negative ints, no degree twice) and ``c`` (a decimal string), as
        in the package's schemas/polynomial.schema.json.  Other top-level keys
        (a CLI result's ``provenance``) are ignored.
        """
        try:
            variables, terms = data["variables"], data["terms"]
        except (TypeError, KeyError):
            raise ValueError("a polynomial needs 'variables' and 'terms'") from None
        if not (
            isinstance(variables, list)
            and len(variables) == 2
            and all(isinstance(v, str) for v in variables)
        ):
            raise ValueError(f"variables {variables!r} are not two names")
        if not isinstance(terms, list):
            raise ValueError(f"terms {terms!r} are not a list")
        coeffs = {}
        for t in terms:
            if not (isinstance(t, dict) and t.keys() == {"dx", "dy", "c"}):
                raise ValueError(f"term {t!r} is not an object of dx, dy and c")
            da, db, c = t["dx"], t["dy"], t["c"]
            if type(da) is not int or type(db) is not int or min(da, db) < 0:
                raise ValueError(f"term {t!r} needs non-negative integer degrees")
            if not (isinstance(c, str) and _COEFF_RE.fullmatch(c)) or (da, db) in coeffs:
                raise ValueError(f"term {t!r} needs a decimal coefficient, once per degree")
            coeffs[(da, db)] = int(c)
        return cls(coeffs, variables)

    def __repr__(self):
        return self.to_text()


def _format_term(c, var_degs, leading, latex=False):
    sign = "-" if c < 0 else ("" if leading else " + ")
    if c < 0 and not leading:
        sign = " - "
    mag = abs(c)
    body = ""
    for name, d in var_degs:
        if d == 0:
            continue
        if d == 1:
            body += name
        elif latex and d > 9:
            body += f"{name}^{{{d}}}"
        else:
            body += f"{name}^{d}"
    if not body:
        return f"{sign}{mag}"
    coeff = "" if mag == 1 else str(mag)
    return f"{sign}{coeff}{body}"


_TERM_RE = re.compile(r"[+-]?[^+-]+")


def parse_polynomial(text, variables=("x", "y")):
    """Parse a polynomial written with ``^`` powers (plain or ``^{..}``) and implicit 1s.

    Accepts both the canonical text form emitted by :meth:`to_text` and the
    LaTeX-flavoured fixtures used in tests.  Like terms are accumulated, so
    the input need not be normalized.
    """
    va, vb = variables
    s = text.replace("\\,", "").replace("{", "").replace("}", "")
    s = re.sub(r"\s", "", s)
    if not s:
        raise ConstraintError("empty polynomial text")
    coeffs = {}
    pat = re.compile(
        r"^(\d*)"
        rf"(?:{re.escape(va)}(?:\^(\d+))?)?"
        rf"(?:{re.escape(vb)}(?:\^(\d+))?)?$"
    )
    for term in _TERM_RE.findall(s):
        sign = 1
        if term[0] == "-":
            sign, term = -1, term[1:]
        elif term[0] == "+":
            term = term[1:]
        m = pat.match(term)
        if not m or not term:
            raise ConstraintError(f"cannot parse term {term!r}")
        c = int(m.group(1)) if m.group(1) else 1
        da = (int(m.group(2)) if m.group(2) else 1) if va in term else 0
        db = (int(m.group(3)) if m.group(3) else 1) if vb in term else 0
        k = (da, db)
        coeffs[k] = coeffs.get(k, 0) + sign * c
    return BivariatePolynomial(coeffs, variables)


class UnivariatePolynomial:
    """Dense exact polynomial in one variable with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def zero(cls):
        return cls([])

    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, UnivariatePolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ([] if other == 0 else [other])
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __neg__(self):
        return UnivariatePolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivariatePolynomial([c * other for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return UnivariatePolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UnivariatePolynomial(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, UnivariatePolynomial):
            return other
        if isinstance(other, int):
            return UnivariatePolynomial([other])
        raise TypeError(type(other))

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def divide_linear(self, root):
        """Exact synthetic division by (q - root); returns (quotient, remainder)."""
        quot = []
        carry = 0
        for c in reversed(self.coeffs):
            carry = carry * root + c
            quot.append(carry)
        remainder = quot.pop() if quot else 0
        quot.reverse()
        return UnivariatePolynomial(quot), remainder

    def to_text(self, variable="q"):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            parts.append(_format_term(c, ((variable, k),), leading=not parts))
        return "".join(parts)

    def __repr__(self):
        return self.to_text()


def lagrange_interpolate(points):
    """Interpolate t-coefficient profiles at distinct integer abscissae into a (q, t) polynomial.

    ``points`` is a list of ``(q_value, UnivariatePolynomial in t)``.  The
    result has q-degree < len(points) and integer coefficients; a fractional
    coefficient raises InconsistencyError since every counting routine that
    feeds this function produces exact integer data.  No pipeline calls it;
    it is the reference route from prime evaluations back to chi-bar.
    """
    if not points:
        raise ConstraintError("no interpolation points")
    xs = [int(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ConstraintError(f"duplicate abscissa in {xs}")
    npts = len(xs)
    # Lagrange basis polynomials in q, exact rational coefficients.
    bases = []
    for i, xi in enumerate(xs):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            # multiply num by (q - xj)
            nxt = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            num = nxt
            den *= xi - xj
        bases.append([c / den for c in num])
    tdeg = max((p.degree() for _, p in points), default=-1)
    out = {}
    for k in range(tdeg + 1):
        acc = [Fraction(0)] * npts
        for (_, prof), basis in zip(points, bases):
            v = prof.coefficient(k)
            if v:
                for d in range(npts):
                    acc[d] += v * basis[d]
        for d, c in enumerate(acc):
            if c:
                if c.denominator != 1:
                    raise InconsistencyError(
                        f"non-integral interpolation result {c} at q^{d} t^{k}"
                    )
                out[(d, k)] = int(c)
    return BivariatePolynomial(out, ("q", "t"))


def _taylor_shift(coeffs, sx, sy):
    """Coefficient map of p(x + sx, y + sy) from that of p(x, y), with sx, sy in {-1, 0, 1}.

    Each non-zero shift runs Horner's scheme on every line of coefficients
    along its axis: one prefix sum per degree, O(d^2) exact additions per
    line.  A shift by -1 is the shift by +1 conjugated by p(z) -> p(-z), so
    odd degrees change sign on the way in and on the way out.
    """
    for axis, s in ((0, sx), (1, sy)):
        if not s:
            continue
        lines = {}
        for k, c in coeffs.items():
            lines.setdefault(k[1 - axis], {})[k[axis]] = c
        coeffs = {}
        for other, line in lines.items():
            degrees = range(max(line), -1, -1)
            # highest degree first, so each Horner pass is a prefix sum
            rev = [line.get(d, 0) * (s if d & 1 else 1) for d in degrees]
            for n in range(len(rev), 1, -1):
                rev[:n] = accumulate(rev[:n])
            for d, c in zip(degrees, rev):
                if c:
                    coeffs[(d, other) if axis == 0 else (other, d)] = c * (s if d & 1 else 1)
    return coeffs


def _columns(coeffs):
    """Dense second-axis coefficient lists of a coefficient map, one per
    first-axis degree up to the largest, all of one length."""
    if not coeffs:
        return []
    width = max(map(itemgetter(1), coeffs)) + 1
    cols = [[0] * width for _ in range(max(coeffs)[0] + 1)]
    for (a, b), c in coeffs.items():
        cols[a][b] = c
    return cols


def _shift_first_axis(cols, op):
    """Columns of sum_a (x + s)^a cols[a](y) for columns of one length, with
    s = 1 for ``op`` = add and s = -1 for sub: Horner's scheme along the
    short first axis, one vector operation per coefficient and step."""
    out = []
    for col in reversed(cols):
        if out:
            # (x + s) out + col
            out = [list(map(op, col, out[0]))] + [
                list(map(op, u, v)) for u, v in zip(out, out[1:])
            ] + [out[-1]]
        else:
            out = [col]
    return out


def _from_columns(cols, variables):
    return BivariatePolynomial._of(
        {(a, b): c for a, col in enumerate(cols) for b, c in enumerate(col) if c}, variables
    )


def coboundary_to_tutte(cb, rank):
    """Transform a coboundary polynomial in (q, t) into the Tutte polynomial in (x, y).

    T(x, y) = chi-bar((x-1)(y-1), y) / (y-1)^rank.  Writing chi-bar as
    sum_a q^a p_a(t), this is T = sum_a (x-1)^a g_a(y) with
    g_a = p_a / (t-1)^(rank-a): each q-column is divided exactly by (t-1),
    rank-a times, each time by one synthetic division from the top degree,
    and the (x-1)^a are expanded along the short x-axis.  A q-degree above
    rank, or a nonzero remainder (chi-bar not divisible as the rank
    requires), means the claimed rank or the coboundary data is wrong:
    InconsistencyError.
    """
    cols = _columns(cb.coeffs)
    if len(cols) > rank + 1:
        raise InconsistencyError(f"coboundary has q-degree {len(cols) - 1} above rank {rank}")
    for a, col in enumerate(cols):
        top_first = col[::-1]
        for done in range(rank - a):
            # running sums from the top: the quotient's coefficients, then p(1)
            top_first = list(accumulate(top_first))
            remainder = top_first.pop()
            if remainder:
                raise InconsistencyError(
                    f"coboundary not divisible by (t-1)^rank: the q^{a} column leaves "
                    f"remainder {remainder} after {done} divisions by t-1"
                )
        # padded back to one length, which _shift_first_axis needs
        cols[a] = top_first[::-1] + [0] * (len(col) - len(top_first))
    return _from_columns(_shift_first_axis(cols, sub), ("x", "y"))


def tutte_to_coboundary(tutte, rank):
    """Inverse transform: chi-bar(q, t) = (t-1)^rank T(q/(t-1) + 1, t).

    The same steps backwards: T(x+1, y) = sum_a x^a g_a(y) by Horner's
    scheme along x, then chi-bar = sum_a q^a (t-1)^(rank-a) g_a(t), each
    column multiplied by (t-1) rank-a times.  ConstraintError when an
    x-degree exceeds rank.
    """
    if tutte.degree(0) > rank:
        raise ConstraintError("x-degree exceeds rank")
    cols = _shift_first_axis(_columns(tutte.coeffs), add)
    for a, col in enumerate(cols):
        for _ in range(rank - a):
            col = list(map(sub, [0] + col, col + [0]))
        cols[a] = col
    return _from_columns(cols, ("q", "t"))


def tutte_to_characteristic(tutte, n, rank):
    """Characteristic polynomial chi(q) = (-1)^rank q^(n-rank) T(1-q, 0)."""
    if rank > n:
        raise ConstraintError(f"rank {rank} exceeds ambient dimension {n}")
    # T(1-q, 0): negate the odd x-degrees of the y^0 column, then shift x by -1
    column = {(dx, 0): -c if dx & 1 else c for (dx, dy), c in tutte.coeffs.items() if dy == 0}
    shifted = _taylor_shift(column, -1, 0)
    sign = (-1) ** rank
    top = max((dx for dx, _ in shifted), default=-1)
    acc = [sign * shifted.get((k, 0), 0) for k in range(top + 1)]
    return UnivariatePolynomial([0] * (n - rank) + acc)


def latex_is_wellformed(s):
    """Cheap token validation for emitted LaTeX: balanced braces, known tokens only."""
    depth = 0
    for ch in s:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    if depth != 0:
        return False
    stripped = re.sub(r"[0-9a-zA-Z^{}+\- ]", "", s)
    return stripped == ""
