"""Exact big-integer polynomials and the coboundary/Tutte/characteristic transforms.

Bivariate polynomials are sparse maps (deg_a, deg_b) -> int; univariate
polynomials are dense coefficient lists.  The one ring operation is the
bivariate product, which multiplies the chi-bar of independent components.
Rationals appear only inside Lagrange interpolation, a piece of the paper's
prime route that no pipeline takes, and are asserted integral before
anything leaves this module.  It belongs with that route in ``paper``, and
stays here until the benchmark's tracing, which hooks it by this module's
name, follows it there.

Both directions between chi-bar(q, t) and T(x, y) work on the q-columns of
chi-bar: each column is divided exactly by (t-1) (synthetic division, with
its remainder checked) or multiplied by it, and the other axis takes a shift
by +-1 along the short x-axis, whose degree is at most the rank.  The
characteristic polynomial is the t^0 column of chi-bar.

``from_json_dict`` checks its document itself, to the terms of the packaged
``schemas/polynomial.schema.json``, with the type check ``json_failure``.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import add, itemgetter, sub

from .errors import ConstraintError, InconsistencyError


class BivariatePolynomial:
    """Sparse exact polynomial in two variables.

    Coefficients are arbitrary-precision integers; zero coefficients are
    never stored.  Variable labels are presentation only: equality and
    the product look at the coefficient map alone.
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
    def one(cls, variables=("x", "y")):
        return cls({(0, 0): 1}, variables)

    def coefficient(self, da, db):
        return self.coeffs.get((da, db), 0)

    def degree(self, axis):
        """Largest exponent of the given variable (0 or 1); -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(k[axis] for k in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, BivariatePolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePolynomial._of({k: c for k, c in out.items() if c}, self.variables)

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
        """Inverse of ``to_json_dict``; ValueError on a document that the
        package's schemas/polynomial.schema.json rejects, and on one that
        gives a degree twice, which the schema cannot state.  Other
        top-level keys (a CLI result's ``provenance``) are ignored.
        """
        failure = next(filter(None, _document_failures(data)), None)
        if failure is not None:
            raise ValueError(f"polynomial rejected by schema: {failure}")
        coeffs = {}
        for t in data["terms"]:
            degree = (int(t["dx"]), int(t["dy"]))
            if degree in coeffs:
                raise ValueError(f"term {t!r} repeats degree {degree}")
            coeffs[degree] = int(t["c"])
        return cls(coeffs, data["variables"])

    def __repr__(self):
        return self.to_text()


# searched as Draft 7 searches a pattern: $ also matches before a final newline
_COEFFICIENT_RE = re.compile(r"^-?[0-9]+$")
_JSON_TYPES = {"array": list, "integer": int, "object": dict, "string": str}


def json_failure(value, path, kind, least=None, length=None):
    """``"<where>: <value> <why>"`` when the JSON value at ``path`` (keys and
    indices: ``("roots", 0, 1)`` is ``$.roots[0][1]``) is not of the Draft-7
    type ``kind``, or is an integer below ``least`` or an array of other than
    ``length`` items; else None.  A bool is no integer; an integral float is."""
    if not (type(value) is _JSON_TYPES[kind]
            or kind == "integer" and type(value) is float and value.is_integer()):
        why = f"is not of type {kind!r}"
    elif least is not None and value < least:
        why = f"is less than the minimum of {least}"
    elif length is not None and len(value) != length:
        why = f"does not have {length} items"
    else:
        return None
    where = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)
    return f"${where}: {value!r} {why}"


def _document_failures(data):
    """How ``data`` breaks schemas/polynomial.schema.json: one ``$.path:
    reason``, or None, per check, each run once every check before it held."""
    yield json_failure(data, (), "object")
    yield from (f"$: {key!r} is a required property"
                for key in ("terms", "variables") if key not in data)
    variables, terms = data["variables"], data["terms"]
    yield json_failure(variables, ("variables",), "array", length=2)
    yield from (json_failure(v, ("variables", i), "string") for i, v in enumerate(variables))
    yield json_failure(terms, ("terms",), "array")
    for i, term in enumerate(terms):
        yield json_failure(term, ("terms", i), "object")
        if term.keys() != {"dx", "dy", "c"}:
            yield f"$.terms[{i}]: keys {sorted(term)} are not exactly 'c', 'dx' and 'dy'"
        yield json_failure(term["dx"], ("terms", i, "dx"), "integer", 0)
        yield json_failure(term["dy"], ("terms", i, "dy"), "integer", 0)
        yield json_failure(term["c"], ("terms", i, "c"), "string")
        if _COEFFICIENT_RE.search(term["c"]) is None:
            yield f"$.terms[{i}].c: {term['c']!r} does not match {_COEFFICIENT_RE.pattern!r}"


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
    terms = _TERM_RE.findall(s)
    if "".join(terms) != s:
        raise ConstraintError(f"cannot parse polynomial {text!r}: stray signs")
    for term in terms:
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

    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, UnivariatePolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

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
    from fractions import Fraction  # with decimal, only where it is used

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


def coboundary_to_characteristic(cb, n, rank):
    """Characteristic polynomial chi(q) = q^(n-rank) chi-bar(q, 0): the t^0 column."""
    if rank > n:
        raise ConstraintError(f"rank {rank} exceeds ambient dimension {n}")
    column = [cb.coefficient(a, 0) for a in range(cb.degree(0) + 1)]
    return UnivariatePolynomial([0] * (n - rank) + column)
