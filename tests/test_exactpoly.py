import inspect
import json
import random
import sys
from itertools import accumulate

import pytest

from conftest import full_coboundary, latex_is_wellformed
from idealtutte import exactpoly
from idealtutte.cli import main
from idealtutte.errors import ConstraintError, InconsistencyError
from idealtutte.exactpoly import (
    BivariatePolynomial,
    UnivariatePolynomial,
    coboundary_to_tutte,
    lagrange_interpolate,
    parse_polynomial,
    tutte_to_coboundary,
)
from idealtutte.ideals import arrangement_of, enumerate_ideals
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import characteristic_polynomial, coboundary_of_ideal, tutte_of_ideal


def bp(text, variables=("x", "y")):
    return parse_polynomial(text, variables)


def test_basic_arithmetic():
    p = bp("x^2 + x + y")
    q = bp("x - y")
    assert p * q == bp("x^3 + x^2 - x^2y - y^2")
    assert p * BivariatePolynomial() == BivariatePolynomial()


def test_no_zero_coefficients_stored():
    assert BivariatePolynomial({(1, 0): 1, (0, 1): 0}).coeffs == {(1, 0): 1}
    assert bp("x + y - y").coeffs == {(1, 0): 1}


def test_evaluate_examples():
    assert bp("x^2 + x + y").evaluate(1, 1) == 3
    assert bp("x^2 + y^2 + 2x + 2y").evaluate(1, 1) == 6
    assert bp("x^2 + y^2 + 2x + 2y").evaluate(2, 2) == 16  # 2^4 hyperplanes


def test_parse_round_trip():
    p = bp("3x^2y^10 - 7x + 1 - y^3")
    assert parse_polynomial(p.to_text()) == p
    assert parse_polynomial(p.to_latex()) == p


def test_parse_braced_exponents():
    assert bp("y^{15} + xy^{13}") == BivariatePolynomial({(0, 15): 1, (1, 13): 1})


@pytest.mark.parametrize("text", ["x--y", "x++y", "x+", "-", "x + - y"])
def test_parse_rejects_stray_signs(text):
    with pytest.raises(ConstraintError, match="stray signs"):
        parse_polynomial(text)


def test_latex_ordering_and_wellformedness():
    p = bp("x^2 + y^3 + xy + 5")
    tex = p.to_latex()
    assert tex == "y^3 + xy + x^2 + 5"
    assert latex_is_wellformed(tex)
    assert latex_is_wellformed(bp("y^{15} + 2xy^{12}").to_latex())
    assert not latex_is_wellformed("x^{2")


def test_json_round_trip():
    p = bp("x^12 - 4xy + 9")
    assert BivariatePolynomial.from_json_dict(p.to_json_dict()) == p


@pytest.mark.parametrize(
    "data",
    [
        {"terms": []},
        [],
        {"variables": ["x"], "terms": []},
        {"variables": ["x", 1], "terms": []},
        {"variables": ["x", "y"], "terms": 3},
        {"variables": ["x", "y"], "terms": [[1, 0, "1"]]},
        {"variables": ["x", "y"], "terms": [{"dx": -1, "dy": 0, "c": "1"}]},
        {"variables": ["x", "y"], "terms": [{"dx": 1.5, "dy": 0, "c": "1"}]},
        {"variables": ["x", "y"], "terms": [{"dx": True, "dy": 0, "c": "1"}]},
        {"variables": ["x", "y"], "terms": [{"dx": 1, "c": "1"}]},
        {"variables": ["x", "y"], "terms": [{"dx": 1, "dy": 0, "c": 1}]},
        {"variables": ["x", "y"], "terms": [{"dx": 1, "dy": 0, "c": "one"}]},
        {"variables": ["x", "y"], "terms": [{"dx": 1, "dy": 0, "c": "+1"}]},
        {"variables": ["x", "y"], "terms": [{"dx": 1, "dy": 0, "c": "1", "e": 0}]},
        {"variables": ["x", "y"], "terms": [{"dx": 1, "dy": 0, "c": "1"}] * 2},
    ],
)
def test_json_decoding_is_strict(data):
    with pytest.raises(ValueError):
        BivariatePolynomial.from_json_dict(data)


def test_interpolate_constant():
    pts = [(3, UnivariatePolynomial([1])), (5, UnivariatePolynomial([1]))]
    assert lagrange_interpolate(pts) == BivariatePolynomial({(0, 0): 1}, ("q", "t"))


def test_interpolate_square():
    pts = [(x, UnivariatePolynomial([x * x])) for x in (3, 5, 7)]
    assert lagrange_interpolate(pts) == BivariatePolynomial({(2, 0): 1}, ("q", "t"))


def test_interpolate_duplicate_abscissa():
    pts = [(3, UnivariatePolynomial([1])), (3, UnivariatePolynomial([2]))]
    with pytest.raises(ConstraintError):
        lagrange_interpolate(pts)


def test_interpolate_non_integral():
    # values of q/2 at odd primes interpolate to a fractional polynomial
    pts = [(3, UnivariatePolynomial([1])), (5, UnivariatePolynomial([2]))]
    with pytest.raises(InconsistencyError):
        lagrange_interpolate(pts)


def test_coboundary_to_tutte_examples():
    assert coboundary_to_tutte(bp("t + q - 1", ("q", "t")), 1) == bp("x")
    assert coboundary_to_tutte(BivariatePolynomial.one(("q", "t")), 0) == BivariatePolynomial.one()
    cb = bp("t^3 + 3qt - 3t + q^2 - 3q + 2", ("q", "t"))
    assert coboundary_to_tutte(cb, 2) == bp("x^2 + x + y")


def test_coboundary_to_tutte_bad_rank():
    # (t-1)^2 does not divide it
    cb = bp("t + q - 1", ("q", "t"))
    with pytest.raises(InconsistencyError):
        coboundary_to_tutte(cb, 2)
    # (t-1)^1 divides it, but its q-degree is rank + 1
    with pytest.raises(InconsistencyError):
        coboundary_to_tutte(bp("q^2t - q^2", ("q", "t")), 1)


def test_coboundary_to_tutte_full_a25():
    # 300 hyperplanes of rank 24: T(2, 2) = 2^300 and T(1, 1) counts the
    # spanning trees of K25, 25^23 by Cayley's formula
    tutte = coboundary_to_tutte(full_coboundary("A", 25), 24)
    assert tutte.evaluate(2, 2) == 2 ** 300
    assert tutte.evaluate(1, 1) == 25 ** 23
    assert (tutte.degree(0), tutte.degree(1)) == (24, 300 - 24)


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


def taylor_shift_to_tutte(cb, rank):
    """Reference: shift t -> Y+1, drop rank-a powers of Y from each q^a
    column, then shift both axes by -1."""
    out = {}
    for (a, b), c in _taylor_shift(cb.coeffs, 0, 1).items():
        assert a <= rank and b >= rank - a
        out[(a, b - rank + a)] = c
    return BivariatePolynomial(_taylor_shift(out, -1, -1), ("x", "y"))


def taylor_shift_to_coboundary(tutte, rank):
    """Reference: shift both axes by +1, raise each x^a column by Y^(rank-a),
    then shift Y -> t-1."""
    shifted = _taylor_shift(tutte.coeffs, 1, 1)
    cols = {(a, rank - a + b): c for (a, b), c in shifted.items()}
    return BivariatePolynomial(_taylor_shift(cols, 0, -1), ("q", "t"))


@pytest.mark.parametrize(
    "family, rank",
    [("G2", None), ("F4", None), ("E6", None), ("A", 6), ("B", 5), ("C", 5), ("D", 5)],
)
def test_transforms_equal_the_taylor_shift_composition(family, rank):
    for ideal in enumerate_ideals(root_poset(root_system_type(family, rank))):
        cb, r = coboundary_of_ideal(ideal), arrangement_of(ideal).rank
        tutte = coboundary_to_tutte(cb, r)
        assert tutte == taylor_shift_to_tutte(cb, r)
        assert tutte_to_coboundary(tutte, r) == taylor_shift_to_coboundary(tutte, r) == cb


def taylor_shift_to_characteristic(tutte, n, rank):
    """Reference: chi(q) = (-1)^rank q^(n-rank) T(1-q, 0), with T(x, 0)
    reflected to T(-x, 0) and then shifted x -> x - 1."""
    column = {(dx, 0): -c if dx & 1 else c for (dx, dy), c in tutte.coeffs.items() if dy == 0}
    shifted = _taylor_shift(column, -1, 0)
    top = max((dx for dx, _ in shifted), default=-1)
    return UnivariatePolynomial(
        [0] * (n - rank) + [(-1) ** rank * shifted.get((k, 0), 0) for k in range(top + 1)]
    )


@pytest.mark.parametrize(
    "family, rank",
    [("G2", None), ("F4", None), ("E6", None), ("A", 5), ("B", 4), ("C", 4), ("D", 4)],
)
def test_characteristic_polynomial_of_every_engine_equals_the_taylor_shift(family, rank):
    # every engine's chi against the certified auto Tutte polynomial's; the
    # oracle's 2^m subsets only up to m = 16
    rst = root_system_type(family, rank)
    ideals = enumerate_ideals(root_poset(rst))
    if family == "E6":
        ideals = random.Random(21).sample(ideals, 20)
    engines = ("ffmethod" if rst.is_classical else "flats", "crapo", "oracle")
    for ideal in ideals:
        want = taylor_shift_to_characteristic(
            tutte_of_ideal(ideal), rst.ambient_dim, arrangement_of(ideal).rank
        )
        for engine in engines[: 2 if ideal.complement_mask().bit_count() > 16 else 3]:
            assert characteristic_polynomial(ideal, engine=engine) == want, (ideal, engine)


# B3 ideals as --roots lists: one whose complement {a1, a3} splits into two
# components, so ffmethod multiplies their chi-bar, and the whole root set
B3_TWO_COMPONENTS = [[1, 1, 2], [1, 2, 2], [1, 1, 1], [1, 1, 0], [0, 1, 2], [0, 1, 1], [0, 1, 0]]
B3_ALL_ROOTS = B3_TWO_COMPONENTS + [[1, 0, 0], [0, 0, 1]]

# what keeps each exactpoly function that no command below enters
PINNED = {
    "lagrange_interpolate": "bench/tracing.py hooks it by name",
    "BivariatePolynomial.from_json_dict": "bench/tracing.py hooks it by name",
    "_document_failures": "the schema check of from_json_dict",
    "parse_polynomial": "bench/checks.py and bench/selftest.py read published text with it",
    "BivariatePolynomial.evaluate": "specialize.region_count and bench/tracing.py's Crapo counter",
    "UnivariatePolynomial.degree": "lagrange_interpolate reads it",
    "UnivariatePolynomial.coefficient": "lagrange_interpolate reads it",
    "BivariatePolynomial.__eq__": "value equality",
    "UnivariatePolynomial.__eq__": "value equality",
    "BivariatePolynomial.__repr__": "error text",
    "UnivariatePolynomial.__repr__": "error text",
}


def _exactpoly_functions():
    """Code object -> qualified name of every function and method that
    exactpoly defines."""
    out = {}
    for name, obj in vars(exactpoly).items():
        if getattr(obj, "__module__", None) != exactpoly.__name__:
            continue
        if inspect.isfunction(obj):
            out[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)  # classmethods
                if inspect.isfunction(func):
                    out[func.__code__] = f"{name}.{attr}"
    return out


def test_every_function_is_run_or_pinned(capsys, tmp_path):
    # every engine on tutte and coboundary, each format, a cache miss and
    # hit, the empty arrangement, charpoly and verify
    b3 = ["--type", "B", "--rank", "3"]
    two = b3 + ["--roots", json.dumps(B3_TWO_COMPONENTS)]
    calls = [
        [command, *two, "--engine", engine, "--format", fmt, "--no-cache"]
        for i, engine in enumerate(("auto", "ffmethod", "flats", "crapo", "oracle"))
        for command, fmt in (("tutte", ("text", "json", "latex")[i % 3]),
                             ("coboundary", ("latex", "text", "json")[i % 3]))
    ]
    calls += [["tutte", *two, "--cache-dir", str(tmp_path)]] * 2
    calls += [
        ["tutte", *b3, "--roots", json.dumps(B3_ALL_ROOTS), "--engine", "ffmethod", "--no-cache"],
        ["charpoly", *b3, "--full"],
        ["verify", *b3, "--full"],
    ]
    filename, entered = exactpoly.__file__, set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == filename:
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [main(call) for call in calls]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(calls)
    functions = _exactpoly_functions()
    assert set(PINNED) <= set(functions.values())
    idle = {name for code, name in functions.items() if code not in entered}
    assert idle <= set(PINNED), f"no command runs {sorted(idle - set(PINNED))}"
