import functools
import importlib.util
import json
import os
import pathlib
import re
from importlib.resources import files

import pytest

from idealtutte import crapo, ffmethod, flats
from idealtutte.exactpoly import BivariatePolynomial, parse_polynomial
from idealtutte.ideals import (
    complement,
    decompose_components,
    ideal_from_boxes,
    ideal_from_mask,
    ideal_from_root_coords,
)
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import coboundary_of_ideal

DATA = pathlib.Path(__file__).parent / "data"
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def src_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def packaged_schema(name):
    """The packaged JSON schema ``idealtutte/schemas/<name>``."""
    return json.loads((files("idealtutte") / "schemas" / name).read_text())

# the worked classical examples: generating boxes of the ideal complements
WORKED_CLASSICAL = {
    "a": ("A", 7, [(1, 3), (2, 5), (4, 7), (6, 8)]),
    "b": ("B", 6, [(1, 4), (2, 0), (4, -5)]),
    "c": ("C", 6, [(1, 4), (2, -6), (4, 0)]),
    "d": ("D", 6, [(1, 3), (2, 6), (4, -5)]),
}

# the worked exceptional ideals, as simple-coordinate root lists.
# The F4 list is the published 8-root ideal translated into this package's
# (Bourbaki) simple-root coordinates: the source labels F4 roots by a mixed
# convention under which its printed list is not upward closed in any
# realization, but exactly one true 8-root ideal reproduces the published
# Tutte polynomial, and this is it.
IDEAL_G = [(3, 1), (3, 2)]
IDEAL_F = [
    (1, 1, 2, 2), (1, 2, 2, 1), (1, 2, 2, 2), (1, 2, 3, 1),
    (1, 2, 3, 2), (1, 2, 4, 2), (1, 3, 4, 2), (2, 3, 4, 2),
]
IDEAL_E = [
    (1, 1, 1, 2, 1, 0), (1, 1, 1, 2, 1, 1), (1, 1, 2, 2, 1, 0),
    (1, 1, 2, 2, 1, 1), (1, 1, 1, 2, 2, 1), (1, 1, 2, 2, 2, 1),
    (1, 1, 2, 3, 2, 1), (1, 2, 2, 3, 2, 1),
]


# two B3 ideals of m = 5 complement roots and rank 3 whose ideal exponents
# differ, (3, 1, 1) and (2, 2, 1): the true chi-bar of the second has every
# property of a chi-bar of the first but its chi
B3_IDEAL = [(1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 2)]
B3_SWAP = [(0, 1, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2)]


def swap_b3_restriction(monkeypatch):
    """Tamper ``FlatLattice.restrict`` so that the B3_IDEAL ideal gets the
    true chi-bar and rank of the B3_SWAP ideal; returns both ideals."""
    poset = root_poset(root_system_type("B", 3))
    ideal, swap = (ideal_from_root_coords(poset, coords) for coords in (B3_IDEAL, B3_SWAP))
    real = flats.FlatLattice.restrict

    def swapped(self, mask):
        return real(self, swap.complement_mask() if mask == ideal.complement_mask() else mask)

    monkeypatch.setattr(flats.FlatLattice, "restrict", swapped)
    return ideal, swap


# the ideals of a root system, and where their engine's result is tampered
TAMPERED_ENGINES = [
    ("B", 4, ffmethod, "coboundary_and_rank"),
    ("F4", None, flats.FlatLattice, "restrict"),
    ("B", 3, crapo, "tutte_corank_nullity"),
]


def poly_sum(*polys):
    """The sum of bivariate polynomials, added on their coefficient maps, in
    the first one's variables."""
    coeffs = {}
    for poly in polys:
        for k, c in poly.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
    return BivariatePolynomial(coeffs, polys[0].variables)


def tamper_engine(monkeypatch, owner, name):
    """Tamper ``owner.name``, one of TAMPERED_ENGINES, and return the engine
    that runs the tampered code, named, since auto may pick another one.
    Adding (t-1)^rank to chi-bar keeps chi-bar(q, 1) = q^rank and every
    division by t - 1 in the transform exact, but adds (t-1)^rank to
    chi-bar(1, t) = t^m; adding 1 to the oracle's T keeps its degree bounds
    and does the same."""
    real = getattr(owner, name)
    t_minus_1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1}, ("q", "t"))

    def tampered(*args):
        if owner is crapo:
            return poly_sum(real(*args), BivariatePolynomial.one())
        cb, r = real(*args)
        extra = BivariatePolynomial.one(("q", "t"))
        for _ in range(r):
            extra = extra * t_minus_1
        return poly_sum(cb, extra), r

    monkeypatch.setattr(owner, name, tampered)
    return {crapo: "oracle", ffmethod: "ffmethod", flats.FlatLattice: "flats"}[owner]


def tamper_crapo_tally(monkeypatch):
    """Add 1 to the y coefficient of every tally of Crapo's basis
    activities: crapo checks nothing itself, and chi-bar(1, t) is then no
    longer t^m."""
    real = crapo._exchange_tally

    def tampered(coords, r):
        tally = real(coords, r)
        tally[(0, 1)] = tally.get((0, 1), 0) + 1
        return tally

    monkeypatch.setattr(crapo, "_exchange_tally", tampered)


def load_poly(name, variables):
    return parse_polynomial((DATA / name).read_text(), variables)


def worked_ideal(label):
    fam, rank, gens = WORKED_CLASSICAL[label]
    poset = root_poset(root_system_type(fam, rank))
    return ideal_from_boxes(poset, gens)


@functools.cache
def classical_random_pool():
    """The 44 ideals of the benchmark's ``classical-random`` workload, as
    ``bench/workloads.py`` prepares them."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return tuple(r.ideal for r in workloads.prepare("classical-random", 0, None).requests)


def component_tuples(ideals):
    """(size, tuples) of every complement component of the ideals, in order."""
    return [
        (c.size, c.tuples) for ideal in ideals for c in decompose_components(complement(ideal))
    ]


def full_poset(family, n):
    """Root poset of the full classical arrangement in R^n: A_(n-1), or B,
    C or D_n."""
    return root_poset(root_system_type(family, n - (family == "A")))


def full_tuples(family, n):
    """Hyperplane tuples of the full classical arrangement in R^n, as its root
    poset lists them; the empty one of A in R^1, and D2 and D3, which are not
    root systems, are built here."""
    if family == "A" and n == 1:
        return ()
    if family == "D" and n < 4:
        return tuple((i, s * j) for i in range(1, n) for j in range(i + 1, n + 1) for s in (1, -1))
    return full_poset(family, n).tuples


def full_coboundary(family, n):
    """chi-bar of the full classical arrangement in R^n: the finite-field
    engine's on the empty ideal, certified by the dispatcher."""
    return coboundary_of_ideal(ideal_from_mask(full_poset(family, n), 0), engine="ffmethod")


def exceptional_ideal(family, coords):
    poset = root_poset(root_system_type(family))
    return ideal_from_root_coords(poset, coords)


@pytest.fixture(scope="session")
def g2_poset():
    return root_poset(root_system_type("G2"))


@pytest.fixture(scope="session")
def a3_poset():
    return root_poset(root_system_type("A", 3))


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
