import random

import pytest

from conftest import exceptional_ideal
from idealtutte.crapo import (
    VectorConfig,
    _tutte_crapo_batched,
    activity,
    enumerate_bases,
    rank_of,
    tutte_corank_nullity,
    tutte_crapo,
    tutte_crapo_exact,
)
from idealtutte.errors import GuardExceeded
from idealtutte.exactpoly import parse_polynomial
from idealtutte.rootsystems import positive_roots, root_poset, root_system_type

A2_BRAID = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]


def ig_complement():
    poset = root_poset(root_system_type("G2"))
    keep = {(3, 1), (3, 2)}
    return [r.simple_coords for r in poset.roots if r.simple_coords not in keep]


def test_rank_of_examples():
    assert rank_of([]) == 0
    assert rank_of(A2_BRAID) == 2
    assert rank_of([r.simple_coords for r in positive_roots(root_system_type("E6"))]) == 6


def test_enumerate_bases_counts():
    cfg = VectorConfig(A2_BRAID)
    bases = list(enumerate_bases(cfg))
    assert bases == [(0, 1), (0, 2), (1, 2)]
    cfg = VectorConfig(ig_complement())
    assert sum(1 for _ in enumerate_bases(cfg)) == 6
    single = VectorConfig([(1, 0)])
    assert list(enumerate_bases(single)) == [(0,)]


def test_enumerate_bases_guard():
    cfg = VectorConfig([(i, 1) for i in range(40)])
    with pytest.raises(GuardExceeded):
        list(enumerate_bases(cfg, max_subsets=10))


def test_activity_smallest_basis_fully_internal():
    # basis {e1-e2, e1-e3} under order index 0 < 1 < 2: internal 2, external 0
    cfg = VectorConfig(A2_BRAID)
    act = activity(cfg, (0, 1))
    assert act.internal == 2 and act.external == 0


def test_activity_tabulation_reproduces_tutte():
    cfg = VectorConfig(A2_BRAID)
    total = {}
    for b in enumerate_bases(cfg):
        a = activity(cfg, b)
        total[(a.internal, a.external)] = total.get((a.internal, a.external), 0) + 1
    assert total == {(2, 0): 1, (1, 0): 1, (0, 1): 1}  # x^2 + x + y


def test_tutte_crapo_vs_printed_g2():
    cfg = VectorConfig(ig_complement())
    want = parse_polynomial("x^2 + y^2 + 2x + 2y")
    assert tutte_crapo_exact(cfg) == want
    assert tutte_corank_nullity(cfg) == want
    assert tutte_crapo(cfg) == want
    # the least basis contributes the x^2 term
    first = next(enumerate_bases(cfg))
    act = activity(cfg, first)
    assert (act.internal, act.external) == (2, 0)


def test_corank_nullity_trivial_cases():
    assert tutte_corank_nullity(VectorConfig([], dim=2)) == 1
    assert tutte_corank_nullity(VectorConfig(A2_BRAID)) == parse_polynomial("x^2+x+y")


def test_corank_nullity_guard():
    cfg = VectorConfig([(1, i % 3) for i in range(30)])
    with pytest.raises(GuardExceeded):
        tutte_corank_nullity(cfg, max_elements=24)


@pytest.fixture(scope="module")
def f4_full():
    cfg = VectorConfig([r.simple_coords for r in positive_roots(root_system_type("F4"))])
    return cfg, tutte_crapo_exact(cfg)


@pytest.mark.parametrize("fault", ["drift", "uncertified"])
def test_batched_falls_back_to_exact_on_bad_batches(f4_full, monkeypatch, fault):
    np = pytest.importorskip("numpy")
    from idealtutte import crapo

    cfg, want = f4_full
    real_solve = np.linalg.solve
    calls = []

    def faulty_solve(a, b):
        sol = real_solve(a, b)
        calls.append(None)
        if len(calls) != 2:  # spoil only the second of the three batches
            return sol
        if fault == "drift":
            return sol + 0.25
        # stays integral after scaling by det, so only the certificate catches it
        return sol + 1.0 / np.rint(np.linalg.det(a))[:, None, None]

    exact = []
    real_exact = crapo._exact_activities

    def spy(cfg, bases, hist=None):
        exact.append(None)
        return real_exact(cfg, bases, hist)

    monkeypatch.setattr(np.linalg, "solve", faulty_solve)
    monkeypatch.setattr(crapo, "_exact_activities", spy)
    assert _tutte_crapo_batched(cfg) == want
    assert len(calls) == 3 and len(exact) == 1


def test_overflow_branch_takes_exact_route(monkeypatch):
    # minors above the Hadamard limit, then coordinates beyond int64 and float:
    # the certified kernel must not run, and the result stays exact
    from idealtutte import crapo

    def no_batches(*args):
        raise AssertionError("certified kernel ran on an overflowing configuration")

    monkeypatch.setattr(crapo, "_certified_batch", no_batches)
    big = 10 ** 7
    for vecs in (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (big, 3, big), (2, big, -big), (big, big, 1)],
        [(1, 0), (0, 1), (2 ** 1100, 1), (0, 3)],
    ):
        cfg = VectorConfig(vecs)
        assert tutte_crapo(cfg) == tutte_corank_nullity(cfg)


def test_batched_equals_python_on_random_configs():
    rng = random.Random(20240817)
    for _ in range(12):
        m, d = rng.randint(3, 8), rng.randint(2, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
        cfg = VectorConfig(vecs)
        t_exact = tutte_crapo_exact(cfg)
        assert tutte_crapo(cfg) == t_exact
        assert tutte_corank_nullity(cfg) == t_exact


def test_order_independence():
    rng = random.Random(7)
    base = [r.simple_coords for r in positive_roots(root_system_type("A", 3))]
    want = tutte_crapo(VectorConfig(base))
    perm = list(base)
    for _ in range(10):
        rng.shuffle(perm)
        assert tutte_crapo(VectorConfig(perm)) == want


def test_specialization_identities_on_g2_sweep():
    from idealtutte.ideals import enumerate_ideals

    poset = root_poset(root_system_type("G2"))
    for ideal in enumerate_ideals(poset):
        vectors = [r.simple_coords for r in ideal.complement_roots()]
        cfg = VectorConfig(vectors, dim=2)
        t = tutte_crapo(cfg)
        assert t == tutte_corank_nullity(cfg)
        assert t.evaluate(2, 2) == 2 ** len(vectors)
        assert t.evaluate(1, 1) == sum(1 for _ in enumerate_bases(cfg)) or not vectors


def test_crapo_equals_oracle_on_classical_sweeps():
    # every ideal of A3, B3, C3: basis-activity sum == corank-nullity expansion
    from idealtutte.ideals import enumerate_ideals

    for family, rank in (("A", 3), ("B", 3), ("C", 3)):
        poset = root_poset(root_system_type(family, rank))
        for ideal in enumerate_ideals(poset):
            vectors = [r.simple_coords for r in ideal.complement_roots()]
            cfg = VectorConfig(vectors, dim=rank)
            assert tutte_crapo(cfg) == tutte_corank_nullity(cfg)


def test_crapo_equals_oracle_random_f4_ideals():
    # random F4 ideals with small complements, plus the published 8-root ideal
    import random

    from idealtutte.ideals import Ideal
    from conftest import IDEAL_F, exceptional_ideal

    poset = root_poset(root_system_type("F4"))
    rng = random.Random(424242)
    done = 0
    while done < 8:
        mask = 0
        for i in range(len(poset)):
            if rng.random() < 0.75:
                mask |= poset.up_masks[i]
        ideal = Ideal(poset, mask)
        m = len(poset) - len(ideal)
        if not 0 < m <= 14:
            continue
        vectors = [r.simple_coords for r in ideal.complement_roots()]
        cfg = VectorConfig(vectors, dim=4)
        assert tutte_crapo(cfg) == tutte_corank_nullity(cfg)
        done += 1
    fi = exceptional_ideal("F4", IDEAL_F)
    cfg = VectorConfig([r.simple_coords for r in fi.complement_roots()], dim=4)
    assert tutte_crapo(cfg) == tutte_corank_nullity(cfg)


def test_independent_set_count():
    # T(2,1) counts independent subsets; check against direct enumeration
    import itertools

    cfg = VectorConfig(A2_BRAID)
    t = tutte_crapo(cfg)
    assert t.evaluate(2, 1) == 7  # {}, 3 singletons, 3 pairs

    rng = random.Random(31)
    for _ in range(5):
        m, d = rng.randint(4, 9), rng.randint(2, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
        cfg = VectorConfig(vecs)
        if cfg.rank == 0:
            continue
        direct = sum(
            1
            for k in range(m + 1)
            for sub in itertools.combinations(range(m), k)
            if rank_of([vecs[i] for i in sub]) == k
        )
        assert tutte_crapo(cfg).evaluate(2, 1) == direct


def test_deletion_contraction_spot():
    rng = random.Random(99)
    for _ in range(10):
        m, d = rng.randint(4, 8), rng.randint(2, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
        cfg = VectorConfig(vecs)
        r = cfg.rank
        if r == 0:
            continue
        # pick a non-loop, non-coloop element
        choice = None
        for i, v in enumerate(vecs):
            if rank_of([v]) == 0:
                continue  # loop
            rest = vecs[:i] + vecs[i + 1 :]
            if rank_of(rest) < r:
                continue  # coloop
            choice = i
            break
        if choice is None:
            continue
        v = vecs[choice]
        rest = vecs[:choice] + vecs[choice + 1 :]
        t_all = tutte_corank_nullity(cfg)
        t_del = tutte_corank_nullity(VectorConfig(rest, dim=d))
        t_con = tutte_corank_nullity(VectorConfig(_contract(rest, v), dim=d - 1))
        assert t_all == t_del + t_con


def _contract(vectors, v):
    """Quotient coordinates: project vectors along v onto a complement basis."""
    from fractions import Fraction

    d = len(v)
    pivot = next(i for i, x in enumerate(v) if x)
    out = []
    for w in vectors:
        f = Fraction(w[pivot], v[pivot])
        proj = [Fraction(w[k]) - f * v[k] for k in range(d) if k != pivot]
        denom = 1
        for c in proj:
            denom = denom * c.denominator // _gcd(denom, c.denominator)
        out.append(tuple(int(c * denom) for c in proj))
    return out


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a
