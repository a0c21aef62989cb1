import random

import pytest

from conftest import exceptional_ideal, poly_sum, tamper_crapo_tally
from crapo_reference import enumerate_bases, tutte_crapo_exact
from idealtutte.crapo import (
    VectorConfig,
    _bases,
    activity,
    rank_of,
    tutte_corank_nullity,
    tutte_crapo,
)
from idealtutte.errors import GuardExceeded, InconsistencyError
from idealtutte.exactpoly import BivariatePolynomial, parse_polynomial
from idealtutte.ideals import ideal_from_mask
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import tutte_of_ideal

A2_BRAID = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]


def ig_complement():
    poset = root_poset(root_system_type("G2"))
    keep = {(3, 1), (3, 2)}
    return [r.simple_coords for r in poset.roots if r.simple_coords not in keep]


def test_rank_of_examples():
    assert rank_of([]) == 0
    assert rank_of(A2_BRAID) == 2
    assert rank_of([r.simple_coords for r in root_poset(root_system_type("E6")).roots]) == 6


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
    assert tutte_corank_nullity(VectorConfig([], dim=2)) == BivariatePolynomial.one()
    assert tutte_corank_nullity(VectorConfig(A2_BRAID)) == parse_polynomial("x^2+x+y")


def test_corank_nullity_guard():
    cfg = VectorConfig([(1, i % 3) for i in range(30)])
    for guard in ({}, {"max_subsets": 2 ** 29}, {"max_elements": 24}):
        with pytest.raises(GuardExceeded):
            tutte_corank_nullity(cfg, **guard)


def test_corank_nullity_guard_refuses_27_elements_before_any_work(monkeypatch):
    # the CLI's default guard of 10^8 subsets admits 2^26 but not 2^27
    from idealtutte import crapo

    def no_work():
        raise AssertionError("the oracle started its subset walk")

    cfg = VectorConfig([(1, i) for i in range(27)])
    monkeypatch.setattr(crapo, "_Echelon", no_work)
    with pytest.raises(GuardExceeded, match=r"2\^27"):
        tutte_corank_nullity(cfg, max_subsets=10 ** 8)


@pytest.fixture(scope="module")
def f4_full():
    cfg = VectorConfig([r.simple_coords for r in root_poset(root_system_type("F4")).roots])
    return cfg, tutte_crapo_exact(cfg)


def _kernel_bases(cfg):
    import numpy as np

    W = np.array(cfg.pivot_coordinates(), dtype=np.int64)
    return [tuple(b) for block in _bases(W, cfg.rank) for b in block.tolist()]


def test_kernel_bases_equal_enumerate_bases(f4_full):
    from idealtutte.ideals import enumerate_ideals

    configs = [f4_full[0]]
    for ideal in enumerate_ideals(root_poset(root_system_type("G2"))):
        vectors = [r.simple_coords for r in ideal.complement_roots()]
        configs.append(VectorConfig(vectors, dim=2))
    rng = random.Random(5150)
    while len(configs) < 40:
        m, d = rng.randint(1, 10), rng.randint(1, 6)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
        configs.append(VectorConfig(vecs))
    for cfg in configs:
        if cfg.rank:
            assert _kernel_bases(cfg) == list(enumerate_bases(cfg))


def test_tutte_crapo_uses_no_float_linear_algebra(f4_full, monkeypatch):
    import numpy as np

    cfg, want = f4_full

    def refuse(*args, **kwargs):
        raise AssertionError("float linear algebra called")

    for name in ("det", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert tutte_crapo(cfg) == want


def _uniform_rank2(n):
    """T of the uniform matroid U(2, n): x^2 + (n-2)x + sum_j (n-1-j) y^j."""
    terms = {(2, 0): 1, (1, 0): n - 2}
    terms.update({(0, j): n - 1 - j for j in range(1, n - 1)})
    return BivariatePolynomial(terms, ("x", "y"))


@pytest.mark.parametrize(
    "vectors, dim, want",
    [
        # rank 1: the exchange table has the one empty (r-1)-subset
        ([(0, 0), (1, 2), (2, 4), (0, 0), (-3, -6)], 2, "x y^2 + y^3 + y^4"),
        ([(5,)], 1, "x"),
        # r = m: exactly one basis
        ([(1, 0, 0), (1, 1, 0), (0, 1, 1)], 3, "x^3"),
        # zero vectors (loops) in a configuration of rank 2 < dim 4
        ([(0, 0, 0, 0), (1, 2, 0, 1), (0, 0, 0, 0), (2, 4, 0, 2), (1, 0, 1, 0), (3, 2, 2, 1)],
         4, None),
    ],
)
def test_kernel_edge_cases(vectors, dim, want):
    cfg = VectorConfig(vectors, dim=dim)
    t = tutte_crapo(cfg)
    assert t == tutte_crapo_exact(cfg) == tutte_corank_nullity(cfg)
    if want is not None:
        assert t == parse_polynomial(want)
    assert _kernel_bases(cfg) == list(enumerate_bases(cfg))


def test_kernel_past_int8_indices():
    # 130 pairwise independent vectors in rank 2: element indices above 127
    cfg = VectorConfig([(1, k) for k in range(130)])
    assert tutte_crapo(cfg) == _uniform_rank2(130)
    assert _uniform_rank2(3) == parse_polynomial("x^2 + x + y")


def _identity(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


@pytest.mark.parametrize(
    "n, extra, want",
    [
        # U(30, 31): the prefix tree passes level 15, where a 30-row prefix
        # has C(30, 15) minors; it must carry only its elimination
        (30, (1,) * 30, " + ".join(f"x^{k}" for k in range(2, 31)) + " + x + y"),
        # 69 elements of rank 68: C(68, 34) > 2^63, beyond an int64 binomial table
        (68, (1, 1) + (0,) * 66, "x^68 + x^67 + x^66 y"),
    ],
)
def test_kernel_high_rank_few_candidates(n, extra, want):
    cfg = VectorConfig(_identity(n) + [extra])
    t = tutte_crapo(cfg)
    assert t == tutte_crapo_exact(cfg) == parse_polynomial(want)
    assert _kernel_bases(cfg) == list(enumerate_bases(cfg))


def _spy_on_kernel_dtype(monkeypatch):
    """Record the dtype of every array the kernel eliminates, in call order."""
    from idealtutte import crapo

    real, dtypes = crapo._bases, []

    def spy(W, r):
        dtypes.append(str(W.dtype))
        return real(W, r)

    monkeypatch.setattr(crapo, "_bases", spy)
    return dtypes


def test_kernel_exact_near_its_int64_bound(monkeypatch):
    # Hadamard bounds just under 2^30: the kernel runs in int64, and its
    # products of two minors come close to 2^60
    rng = random.Random(2 ** 30)
    cases = []
    for dim, bound in ((2, 2 ** 13), (3, 250), (4, 40)):
        for _ in range(4):
            vecs = [tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(5)]
            # dependent elements, so that every zero test matters
            a, b, c = rng.sample(vecs, 3)
            vecs += [tuple(x + y for x, y in zip(a, b)), tuple(-x for x in c), a]
            cfg = VectorConfig(vecs)
            cases.append((cfg, tutte_crapo_exact(cfg)))

    dtypes = _spy_on_kernel_dtype(monkeypatch)
    for cfg, want in cases:
        assert tutte_crapo(cfg) == want
    assert dtypes == ["int64"] * len(cases)


def test_non_spanning_kernel_reads_pivot_columns(monkeypatch):
    # rank 3 in R^4: on its pivot columns the Hadamard bound is about 2.4e7,
    # under the kernel's 2^30, so the kernel runs in int64 (coordinates solved
    # over an echelon basis and rescaled by hand would reach about 2.8e11)
    cfg = VectorConfig([
        (-56, 76, 15, -7), (-15, 32, -64, 35), (-58, -50, -8, 22),
        (-183, -44, 206, -75), (-142, 216, -98, 56), (-77, -270, -118, 115),
    ])
    assert cfg.rank == 3 and len(cfg.pivots) == 3
    want = tutte_crapo_exact(cfg)
    dtypes = _spy_on_kernel_dtype(monkeypatch)
    assert tutte_crapo(cfg) == want
    assert dtypes == ["int64"]


def test_kernel_memory_guard(monkeypatch, f4_full):
    from idealtutte import crapo

    # the bases alone outgrow the budget while the prefix tree runs
    monkeypatch.setattr(crapo, "MAX_KERNEL_BYTES", 5000)
    with pytest.raises(GuardExceeded, match="bytes"):
        tutte_crapo(f4_full[0])
    # 31 bases (3720 bytes) pass, then the 465-row table (3720 bytes) is refused
    with pytest.raises(GuardExceeded, match="bytes"):
        tutte_crapo(VectorConfig(_identity(30) + [(1,) * 30]))
    monkeypatch.setattr(crapo, "MAX_KERNEL_BYTES", 7440)
    assert tutte_crapo(VectorConfig(_identity(30) + [(1,) * 30])).evaluate(1, 1) == 31


def test_tampered_tally_fails_self_certificate(monkeypatch):
    # crapo checks nothing itself: the dispatcher's certificate of the
    # converted chi-bar refuses the tally, whose chi-bar(1, t) is not t^3
    braid = ideal_from_mask(root_poset(root_system_type("A", 2)), 0)
    tamper_crapo_tally(monkeypatch)
    with pytest.raises(InconsistencyError, match=r"chi-bar\(1, t\) = t\^m"):
        tutte_of_ideal(braid, engine="crapo")


def test_overflow_branch_takes_exact_route(monkeypatch):
    # minors above the Hadamard limit, then coordinates beyond int64 and float:
    # the kernel eliminates on Python integers, and the result stays exact
    dtypes = _spy_on_kernel_dtype(monkeypatch)
    big = 10 ** 7
    for vecs in (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (big, 3, big), (2, big, -big), (big, big, 1)],
        [(1, 0), (0, 1), (2 ** 1100, 1), (0, 3)],
    ):
        cfg = VectorConfig(vecs)
        assert tutte_crapo(cfg) == tutte_corank_nullity(cfg)
    assert dtypes == ["object", "object"]


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
    base = [r.simple_coords for r in root_poset(root_system_type("A", 3)).roots]
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
        assert t_all == poly_sum(t_del, t_con)


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
