"""Acceptance criteria, one test per criterion (exact equality throughout).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion with timings.

Known red: criterion 1's published coboundary/Tutte values for the D6 example
do not belong to its displayed ideal; see test_crit1_id_published_values and
the passing diagnosis test below it, which pins down the discrepancy exactly
(the published pair corresponds to the displayed arrangement plus one
coordinate hyperplane).
"""

import time

import pytest

from conftest import (
    IDEAL_E,
    IDEAL_F,
    IDEAL_G,
    exceptional_ideal,
    full_coboundary,
    load_poly,
    worked_ideal,
)
from crapo_reference import enumerate_bases
from idealtutte.crapo import VectorConfig, tutte_corank_nullity, tutte_crapo
from idealtutte.errors import InconsistencyError
from idealtutte.exactpoly import coboundary_to_tutte, lagrange_interpolate
from idealtutte.ffmethod import CountingModel, count_points_bruteforce
from idealtutte.ideals import (
    arrangement_of,
    check_exponent_factorization,
    complement,
    enumerate_ideals,
    ideal_from_mask,
)
from idealtutte.paper import minor_set
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import (
    characteristic_polynomial,
    coboundary_of_ideal,
    region_count,
    tutte_of_ideal,
)


def tutte_via_ffmethod(ideal):
    """The finite-field engine's Tutte polynomial, certified by the dispatcher."""
    return tutte_of_ideal(ideal, engine="ffmethod")


def report(line):
    print(f"\nACCEPTANCE {line}")


# ---- criterion 1: published fixture equality ----------------------------------


def test_crit1_ig_both_routes():
    t0 = time.time()
    ig = exceptional_ideal("G2", IDEAL_G)
    vectors = [r.simple_coords for r in ig.complement_roots()]
    want = load_poly("tutte_ig.txt", ("x", "y"))
    via_crapo = tutte_crapo(VectorConfig(vectors, dim=2))
    via_oracle = tutte_corank_nullity(VectorConfig(vectors, dim=2))
    ok = via_crapo == want and via_oracle == want
    report(f"1(G2 ideal, both engines): {'PASS' if ok else 'FAIL'} [{time.time()-t0:.2f}s]")
    assert ok


def test_crit1_if():
    t0 = time.time()
    fi = exceptional_ideal("F4", IDEAL_F)
    vectors = [r.simple_coords for r in fi.complement_roots()]
    got = tutte_crapo(VectorConfig(vectors, dim=4))
    dt = time.time() - t0
    ok = got == load_poly("tutte_if.txt", ("x", "y")) and dt < 30
    report(f"1(F4 ideal): {'PASS' if ok else 'FAIL'} [{dt:.2f}s, target <30s]")
    assert got == load_poly("tutte_if.txt", ("x", "y"))
    assert dt < 30


def test_crit1_ie():
    t0 = time.time()
    ie = exceptional_ideal("E6", IDEAL_E)
    vectors = [r.simple_coords for r in ie.complement_roots()]
    got = tutte_crapo(VectorConfig(vectors, dim=6))
    dt = time.time() - t0
    ok = got == load_poly("tutte_ie.txt", ("x", "y")) and dt < 300
    report(f"1(E6 ideal): {'PASS' if ok else 'FAIL'} [{dt:.2f}s, target <300s]")
    assert got == load_poly("tutte_ie.txt", ("x", "y"))
    assert dt < 300


@pytest.mark.parametrize("label", ["a", "b", "c"])
def test_crit1_classical_pipeline(label):
    t0 = time.time()
    ideal = worked_ideal(label)
    cb = coboundary_of_ideal(ideal, engine="ffmethod")
    tutte = tutte_via_ffmethod(ideal)
    dt = time.time() - t0
    ok = (
        cb == load_poly(f"coboundary_i{label}.txt", ("q", "t"))
        and tutte == load_poly(f"tutte_i{label}.txt", ("x", "y"))
        and dt < 120
    )
    report(f"1(I_{label} pipeline): {'PASS' if ok else 'FAIL'} [{dt:.2f}s, target <120s]")
    assert ok


def test_crit1_id_published_values():
    """Honest red: the published D6 example polynomials do not match its ideal.

    The displayed D6 ideal (generating boxes (1,3),(2,6),(4,-5)) has 15
    hyperplanes; the published coboundary/Tutte pair describes a 16-hyperplane
    rank-6 arrangement.  Exhaustive search over every ideal of D6, D7, B6, B7,
    C6, and C7 finds no ideal with the published polynomials; the diagnosis
    test below reproduces them exactly by adding one coordinate hyperplane to
    the displayed arrangement.  Our pipeline value for the displayed ideal is
    cross-validated against the corank-nullity oracle and brute-force finite
    field counts in criterion 2 style tests.
    """
    ideal = worked_ideal("d")
    cb = coboundary_of_ideal(ideal, engine="ffmethod")
    tutte = tutte_via_ffmethod(ideal)
    want_cb = load_poly("coboundary_id.txt", ("q", "t"))
    want_t = load_poly("tutte_id.txt", ("x", "y"))
    ok = cb == want_cb and tutte == want_t
    report(
        f"1(I_d pipeline vs published): {'PASS' if ok else 'FAIL (known source defect; see diagnosis test)'}"
    )
    assert ok, (
        "published D6 example values correspond to the displayed arrangement "
        "plus the hyperplane x6 = 0, not to the displayed ideal"
    )


def test_crit1_id_diagnosis():
    """The published I_d pair equals the displayed arrangement plus {x_6 = 0}."""
    t0 = time.time()
    ideal = worked_ideal("d")
    tuples = sorted(complement(ideal) | {(6, 0)})
    model = CountingModel(6, tuples)
    primes = (3, 5, 7, 11, 13, 17, 19)[: model.rank + 1]
    cb = lagrange_interpolate([(p, model.coboundary_at_prime(p)) for p in primes])
    tutte = coboundary_to_tutte(cb)
    ok = cb == load_poly("coboundary_id.txt", ("q", "t")) and tutte == load_poly(
        "tutte_id.txt", ("x", "y")
    )
    report(f"1(I_d diagnosis, +x6=0): {'PASS' if ok else 'FAIL'} [{time.time()-t0:.2f}s]")
    assert ok


def test_crit1_a12_braid_spots():
    t0 = time.time()
    cb = full_coboundary("A", 13)
    tutte = coboundary_to_tutte(cb)
    dt = time.time() - t0
    ok = (
        tutte.coefficient(0, 66) == 1
        and tutte.coefficient(0, 65) == 12
        and tutte.coefficient(12, 0) == 1
        and tutte.coefficient(1, 0) == 39916800
        and tutte.evaluate(1, 1) == 13 ** 11
        and dt < 600
    )
    report(f"1(A12 braid spots): {'PASS' if ok else 'FAIL'} [{dt:.2f}s, target <600s]")
    assert ok


# ---- criterion 2: oracle equivalence sweep -------------------------------------

SWEEP = (("A", 3, 14), ("B", 3, 20), ("C", 3, 20), ("D", 4, 50), ("G2", 2, 8))


@pytest.fixture(scope="module")
def sweep_results():
    out = {}
    for family, rank, expect in SWEEP:
        poset = root_poset(root_system_type(family, rank))
        ideals = enumerate_ideals(poset)
        assert len(ideals) == expect
        for ideal in ideals:
            comp_roots = ideal.complement_roots()
            vectors = [r.simple_coords for r in comp_roots]
            cfg = VectorConfig(vectors, dim=rank)
            oracle = tutte_corank_nullity(cfg)
            if poset.rst.is_classical:
                primary = tutte_via_ffmethod(ideal)
            else:
                primary = tutte_crapo(cfg)
            out[(family, rank, ideal.mask)] = {
                "ideal": ideal,
                "cfg": cfg,
                "primary": primary,
                "oracle": oracle,
            }
    return out


def test_crit2_engine_equivalence(sweep_results):
    t0 = time.time()
    mismatches = 0
    for (family, rank, _), data in sweep_results.items():
        if data["primary"] != data["oracle"]:
            mismatches += 1
        if family == "G2":
            continue
        # third route: interpolate brute-force finite field counts
        ideal = data["ideal"]
        tuples = complement(ideal)
        n = ideal.rst.ambient_dim
        r = arrangement_of(ideal).rank
        primes = (3, 5, 7, 11, 13)[: r + 1]
        points = [
            (p, count_points_bruteforce(tuples, n, p).coboundary())
            for p in primes
        ]
        bf_tutte = coboundary_to_tutte(lagrange_interpolate(points))
        if bf_tutte != data["primary"]:
            mismatches += 1
    dt = time.time() - t0
    report(
        f"2(oracle equivalence, {len(sweep_results)} ideals x 3 routes): "
        f"{'PASS' if mismatches == 0 else 'FAIL'} [{dt:.1f}s, target <900s]"
    )
    assert mismatches == 0
    assert dt < 900


# ---- criterion 3: minor-set theorem ----------------------------------------------


def test_crit3_minor_sets():
    t0 = time.time()

    def coords(family, rank):
        return [
            tuple(c // 2 for c in r.ambient2)
            for r in root_poset(root_system_type(family, rank)).roots
        ]

    ok = True
    for n in (2, 3, 4, 5):
        want = {1, -1} if n == 2 else {0, 1, -1}
        ok &= minor_set(coords("A", n - 1)) == want
    for n in (2, 3, 4):
        want = {0} | {s * 2 ** k for k in range(n // 2 + 1) for s in (1, -1)}
        ok &= minor_set(coords("B", n)) == want
    dt = time.time() - t0
    report(f"3(minor sets): {'PASS' if ok else 'FAIL'} [{dt:.1f}s, target <120s]")
    assert ok and dt < 120


# ---- criterion 4: specialization identities ---------------------------------------


def test_crit4_specializations(sweep_results):
    t0 = time.time()
    failures = 0
    for (family, rank, _), data in sweep_results.items():
        tutte = data["primary"]
        cfg = data["cfg"]
        m = len(cfg)
        if tutte.evaluate(2, 2) != 2 ** m:
            failures += 1
        nbases = sum(1 for _ in enumerate_bases(cfg)) if m else 1
        if tutte.evaluate(1, 1) != nbases:
            failures += 1
        if any(c <= 0 for c in tutte.coeffs.values()):
            failures += 1
    # region counts of full classical arrangements = Weyl group orders
    weyl = {
        ("A", 2): 2, ("A", 3): 6, ("A", 4): 24,
        ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
        ("D", 4): 192,
    }
    for (family, n), order in weyl.items():
        tutte = coboundary_to_tutte(full_coboundary(family, n))
        if region_count(tutte) != order:
            failures += 1
    g2 = root_poset(root_system_type("G2"))
    t_g2 = tutte_of_ideal(ideal_from_mask(g2, 0), engine="crapo")
    if region_count(t_g2) != 12:
        failures += 1
    dt = time.time() - t0
    report(f"4(specialization identities): {'PASS' if failures == 0 else 'FAIL'} [{dt:.1f}s]")
    assert failures == 0


# ---- criterion 5: exponent factorization ------------------------------------------


def test_crit5_exponent_factorization(sweep_results):
    t0 = time.time()
    failures = []
    # chi of the sweep's ideals by their primary engines, and of the worked
    # G2 and F4 ideals by the default engine
    cases = [
        (data["ideal"], "ffmethod" if data["ideal"].rst.is_classical else "crapo")
        for data in sweep_results.values()
    ]
    cases += [(exceptional_ideal(fam, coords), "auto")
              for fam, coords in (("G2", IDEAL_G), ("F4", IDEAL_F))]
    for ideal, engine in cases:
        try:
            chi = characteristic_polynomial(ideal, engine=engine)
            check_exponent_factorization(ideal, chi.coeffs)
        except InconsistencyError as exc:
            failures.append(str(exc))
    dt = time.time() - t0
    report(
        f"5(exponent factorization, {len(sweep_results)+2} ideals): "
        f"{'PASS' if not failures else 'FAIL ' + repr(failures[:3])} [{dt:.1f}s]"
    )
    assert not failures


# ---- criterion 6: ideal enumeration counts ----------------------------------------


def test_crit6_ideal_counts():
    t0 = time.time()
    wants = {
        ("A", 2): 5, ("A", 3): 14, ("B", 2): 6, ("B", 3): 20,
        ("D", 4): 50, ("G2", 2): 8, ("F4", 4): 105, ("E6", 6): 833,
    }
    ok = True
    for (family, rank), want in wants.items():
        poset = root_poset(root_system_type(family, rank))
        got = len(enumerate_ideals(poset))
        ok &= got == want
        if len(poset) <= 9:  # second, independent enumerator: subset filter
            brute = 0
            for mask in range(1 << len(poset)):
                if all(
                    not (mask >> i & 1) or not (poset.up_masks[i] & ~mask)
                    for i in range(len(poset))
                ):
                    brute += 1
            ok &= brute == want
    dt = time.time() - t0
    report(f"6(ideal counts): {'PASS' if ok else 'FAIL'} [{dt:.1f}s, target <60s]")
    assert ok and dt < 60


# ---- criterion 7: randomized property suites ---------------------------------------


def test_crit7_property_suites():
    t0 = time.time()
    import test_properties as props

    props.test_ring_laws_random()
    props.test_interpolation_round_trip_random()
    props.test_crapo_order_invariance_random()
    props.test_deletion_contraction_random()
    props.test_reconstruction_random_ideals()
    dt = time.time() - t0
    report(f"7(property suites, >1000 cases): PASS [{dt:.1f}s]")
