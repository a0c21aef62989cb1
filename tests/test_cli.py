import json
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

from conftest import (
    B3_IDEAL,
    IDEAL_E,
    IDEAL_G,
    TAMPERED_ENGINES,
    exceptional_ideal,
    latex_is_wellformed,
    packaged_schema,
    poly_sum,
    src_env,
    swap_b3_restriction,
    tamper_crapo_tally,
    tamper_engine,
)
from idealtutte import crapo, ffmethod, specialize
from idealtutte.cli import main, parse_ideal_spec
from idealtutte.errors import ConstraintError, InconsistencyError
from idealtutte.exactpoly import (
    BivariatePolynomial,
    coboundary_to_tutte,
    parse_polynomial,
    tutte_to_coboundary,
)
from idealtutte.ffmethod import CountingModel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _triples(poly):
    """The cache entry of a Tutte polynomial: its sorted [dx, dy, c] triples."""
    return [[a, b, c] for (a, b), c in sorted(poly.coeffs.items())]


def test_tutte_g2_example(capsys, tmp_path):
    code, out, _ = run(
        capsys, "tutte", "--type", "G2", "--roots", "[[3,1],[3,2]]",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert parse_polynomial(out.strip()) == parse_polynomial("x^2 + y^2 + 2x + 2y")


def test_minors_b3(capsys, tmp_path):
    code, out, _ = run(capsys, "minors", "--type", "B", "--rank", "3")
    assert code == 0
    assert out.strip() == "{0, ±1, ±2}"


def test_minors_guard_refuses_e6(capsys):
    # 36 roots in R^8 have sum_k C(36, k) C(8, k) = C(44, 8) - 1 square minors
    code, out, err = run(capsys, "minors", "--type", "E6")
    assert code == 2
    assert out == ""
    assert "exceeds guard 5000000" in err


def test_verify_sweep_exit_zero(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--type", "A", "--rank", "4", "--all-ideals",
        "--engines", "crapo,oracle",
    )
    assert code == 0
    assert "verified 42 ideal(s)" in out


def test_roots_listing(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A", "--rank", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert rows[0]["height"] == 1


def test_ideals_count(capsys):
    code, out, _ = run(capsys, "ideals", "--type", "G2", "--count-only")
    assert code == 0
    assert out.strip() == "8"


def test_unsupported_exceptional_type_without_rank(capsys):
    code, out, err = run(capsys, "ideals", "--type", "E7", "--count-only")
    assert code == 1 and not out
    assert err.strip() == "error: E7 is not supported"


def test_json_round_trip_and_provenance(capsys, tmp_path):
    # B6, of 36 roots, is past auto's lattice cut and stays on the DP
    code, out, _ = run(
        capsys, "tutte", "--type", "B", "--rank", "6", "--full",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    poly = BivariatePolynomial.from_json_dict(data)
    assert poly.evaluate(2, 2) == 2 ** 36
    assert data["provenance"]["engine"] == "ffmethod"
    assert set(data["provenance"]) == {"cache", "engine", "system", "hyperplanes", "wall_time_s"}
    assert data["provenance"]["cache"] == "miss"


def test_wall_time_survives_a_clock_step(capsys, monkeypatch):
    # the system clock steps back an hour during the call; the duration holds
    from idealtutte import cli

    readings = iter([7200.0, 3600.0])
    monkeypatch.setattr(cli.time, "time", lambda: next(readings, 3600.0))
    code, out, _ = run(
        capsys, "tutte", "--type", "B", "--rank", "2", "--full", "--format", "json",
        "--no-cache",
    )
    assert code == 0
    assert json.loads(out)["provenance"]["wall_time_s"] >= 0


def test_provenance_reports_a_cache_hit(capsys, tmp_path):
    args = ("coboundary", "--type", "C", "--rank", "4", "--boxes", "[[1,4],[2,-3]]",
            "--format", "json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    (path,) = tmp_path.glob("*.json")
    stored = path.read_bytes()
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    first, second = json.loads(out1), json.loads(out2)
    assert first["provenance"]["cache"] == "miss" and second["provenance"]["cache"] == "hit"
    assert first["terms"] == second["terms"]
    # the provenance is built afresh: a hit differs from the miss only in
    # ``cache`` and in this call's own wall time
    for body in (first, second):
        assert body["provenance"].pop("cache") and body["provenance"].pop("wall_time_s") >= 0
    assert first["provenance"] == second["provenance"]
    # the entry is the bare Tutte polynomial, its [dx, dy, c] triples with no
    # provenance, and a hit leaves it as it was
    coboundary = BivariatePolynomial.from_json_dict(first)
    want = coboundary_to_tutte(coboundary, coboundary.degree(0))
    assert path.read_bytes() == stored and json.loads(stored) == _triples(want)
    code3, out3, _ = run(capsys, *args[:-2], "--no-cache")
    assert code3 == 0 and json.loads(out3)["provenance"]["cache"] == "miss"


def test_coboundary_reads_the_entry_tutte_wrote(capsys, tmp_path):
    g2 = ("--type", "G2", "--roots", "[[3,1],[3,2]]", "--format", "json")
    code, _, _ = run(capsys, "tutte", *g2, "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "coboundary", *g2, "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["provenance"]["cache"] == "hit"
    code, want, _ = run(capsys, "coboundary", *g2, "--no-cache")
    assert code == 0 and json.loads(out)["terms"] == json.loads(want)["terms"]
    assert len(list(tmp_path.iterdir())) == 1


def test_coboundary_miss_prints_chi_bar_as_computed(capsys, monkeypatch, tmp_path):
    from idealtutte import cli

    g2 = ("--type", "G2", "--roots", "[[3,1],[3,2]]", "--format", "json")
    want = BivariatePolynomial.from_json_dict(
        {"terms": [{"dx": a, "dy": b, "c": str(c)} for a, b, c in G2_TUTTE],
         "variables": ["x", "y"]})
    # under --no-cache no Tutte polynomial is formed, so neither transform
    # runs, and no cache key is built
    with monkeypatch.context() as patched:
        patched.setattr(cli, "coboundary_to_tutte", _never)
        patched.setattr(specialize, "tutte_to_coboundary", _never)
        patched.setattr(cli._Cache, "key", _never)
        code, out, _ = run(capsys, "coboundary", *g2, "--no-cache")
    assert code == 0
    assert BivariatePolynomial.from_json_dict(json.loads(out)) == tutte_to_coboundary(want, 2)
    # with a cache, the miss stores the entry tutte would have stored, and tutte hits it
    code, cold, _ = run(capsys, "coboundary", *g2, "--cache-dir", str(tmp_path / "cb"))
    assert code == 0 and json.loads(cold)["terms"] == json.loads(out)["terms"]
    code, hit, _ = run(capsys, "tutte", *g2, "--cache-dir", str(tmp_path / "cb"))
    assert code == 0 and json.loads(hit)["provenance"]["cache"] == "hit"
    assert BivariatePolynomial.from_json_dict(json.loads(hit)) == want
    assert run(capsys, "tutte", *g2, "--cache-dir", str(tmp_path / "t"))[0] == 0
    (cb_entry,), (t_entry,) = (tmp_path / "cb").iterdir(), (tmp_path / "t").iterdir()
    assert cb_entry.name == t_entry.name and cb_entry.read_bytes() == t_entry.read_bytes()


def test_cache_entries_hold_no_timing(capsys, tmp_path):
    # two fresh caches filled by the same requests are byte for byte the same
    requests = [
        ("tutte", "--type", "B", "--rank", "3", "--full"),
        ("coboundary", "--type", "G2", "--roots", "[[3,1],[3,2]]"),
        ("tutte", "--type", "D", "--rank", "4", "--boxes", "[[1,3]]"),
        ("coboundary", "--type", "F4", "--roots", "[[2,3,4,2]]"),
    ]
    for cache in ("one", "two"):
        for argv in requests:
            code, _, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / cache))
            assert code == 0
    one, two = ({p.name: p.read_bytes() for p in (tmp_path / c).iterdir()} for c in ("one", "two"))
    assert len(one) == len(requests) and one == two


def test_entry_stored_by_another_version_is_a_miss(capsys, monkeypatch, tmp_path):
    from idealtutte import cli

    args = ("coboundary", "--type", "B", "--rank", "4", "--boxes", "[[1,4]]",
            "--format", "json", "--cache-dir", str(tmp_path))
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    code, out, _ = run(capsys, *args)
    assert code == 0 and json.loads(out)["provenance"]["cache"] == "miss"
    monkeypatch.undo()
    code, out, _ = run(capsys, *args)
    assert code == 0 and json.loads(out)["provenance"]["cache"] == "miss"
    code, out, _ = run(capsys, *args)
    assert code == 0 and json.loads(out)["provenance"]["cache"] == "hit"
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_pyproject_version_is_the_package_version():
    # the cache key hashes __version__, so the two must not drift apart
    from idealtutte import __version__

    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        section = re.search(r"(?ms)^\[project\]$(.*?)(?=^\[|\Z)", text).group(1)
        version = re.search(r'(?m)^version\s*=\s*"([^"]*)"', section).group(1)
    else:
        version = tomllib.loads(text)["project"]["version"]
    assert version == __version__


def test_verify_checks_direct_against_the_whole_model(capsys, monkeypatch):
    # the direct chi-bar, a product over the components, against the chi-bar
    # of the whole complement's counting model, as whole polynomials
    args = ("verify", "--type", "B", "--rank", "3", "--all-ideals")
    code, out, _ = run(capsys, *args, "--engines", "ffmethod,crapo")
    assert code == 0
    assert "+20 whole-model checks" in out
    real = ffmethod.coboundary_and_rank

    def tampered(ideal):
        # adding (q-1) t (t-1)^rank keeps chi-bar(q, 1), chi-bar(1, t), chi
        # (the t^0 column), the degree bounds and every division of the
        # Tutte transform, so the certificate passes it and both engine runs
        # agree on the wrong answer for the first ideal, the empty one
        # (9 roots, rank 3)
        cb, rank = real(ideal)
        t_minus_1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1}, ("q", "t"))
        extra = BivariatePolynomial({(1, 1): 1, (0, 1): -1}, ("q", "t"))  # (q-1) t
        for _ in range(rank):
            extra = extra * t_minus_1
        return poly_sum(cb, extra), rank

    monkeypatch.setattr(ffmethod, "coboundary_and_rank", tampered)
    code, _, err = run(capsys, *args, "--engines", "ffmethod,ffmethod")
    assert code == 3 and "counting model disagree" in err


@pytest.mark.parametrize("command", ["tutte", "coboundary", "charpoly"])
def test_chi_bar_of_another_ideal_exits_4(capsys, monkeypatch, tmp_path, command):
    # a result that fails the certificate is an inconsistent result, not a
    # validation error, and nothing is cached
    swap_b3_restriction(monkeypatch)
    cache = ("--cache-dir", str(tmp_path)) if command != "charpoly" else ()
    roots = json.dumps(B3_IDEAL)
    code, out, err = run(capsys, command, "--type", "B", "--rank", "3", "--roots", roots, *cache)
    assert (code, out) == (4, "")
    assert err.startswith("inconsistent result: the flats result fails its certificate")
    assert "ideal exponents [3, 1, 1]" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["tutte", "coboundary"])
@pytest.mark.parametrize(
    "tamper", [*TAMPERED_ENGINES, "crapo-tally"], ids=["ffmethod", "flats", "oracle", "crapo"]
)
def test_every_tampered_engine_exits_4(capsys, monkeypatch, tmp_path, tamper, command):
    # each engine's tampered result fails the certificate through the CLI:
    # one line on stderr, nothing printed and nothing cached
    if tamper == "crapo-tally":
        tamper_crapo_tally(monkeypatch)
        system, engine = ("A", 2), "crapo"
    else:
        family, rank, owner, name = tamper
        system, engine = (family, rank), tamper_engine(monkeypatch, owner, name)
    rank = () if system[1] is None else ("--rank", str(system[1]))
    code, out, err = run(capsys, command, "--type", system[0], *rank, "--full",
                         "--engine", engine, "--cache-dir", str(tmp_path))
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1 and err.startswith("inconsistent result: ")
    assert not any(tmp_path.iterdir())


def test_every_result_passes_the_one_certificate_once(capsys, monkeypatch, tmp_path):
    real, calls = specialize.certify_coboundary, []

    def spy(ideal, cb, rank):
        calls.append(ideal)
        return real(ideal, cb, rank)

    monkeypatch.setattr(specialize, "certify_coboundary", spy)
    ideal = exceptional_ideal("G2", IDEAL_G)
    for command in (specialize.tutte_of_ideal, specialize.coboundary_of_ideal,
                    specialize.characteristic_polynomial):
        calls.clear()
        command(ideal)
        assert calls == [ideal], command
    args = ("tutte", "--type", "G2", "--roots", json.dumps(IDEAL_G), "--format", "json",
            "--cache-dir", str(tmp_path))
    for cache in ("miss", "hit"):
        calls.clear()
        code, out, _ = run(capsys, *args)
        assert code == 0 and json.loads(out)["provenance"]["cache"] == cache
        assert calls == [ideal], cache


def test_coboundary_hit_transforms_its_entry_once(capsys, monkeypatch, tmp_path):
    # the chi-bar printed on a hit is the one its certificate checked
    real, calls = tutte_to_coboundary, []

    def spy(tutte, rank):
        calls.append(rank)
        return real(tutte, rank)

    for module in [m for n, m in sys.modules.items() if n.startswith("idealtutte.")]:
        if getattr(module, "tutte_to_coboundary", None) is real:
            monkeypatch.setattr(module, "tutte_to_coboundary", spy)
    for family, roots in (("G2", IDEAL_G), ("E6", IDEAL_E)):
        args = ("--type", family, "--roots", json.dumps(roots), "--format", "json")
        assert run(capsys, "tutte", *args, "--cache-dir", str(tmp_path))[0] == 0
        _, want, _ = run(capsys, "coboundary", *args, "--no-cache")
        calls.clear()
        code, out, _ = run(capsys, "coboundary", *args, "--cache-dir", str(tmp_path))
        assert code == 0 and json.loads(out)["provenance"]["cache"] == "hit"
        assert json.loads(out)["terms"] == json.loads(want)["terms"]
        assert len(calls) == 1, family


def test_latex_output_wellformed(capsys, tmp_path):
    code, out, _ = run(
        capsys, "tutte", "--type", "C", "--rank", "6",
        "--boxes", "[[1,4],[2,-6],[4,0]]", "--format", "latex",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert latex_is_wellformed(out.strip())


def test_cache_determinism(capsys, tmp_path):
    args = (
        "tutte", "--type", "D", "--rank", "6", "--boxes", "[[1,3],[2,6],[4,-5]]",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    code1, out1, _ = run(capsys, *args)
    cached = list(tmp_path.glob("*.json"))
    assert code1 == 0 and len(cached) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert json.loads(out1)["terms"] == json.loads(out2)["terms"]


def test_cache_entry_bytes_are_the_c_encoder_output(capsys, tmp_path):
    code, _, _ = run(capsys, "tutte", "--type", "D", "--rank", "4", "--boxes", "[[1,3]]",
                     "--format", "json", "--cache-dir", str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    stored = path.read_text()
    assert code == 0 and stored == json.dumps(json.loads(stored), sort_keys=True)


def test_json_output_is_one_compact_line(capsys, tmp_path):
    # the C encoder's output: no indent, sorted keys, one line per result
    for command in ("tutte", "coboundary"):
        code, out, _ = run(capsys, command, "--type", "D", "--rank", "4", "--boxes", "[[1,3]]",
                           "--format", "json", "--cache-dir", str(tmp_path))
        assert code == 0 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["tutte", "coboundary"])
def test_a_miss_encodes_the_polynomial_once(capsys, monkeypatch, tmp_path, command):
    # the cache entry is written from the polynomial itself, so only the
    # printed body goes through to_json_dict
    to_json_dict, calls = BivariatePolynomial.to_json_dict, []
    monkeypatch.setattr(BivariatePolynomial, "to_json_dict",
                        lambda self: calls.append(self) or to_json_dict(self))
    code, out, _ = run(capsys, command, "--type", "B", "--rank", "4", "--boxes", "[[1,4]]",
                       "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["provenance"]["cache"] == "miss"
    assert len(calls) == 1 and len(list(tmp_path.glob("*.json"))) == 1


def test_cache_dir_under_a_regular_file_still_prints_the_result(capsys, tmp_path):
    args = ("tutte", "--type", "B", "--rank", "3", "--full")
    code, want, _ = run(capsys, *args, "--no-cache")
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, got, err = run(capsys, *args, "--cache-dir", str(blocker / "cache"))
    assert code == 0 and got == want
    assert err.startswith("warning: result not cached") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_cache_dir_from_the_environment(capsys, tmp_path, monkeypatch):
    # $TUTTE_CACHE_DIR holds the entries when no --cache-dir is given, and
    # --cache-dir wins over it; HOME is isolated so that no run can reach
    # the default ~/.cache/idealtutte
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("TUTTE_CACHE_DIR", str(tmp_path / "env"))
    args = ("tutte", "--type", "G2", "--roots", "[[3,1],[3,2]]")
    code, want, _ = run(capsys, *args, "--cache-dir", str(tmp_path / "flag"))
    assert code == 0 and len(list((tmp_path / "flag").glob("*.json"))) == 1
    assert not (tmp_path / "env").exists()
    assert run(capsys, *args) == (0, want, "")
    assert [p.name for p in (tmp_path / "env").iterdir()] == [
        p.name for p in (tmp_path / "flag").iterdir()
    ]
    assert not (tmp_path / "home").exists()


def test_cache_entry_that_cannot_be_replaced_leaves_no_temporary_file(capsys, tmp_path):
    args = ("tutte", "--type", "G2", "--roots", "[[3,1],[3,2]]")
    code, want, _ = run(capsys, *args, "--cache-dir", str(tmp_path / "first"))
    (entry,) = (tmp_path / "first").glob("*.json")
    # a directory where the entry belongs: the read is a miss, the replace fails
    cache = tmp_path / "second"
    (cache / entry.name).mkdir(parents=True)
    code, got, err = run(capsys, *args, "--cache-dir", str(cache))
    assert code == 0 and got == want and err.startswith("warning: result not cached")
    assert [p.name for p in cache.iterdir()] == [entry.name]


def _normalized(out):
    """stdout with the wall time, which differs from run to run, left out."""
    try:
        body = json.loads(out)
    except ValueError:
        return out
    body["provenance"].pop("wall_time_s")
    return body


def test_shared_parser_keeps_no_state_between_calls(capsys, tmp_path, monkeypatch):
    from idealtutte import cli

    g2 = ("--type", "G2", "--roots", "[[3,1],[3,2]]")
    sequence = [
        ("tutte", "--type", "B", "--rank", "3", "--full", "--format", "json"),
        ("tutte", "--type", "B", "--rank", "3", "--full", "--no-such-option"),
        ("coboundary", *g2, "--engine", "crapo", "--no-cache", "--format", "latex"),
        ("tutte", "--type", "B", "--rank", "3", "--full"),
        ("tutte", "--type", "B", "--rank", "3", "--full", "--boxes", "[[1,2]]"),
        ("charpoly", *g2),
    ]

    def outcomes(cache):
        seen = []
        for argv in sequence:
            if argv[0] != "charpoly" and "--no-cache" not in argv:
                argv = (*argv, "--cache-dir", str(cache))
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            seen.append((code, _normalized(out.out), out.err))
        return seen

    shared = outcomes(tmp_path / "shared")
    assert cli.build_parser() is cli.build_parser()
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = outcomes(tmp_path / "fresh")
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 0]
    assert shared == fresh
    # the json, latex and engine options of earlier calls do not carry over
    assert isinstance(shared[0][1], dict) and isinstance(shared[3][1], str)
    assert parse_polynomial(shared[3][1].strip()) == BivariatePolynomial.from_json_dict(
        shared[0][1])
    for argv in (sequence[0], sequence[2], sequence[3], sequence[5]):
        got = vars(cli.build_parser().parse_args(list(argv)))
        want = vars(cli.build_parser.__wrapped__().parse_args(list(argv)))
        assert got.pop("func").__code__ is want.pop("func").__code__ and got == want
    last = vars(cli.build_parser().parse_args(list(sequence[3])))
    assert last["format"] == "text" and last["engine"] == "auto" and not last["no_cache"]


def test_validation_error_exit_1(capsys):
    code, _, err = run(capsys, "tutte", "--type", "E8", "--rank", "8", "--full")
    assert code == 1
    # bad ideal: names the violating pair
    code, _, err = run(capsys, "tutte", "--type", "G2", "--roots", "[[1,0]]")
    assert code == 1 and "lacks" in err


def test_guard_refusal_exit_2(capsys):
    # the oracle's one guard is 2^24 subsets: E6's 35 complement roots are refused
    code, out, err = run(
        capsys, "tutte", "--type", "E6", "--roots", "[[1,2,2,3,2,1]]",
        "--engine", "oracle", "--no-cache",
    )
    assert code == 2 and not out and "guard" in err and "2^35" in err


def _never(*_):
    raise AssertionError("the guarded work was started")


def test_oracle_refuses_b5_full_at_once(capsys, monkeypatch):
    # B5 full has 25 hyperplanes: 2^25 subsets exceed the oracle's 2^24
    monkeypatch.setattr(crapo._Echelon, "snapshot", _never)  # no subset is walked
    code, out, err = run(
        capsys, "tutte", "--type", "B", "--rank", "5", "--full", "--engine", "oracle",
        "--no-cache",
    )
    assert code == 2 and not out and "2^25 subsets" in err


@pytest.mark.parametrize("budget, code", [(20, 2), (21, 0)])
def test_counting_kernel_guard_refuses_before_it_allocates(capsys, monkeypatch, budget, code):
    # B6 full is one block of 6 coordinates: one round expands C(8, 2) - 7 = 21 moves
    monkeypatch.setattr(ffmethod, "MAX_ROUND_MOVES", budget)
    if code:
        def refuse(*_):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr(CountingModel, "_split_table", refuse)
    got, _, err = run(capsys, "tutte", "--type", "B", "--rank", "6", "--full", "--no-cache")
    assert got == code
    assert not code or ("guard" in err and "21 moves" in err)


def test_ffmethod_rejects_exceptional(capsys):
    code, _, err = run(
        capsys, "tutte", "--type", "G2", "--roots", "[[3,1],[3,2]]",
        "--engine", "ffmethod", "--no-cache",
    )
    assert code == 1 and "exceptional" in err


def test_ideal_file_and_out_file(capsys, tmp_path):
    spec = {"type": "B", "rank": 6, "generating_boxes": [[1, 4], [2, 0], [4, -5]]}
    spec_path = tmp_path / "ideal.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "result.txt"
    code, _, _ = run(
        capsys, "coboundary", "--type", "B", "--ideal-file", str(spec_path),
        "--out", str(out_path), "--no-cache",
    )
    assert code == 0
    got = parse_polynomial(out_path.read_text(), ("q", "t"))
    assert got.evaluate(3, 1) == 3 ** 6


@pytest.mark.parametrize(
    "argv",
    [
        # no ideal input at all
        ("tutte", "--type", "B", "--rank", "6"),
        ("verify", "--type", "B", "--rank", "3"),
        ("tutte", "--type", "B", "--rank", "3", "--boxes", "[[1,2]]", "--roots", "[[1,1,1]]"),
        ("coboundary", "--type", "B", "--rank", "3", "--full", "--boxes", "[[1,2]]"),
        ("charpoly", "--type", "B", "--rank", "3", "--full", "--ideal-file", "spec.json"),
        ("verify", "--type", "B", "--rank", "3", "--all-ideals", "--boxes", "[[1,2]]"),
        ("verify", "--type", "B", "--rank", "3", "--all-ideals", "--full"),
    ],
)
def test_conflicting_or_missing_ideal_inputs_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and not out.out
    assert "not allowed with argument" in out.err or "is required" in out.err


@pytest.mark.parametrize(
    "system",
    [("--type", "A", "--rank", "3"), ("--type", "G2", "--rank", "3"), ("--type", "F4")],
)
def test_ideal_file_of_another_system_exit_1(capsys, tmp_path, system):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"type": "G2", "roots": [[3, 1], [3, 2]]}))
    code, out, err = run(capsys, "tutte", *system, "--ideal-file", str(path), "--no-cache")
    assert code == 1 and not out and "holds a G2 ideal" in err
    code, out, _ = run(capsys, "tutte", "--type", "g2", "--ideal-file", str(path), "--no-cache")
    assert code == 0 and parse_polynomial(out.strip()) == parse_polynomial("x^2 + y^2 + 2x + 2y")


# each rejected spec with the location its rejection names
REJECTED_SPECS = [
    ({"type": "B", "rank": 6, "extra": 1}, "$"),
    ({"type": "Z"}, "$.type"),
    ({"type": "B", "rank": 0, "generating_boxes": [[1, 2]]}, "$.rank"),
    ({"type": "B", "rank": 3, "generating_boxes": [[1, 2, 3]]}, "$.generating_boxes[0]"),
    ({"type": "G2", "roots": [[-1, 0]]}, "$.roots[0][0]"),
    ({"rank": 3, "generating_boxes": [[1, 2]]}, "$"),
    ([1, 2], "$"),
]


@pytest.mark.parametrize(
    "spec, where", REJECTED_SPECS, ids=[f"spec{i}" for i in range(len(REJECTED_SPECS))]
)
def test_ideal_specs_are_checked_against_the_schema(capsys, tmp_path, spec, where):
    with pytest.raises(ConstraintError, match=f"rejected by schema: {re.escape(where)}: "):
        parse_ideal_spec(spec)
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "tutte", "--type", "B", "--ideal-file", str(path), "--no-cache")
    assert code == 1 and not out and "rejected by schema" in err


@pytest.mark.parametrize("name", ["ideal-spec.schema.json", "polynomial.schema.json"])
def test_packaged_schemas_are_valid_draft7(name):
    jsonschema.Draft7Validator.check_schema(packaged_schema(name))


# the cache entry's format, which the cache reader checks itself
ENTRY_SCHEMA = {"type": "array", "items": {
    "type": "array", "minItems": 3, "maxItems": 3, "items": {"type": "integer"}}}


def test_emitted_json_follows_polynomial_schema_and_entries_are_triples(capsys, tmp_path):
    validator = jsonschema.Draft7Validator(packaged_schema("polynomial.schema.json"))
    assert not validator.is_valid({"variables": ["x", "y"], "terms": [{"dx": 0, "dy": 0, "c": 1}]})
    b3 = ("--type", "B", "--rank", "3", "--full")
    runs = [(b3, "auto"), (("--type", "G2", "--roots", "[[3,1],[3,2]]"), "auto")]
    runs += [(b3, engine) for engine in ("ffmethod", "flats", "crapo", "oracle")]
    tuttes = {}
    for command in ("tutte", "coboundary"):
        for system, engine in runs:
            code, out, _ = run(capsys, command, *system, "--engine", engine, "--format", "json",
                               "--cache-dir", str(tmp_path))
            assert code == 0
            doc = json.loads(out)
            validator.validate(doc)
            # read back as the polynomial it printed
            poly = BivariatePolynomial.from_json_dict(doc)
            assert poly.to_json_dict() == {key: doc[key] for key in ("terms", "variables")}
            if command == "tutte":
                tuttes[system, doc["provenance"]["engine"]] = _triples(poly)
    # one entry per ideal and engine (auto runs flats on B3), shared by tutte
    # and coboundary: the Tutte polynomial's triples
    entries = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
    for entry in entries:
        jsonschema.validate(entry, ENTRY_SCHEMA)
    assert sorted(entries) == sorted(tuttes.values())


def test_charpoly_command(capsys, tmp_path):
    code, out, _ = run(
        capsys, "charpoly", "--type", "G2", "--roots", "[[3,1],[3,2]]",
    )
    assert code == 0
    assert out.strip() == "q^3 - 4q^2 + 3q"


@pytest.mark.parametrize("argv", [
    ("charpoly",),
    ("tutte", "--no-cache"),
    ("coboundary", "--no-cache", "--format", "latex"),
])
def test_out_writes_exactly_what_stdout_prints(capsys, tmp_path, argv):
    args = (*argv, "--type", "G2", "--roots", "[[3,1],[3,2]]")
    code, printed, _ = run(capsys, *args)
    assert code == 0 and printed.strip()
    path = tmp_path / "result.txt"
    code, out, err = run(capsys, *args, "--out", str(path))
    assert code == 0 and not out and not err
    assert path.read_text() == printed


@pytest.mark.parametrize(
    "argv",
    [
        ("tutte", "--engine", "crapo", "--no-cache"),
        ("coboundary", "--engine", "crapo", "--no-cache"),
        ("charpoly", "--engine", "crapo"),
        ("verify",),
    ],
)
def test_max_subsets_guard_on_every_polynomial_command(capsys, monkeypatch, argv):
    # C(45, 9) = 886163135 basis candidates of A9 full exceed crapo's 10^8
    # before any basis is sought
    monkeypatch.setattr(crapo, "_exchange_tally", _never)
    code, out, err = run(capsys, *argv, "--type", "A", "--rank", "9", "--full")
    assert code == 2 and not out and "C(45,9) = 886163135" in err
    assert f"guard {crapo.DEFAULT_MAX_BASIS_SUBSETS}" in err


@pytest.mark.parametrize(
    "engines", [(), ("--engines", "auto,crapo"), ("--engines", "ffmethod,oracle")]
)
def test_verify_runs_guarded_engines_first(capsys, monkeypatch, engines):
    # crapo (C(45,9) candidates) and oracle (2^45 subsets) refuse A9 full
    # before the counting DP, named first, is reached
    monkeypatch.setattr(CountingModel, "residue_profile", _never)
    code, out, err = run(capsys, "verify", "--type", "A", "--rank", "9", "--full", *engines)
    assert code == 2 and not out and "guard" in err


def test_verify_compares_against_the_first_engine_named(capsys, monkeypatch):
    # the first engine named is the reference even when another runs first
    real = specialize.tutte_of_ideal

    def skewed(ideal, engine="auto"):
        poly = real(ideal, engine=engine)
        return poly_sum(poly, BivariatePolynomial.one()) if engine == "ffmethod" else poly

    monkeypatch.setattr(specialize, "tutte_of_ideal", skewed)
    code, _, err = run(capsys, "verify", "--type", "B", "--rank", "3", "--full",
                       "--engines", "ffmethod,crapo")
    assert code == 3 and "ffmethod and crapo disagree" in err


def test_max_subsets_guard_leaves_auto_on_exceptional_types(capsys, monkeypatch):
    # auto reads F4 off its lattice of flats: no bases, so nothing to refuse
    monkeypatch.setattr(crapo, "tutte_crapo", _never)
    code, out, _ = run(capsys, "charpoly", "--type", "F4", "--full")
    assert code == 0 and out.strip() == "q^4 - 24q^3 + 190q^2 - 552q + 385"


def test_flats_engine_refuses_a_system_past_its_guard(capsys):
    # flats is accepted on any system; B7's 49 roots are past MAX_VECTORS
    code, out, err = run(
        capsys, "tutte", "--type", "B", "--rank", "7", "--full", "--engine", "flats",
        "--no-cache",
    )
    assert code == 2 and not out
    assert err.strip() == "guard refused: flats of 49 roots need at most 39"


def test_verify_f4_all_ideals_against_crapo(capsys):
    # auto, crapo is verify's default pair
    code, out, _ = run(capsys, "verify", "--type", "F4", "--all-ideals")
    assert code == 0
    assert out.strip() == "verified 105 ideal(s) of F4 across engines auto, crapo"


def test_json_provenance_names_the_flats_engine(capsys, tmp_path):
    code, out, _ = run(
        capsys, "tutte", "--type", "E6", "--roots", json.dumps([list(c) for c in IDEAL_E]),
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == 0 and json.loads(out)["provenance"]["engine"] == "flats"


@pytest.mark.parametrize(
    "entry",
    [
        '{"polynomial": {"terms": [',  # truncated
        "\udcff",  # not UTF-8
        '{"x": 1}',
        "[1, 2]",
        '{"terms": 3, "variables": ["x", "y"]}',
        # the layout of an older release, a polynomial beside a stored provenance
        '{"polynomial": {"terms": [], "variables": ["x", "y"]}, "provenance": [1]}',
        '{"terms": [], "variables": ["x"]}',
        # the ideal's coboundary polynomial, which the cache no longer stores
        '{"terms": [{"dx": 0, "dy": 0, "c": "3"}, {"dx": 0, "dy": 1, "c": "-4"},'
        ' {"dx": 1, "dy": 0, "c": "-4"}, {"dx": 1, "dy": 1, "c": "4"},'
        ' {"dx": 2, "dy": 0, "c": "1"}, {"dx": 0, "dy": 4, "c": "1"}], "variables": ["q", "t"]}',
        '{"terms": [{"dx": -1, "dy": 0, "c": "1"}], "variables": ["x", "y"]}',
        '{"terms": [{"dx": 1.5, "dy": 0, "c": "1"}], "variables": ["x", "y"]}',
        '{"terms": [{"dx": 1, "dy": 0, "c": "one"}], "variables": ["x", "y"]}',
        # nested past the JSON parser's recursion limit
        pytest.param("[" * 200000, id="deeply-nested"),
        # the true T of the G2 ideal, 2y + 2x + y^2 + x^2, in the format of
        # an older release, then in triples that break the format
        pytest.param('{"terms": [{"dx": 0, "dy": 1, "c": "2"}, {"dx": 0, "dy": 2, "c": "1"},'
                     ' {"dx": 1, "dy": 0, "c": "2"}, {"dx": 2, "dy": 0, "c": "1"}],'
                     ' "variables": ["x", "y"]}', id="v3-document"),
        pytest.param("[[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, true]]", id="bool"),
        pytest.param("[[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1.0]]", id="float"),
        pytest.param('[[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, "1"]]', id="string"),
        pytest.param("[[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1], [0, -1, 1]]",
                     id="negative-degree"),
        pytest.param("[[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1], [1, 1, 0]]",
                     id="zero-coefficient"),
        pytest.param("[[0, 1, 2], [0, 2, 1], [1, 0, 1], [1, 0, 1], [2, 0, 1]]",
                     id="repeated-degree"),
        pytest.param("[[0, 1], [0, 2], [1, 0], [2, 0]]", id="pair"),
        pytest.param("17", id="number"),
    ],
)
def test_bad_cache_entry_is_a_miss(capsys, monkeypatch, tmp_path, entry):
    args = ("tutte", "--type", "G2", "--roots", "[[3,1],[3,2]]", "--cache-dir", str(tmp_path))
    code, want, _ = run(capsys, *args)
    (path,) = tmp_path.glob("*.json")
    good = path.read_text()
    path.write_text(entry, errors="surrogateescape")
    # the reader's format check refuses it before the certificate
    monkeypatch.setattr(specialize, "certify_tutte", _never)
    code, got, err = run(capsys, *args)
    assert code == 0 and got == want and not err
    # recomputed and overwritten with a good entry
    assert path.read_text() == good


def _entry(terms):
    return json.dumps([list(t) for t in terms])


G2_TUTTE = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1)]  # 2y + 2x + y^2 + x^2


@pytest.mark.parametrize(
    "entry",
    [
        _entry([(0, 0, 1)]),  # 1: T(2,2) is not 2^4
        _entry([(1, 0, 8)]),  # 8x: T(2,2) = 2^4 within the degree bounds, x^1 column 8
        # T(2,2) = 2^4, the degree bounds and an x^2 column of 1, but
        # chi = q (q^2 - 2q + 13) does not split over the exponents 3, 1
        _entry([(2, 0, 1), (0, 0, 12)]),
        # x^2 + 2x + 4y: T(2,2) = 2^4, the degree bounds and the same chi as
        # the true T, but t_10 = 2 and t_01 = 4 (Brylawski)
        _entry([(2, 0, 1), (1, 0, 2), (0, 1, 4)]),
        # x^2 + 2x + 2y + xy: T(2,2) = 2^4, t_10 = t_01, the degree bounds
        # and the same chi as the true T, but not y^m on the hyperbola
        _entry([(2, 0, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1)]),
        "OTHER",  # a valid entry of another ideal, G2's full arrangement
        # degrees refused before any work of their size
        _entry([(10 ** 12, 0, 1)]),
        _entry([(2, 0, 1), (0, 10 ** 12, 1)]),
    ],
    ids=["one", "8x", "x2-plus-12", "x-y-coefficients", "xy-for-y2", "other-ideal",
         "huge-x-degree", "huge-y-degree"],
)
def test_cache_entry_failing_the_certificate_is_recomputed(capsys, monkeypatch, tmp_path, entry):
    certify, raised = specialize.certify_tutte, []

    def spy(ideal, tutte):
        try:
            return certify(ideal, tutte)
        except InconsistencyError:
            raised.append(tutte)
            raise

    g2 = ("tutte", "--type", "G2")
    assert run(capsys, *g2, "--full", "--cache-dir", str(tmp_path / "other"))[0] == 0
    (other,) = (tmp_path / "other").iterdir()
    args = (*g2, "--roots", "[[3,1],[3,2]]")
    code, want, _ = run(capsys, *args, "--no-cache")
    assert code == 0 and parse_polynomial(want.strip()) == parse_polynomial("2y + 2x + y^2 + x^2")
    cache = tmp_path / "cache"
    assert run(capsys, *args, "--cache-dir", str(cache)) == (0, want, "")
    (path,) = cache.iterdir()
    good = path.read_text()
    assert json.loads(good) == _triples(parse_polynomial(want.strip()))
    written = other.read_text() if entry == "OTHER" else entry
    path.write_text(written)
    # the entry passes the reader's format check and fails the certificate
    monkeypatch.setattr(specialize, "certify_tutte", spy)
    code, got, err = run(capsys, *args, "--cache-dir", str(cache))
    assert code == 0 and got == want and not err
    assert [_triples(t) for t in raised] == [sorted(json.loads(written))]
    assert path.read_text() == good


@pytest.mark.parametrize(
    "spec",
    [("--type", "b", "--rank", "3", "--roots", "[[1,2,2]]"),
     ("--type", "g2", "--roots", "[[3,1],[3,2]]"),
     ("--type", "c", "--rank", "4", "--boxes", "[[1,4],[2,-3]]")],
)
def test_lowercase_type_with_roots_or_boxes(capsys, spec):
    code, got, err = run(capsys, "tutte", *spec, "--no-cache")
    upper = (spec[0], spec[1].upper(), *spec[2:])
    assert code == 0 and not err
    assert run(capsys, "tutte", *upper, "--no-cache") == (0, got, "")


CACHE_OPTIONS = [("--no-cache",), ("--cache-dir", "somewhere")]
COMPUTE_OPTIONS = [("--primes", "[3]"), ("--max-points", "10"), ("--max-subsets", "10"),
                   ("--out", "somewhere"), *CACHE_OPTIONS]


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c in ("roots", "ideals", "minors") for o in COMPUTE_OPTIONS]
    + [(c, o) for c in ("charpoly", "verify") for o in CACHE_OPTIONS]
    # chi-bar comes from one dynamic program; there is no prime route to select
    + [(c, ("--primes", "[3]")) for c in ("tutte", "coboundary", "charpoly", "verify")]
    # only tutte and coboundary have a LaTeX rendering
    + [(c, ("--format", "latex")) for c in ("roots", "ideals", "minors")]
    # each engine's guard is its own constant: no command overrides one
    + [(c, o) for c in ("tutte", "coboundary", "charpoly", "verify")
       for o in (("--max-subsets", "10"), ("--max-points", "10"))],
)
def test_commands_refuse_options_they_do_not_read(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "G2", *option])
    assert exc.value.code == 2
    capsys.readouterr()


def _cli_process(argv, stdout):
    return subprocess.Popen(
        [sys.executable, "-m", "idealtutte.cli", *argv],
        env=src_env(), stdout=stdout, stderr=subprocess.PIPE,
    )


def test_listing_piped_into_a_reader_that_stops_after_one_line():
    # the 1430 A7 ideals print about 580 kB, more than a pipe holds, so the
    # writer is still printing when the reader goes away
    proc = _cli_process(
        ["ideals", "--type", "A", "--rank", "7", "--format", "text"], subprocess.PIPE
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert first.strip() and err == b""


def test_short_listing_into_a_closed_pipe():
    # the A4 listing fits the stdout buffer, so the closed pipe shows only
    # when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli_process(["ideals", "--type", "A", "--rank", "4", "--format", "text"], write_end)
    os.close(write_end)
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("tutte", "--type", "B", "--rank", "3", "--ideal-file", "{tmp}/missing/ideal.json", "--no-cache"),
    ("tutte", "--type", "B", "--rank", "3", "--ideal-file", "{tmp}/latin1.json", "--no-cache"),
    ("tutte", "--type", "B", "--rank", "3", "--full", "--out", "{tmp}/missing/t.txt", "--no-cache"),
    ("charpoly", "--type", "B", "--rank", "3", "--full", "--out", "{tmp}/missing/chi.txt"),
    # the last three nested past the JSON parser's recursion limit
    ("tutte", "--type", "G2", "--ideal-file", "{tmp}/deep.json", "--no-cache"),
    ("tutte", "--type", "G2", "--roots", "[" * 3000, "--no-cache"),
    ("tutte", "--type", "B", "--rank", "3", "--boxes", "[" * 3000, "--no-cache"),
])
def test_unreadable_ideal_file_or_unwritable_out_exits_1(tmp_path, argv):
    (tmp_path / "latin1.json").write_bytes('{"type": "B", "roots": "\xe9"}'.encode("latin-1"))
    (tmp_path / "deep.json").write_text("[" * 100000)
    proc = _cli_process([a.format(tmp=tmp_path) for a in argv], subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and out == b""
    assert "Traceback" not in err.decode()
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _one_shot(args):
    """The standard output of ``cli.main(args)`` in a fresh interpreter, which
    must load none of jsonschema, numpy and the paper's reference route, and
    open no file under ``idealtutte/schemas/``: the checks of the JSON a
    request reads are written out in the code, not read from the schemas."""
    code = (
        "import os, sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, a: event == 'open' and opened.append(str(a[0])))\n"
        "from idealtutte import cli\n"
        f"assert cli.main({args!r}) == 0\n"
        "loaded = {'jsonschema', 'numpy', 'idealtutte.paper'} & sys.modules.keys()\n"
        "assert not loaded, loaded\n"
        "schemas = os.path.join('idealtutte', 'schemas', '')\n"
        "assert not [path for path in opened if schemas in path], opened\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), check=True, capture_output=True,
        text=True,
    )
    return done.stdout


def test_one_shot_request_imports_neither_jsonschema_nor_numpy(tmp_path):
    # one fresh interpreter per request: computed without the cache, computed
    # into the cache, and read back from it
    argv = ["tutte", "--type", "B", "--rank", "4", "--roots", "[[1,2,2,2]]", "--format", "json"]
    cached = [*argv, "--cache-dir", str(tmp_path)]
    for args, cache in ((argv + ["--no-cache"], "miss"), (cached, "miss"), (cached, "hit")):
        assert json.loads(_one_shot(args))["provenance"]["cache"] == cache


@pytest.mark.parametrize(
    "family, roots",
    [("G2", [[3, 1], [3, 2]]), ("F4", [[2, 3, 4, 2]]), ("E6", [list(c) for c in IDEAL_E])],
)
def test_one_shot_exceptional_request_imports_no_numpy(tmp_path, family, roots):
    # the lattice of flats builds and restricts on Python ints; charpoly has
    # no cache, and tutte also writes the cache and reads it back
    spec = ["--type", family, "--roots", json.dumps(roots)]
    for command in ("tutte", "coboundary"):
        out = _one_shot([command, *spec, "--format", "json", "--no-cache"])
        assert json.loads(out)["provenance"]["cache"] == "miss"
    assert _one_shot(["charpoly", *spec]).strip()
    cached = ["tutte", *spec, "--format", "json", "--cache-dir", str(tmp_path)]
    for cache in ("miss", "hit"):
        assert json.loads(_one_shot(cached))["provenance"]["cache"] == cache
