import json
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

from conftest import IDEAL_E, packaged_schema
from idealtutte import crapo
from idealtutte.cli import main, parse_ideal_spec
from idealtutte.errors import ConstraintError
from idealtutte.exactpoly import BivariatePolynomial, latex_is_wellformed, parse_polynomial
from idealtutte.ffmethod import CountingModel
from idealtutte.ideals import arrangement_of


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_json_round_trip_and_provenance(capsys, tmp_path):
    code, out, _ = run(
        capsys, "tutte", "--type", "B", "--rank", "2", "--full",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    poly = BivariatePolynomial.from_json_dict(data)
    assert poly.evaluate(2, 2) == 2 ** 4
    assert data["provenance"]["engine"] == "ffmethod"
    assert set(data["provenance"]) == {"cache", "engine", "system", "hyperplanes", "wall_time_s"}
    assert data["provenance"]["cache"] == "miss"


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
    # the hit replays the stored provenance; the entry itself never records a hit or miss
    assert {k: v for k, v in second["provenance"].items() if k != "cache"} == json.loads(
        stored)["provenance"]
    assert path.read_bytes() == stored and "cache" not in json.loads(stored)["provenance"]
    code3, out3, _ = run(capsys, *args[:-2], "--no-cache")
    assert code3 == 0 and json.loads(out3)["provenance"]["cache"] == "miss"


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


def test_verify_checks_direct_against_interpolation(capsys, monkeypatch):
    # the direct chi-bar at rank+1 odd q against the counting model there:
    # the interpolation check, pointwise
    args = ("verify", "--type", "B", "--rank", "3", "--all-ideals")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "+20 direct-vs-evaluation checks" in out
    from idealtutte import ffmethod

    real = ffmethod.coboundary_polynomial

    def tampered(ideal):
        # adding (t-1)^rank (q-1) keeps chi-bar(q, 1) and survives the
        # Tutte transform, so both engine runs agree on the wrong answer
        rank = arrangement_of(ideal).rank
        t_minus_1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1}, ("q", "t"))
        q_minus_1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1}, ("q", "t"))
        extra = q_minus_1
        for _ in range(rank):
            extra = extra * t_minus_1
        return real(ideal) + extra

    monkeypatch.setattr(ffmethod, "coboundary_polynomial", tampered)
    code, _, err = run(capsys, *args, "--engines", "ffmethod,ffmethod")
    assert code == 3 and "counting model disagree at q=3" in err


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


def test_cache_dir_under_a_regular_file_still_prints_the_result(capsys, tmp_path):
    args = ("tutte", "--type", "B", "--rank", "3", "--full")
    code, want, _ = run(capsys, *args, "--no-cache")
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, got, err = run(capsys, *args, "--cache-dir", str(blocker / "cache"))
    assert code == 0 and got == want
    assert err.startswith("warning: result not cached") and err.count("\n") == 1
    assert blocker.read_text() == ""


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
    code, _, err = run(
        capsys, "tutte", "--type", "E6", "--roots", "[[1,2,2,3,2,1]]",
        "--engine", "oracle", "--max-subsets", "1024", "--no-cache",
    )
    assert code == 2 and "guard" in err


@pytest.mark.parametrize("budget, code", [(20, 2), (21, 0)])
def test_counting_kernel_guard_refuses_before_it_allocates(capsys, monkeypatch, budget, code):
    # B6 full is one block of 6 coordinates: C(8, 2) - 7 = 21 cached moves
    monkeypatch.setattr(crapo, "MAX_KERNEL_BYTES", 180 * budget)
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


def test_parse_ideal_spec_schema_rejects_junk():
    with pytest.raises(ConstraintError, match="rejected by schema"):
        parse_ideal_spec({"type": "B", "rank": 6, "extra": 1})
    with pytest.raises(ConstraintError, match="rejected by schema"):
        parse_ideal_spec({"type": "Z"})


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


def test_emitted_json_and_cache_entries_follow_polynomial_schema(capsys, tmp_path):
    validator = jsonschema.Draft7Validator(packaged_schema("polynomial.schema.json"))
    assert not validator.is_valid({"variables": ["x", "y"], "terms": [{"dx": 0, "dy": 0, "c": 1}]})
    systems = (("--type", "B", "--rank", "3", "--full"), ("--type", "G2", "--roots", "[[3,1],[3,2]]"))
    for command in ("tutte", "coboundary"):
        for system in systems:
            code, out, _ = run(
                capsys, command, *system, "--format", "json", "--cache-dir", str(tmp_path)
            )
            assert code == 0
            validator.validate(json.loads(out))
    entries = sorted(tmp_path.glob("*.json"))
    assert len(entries) == 4
    for path in entries:
        validator.validate(json.loads(path.read_text())["polynomial"])


def test_charpoly_command(capsys, tmp_path):
    code, out, _ = run(
        capsys, "charpoly", "--type", "G2", "--roots", "[[3,1],[3,2]]",
    )
    assert code == 0
    assert out.strip() == "q^3 - 4q^2 + 3q"


@pytest.mark.parametrize(
    "argv",
    [
        ("tutte", "--engine", "crapo", "--no-cache"),
        ("coboundary", "--engine", "crapo", "--no-cache"),
        ("charpoly", "--engine", "crapo"),
        ("verify", "--engines", "crapo,oracle"),
    ],
)
def test_max_subsets_guard_on_every_polynomial_command(capsys, argv):
    # C(24, 4) = 10626 basis candidates exceed the guard of 100 before any work
    code, out, err = run(capsys, *argv, "--type", "F4", "--full", "--max-subsets", "100")
    assert code == 2 and not out and "10626" in err


def test_max_subsets_guard_leaves_auto_on_exceptional_types(capsys):
    # auto reads F4 off its lattice of flats: no bases, so nothing to refuse
    code, out, _ = run(
        capsys, "charpoly", "--type", "F4", "--full", "--max-subsets", "100"
    )
    assert code == 0 and out.strip() == "q^4 - 24q^3 + 190q^2 - 552q + 385"


def test_flats_engine_rejects_classical_types(capsys):
    code, out, err = run(
        capsys, "tutte", "--type", "B", "--rank", "3", "--full", "--engine", "flats",
        "--no-cache",
    )
    assert code == 1 and not out and "flats rejects classical type B" in err


def test_verify_f4_all_ideals_against_crapo(capsys):
    code, out, _ = run(capsys, "verify", "--type", "F4", "--all-ideals", "--engines", "auto,crapo")
    assert code == 0
    assert out.strip() == "verified 105 ideal(s) of F4 across engines auto, crapo"


def test_json_provenance_names_the_flats_engine(capsys, tmp_path):
    code, out, _ = run(
        capsys, "tutte", "--type", "E6", "--roots", json.dumps([list(c) for c in IDEAL_E]),
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == 0 and json.loads(out)["provenance"]["engine"] == "flats"


@pytest.mark.parametrize(
    "argv",
    [
        ("tutte", "--engine", "oracle", "--no-cache"),
        ("coboundary", "--engine", "oracle", "--no-cache"),
        ("charpoly", "--engine", "oracle"),
        ("verify", "--engines", "crapo,oracle"),
    ],
)
def test_default_max_subsets_admits_26_oracle_elements(capsys, monkeypatch, argv):
    # the default guard of 10^8 subsets holds the oracle to 2^26
    from idealtutte import crapo

    seen = []
    real = crapo.tutte_corank_nullity

    def spy(cfg, max_subsets):
        seen.append(max_subsets)
        return real(cfg, max_subsets=max_subsets)

    monkeypatch.setattr(crapo, "tutte_corank_nullity", spy)
    code, _, _ = run(capsys, *argv, "--type", "G2", "--roots", "[[3,1],[3,2]]")
    # passed straight through: 2^26 <= 10^8 < 2^27
    assert code == 0 and seen == [10 ** 8]


@pytest.mark.parametrize(
    "entry",
    [
        '{"polynomial": {"terms": [',  # truncated
        "\udcff",  # not UTF-8
        '{"x": 1}',
        "[1, 2]",
        '{"polynomial": {"terms": 3, "variables": ["x", "y"]}, "provenance": {}}',
        '{"polynomial": {"terms": [], "variables": ["x", "y"]}, "provenance": [1]}',
        '{"polynomial": {"terms": [], "variables": ["x"]}, "provenance": {}}',
        '{"polynomial": {"terms": [], "variables": ["q", "t"]}, "provenance": {}}',
        '{"polynomial": {"terms": [{"dx": -1, "dy": 0, "c": "1"}], "variables": ["x", "y"]},'
        ' "provenance": {}}',
        '{"polynomial": {"terms": [{"dx": 1.5, "dy": 0, "c": "1"}], "variables": ["x", "y"]},'
        ' "provenance": {}}',
        '{"polynomial": {"terms": [{"dx": 1, "dy": 0, "c": "one"}], "variables": ["x", "y"]},'
        ' "provenance": {}}',
    ],
)
def test_bad_cache_entry_is_a_miss(capsys, tmp_path, entry):
    args = ("tutte", "--type", "G2", "--roots", "[[3,1],[3,2]]", "--cache-dir", str(tmp_path))
    code, want, _ = run(capsys, *args)
    (path,) = tmp_path.glob("*.json")
    good = path.read_text()
    path.write_text(entry, errors="surrogateescape")
    code, got, err = run(capsys, *args)
    assert code == 0 and got == want and not err
    # recomputed and overwritten with a good entry
    assert json.loads(path.read_text())["polynomial"] == json.loads(good)["polynomial"]


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
    + [(c, ("--format", "latex")) for c in ("roots", "ideals", "minors")],
)
def test_commands_refuse_options_they_do_not_read(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "G2", *option])
    assert exc.value.code == 2
    capsys.readouterr()


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _src_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cli_process(argv, stdout):
    return subprocess.Popen(
        [sys.executable, "-m", "idealtutte.cli", *argv],
        env=_src_env(), stdout=stdout, stderr=subprocess.PIPE,
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
])
def test_unreadable_ideal_file_or_unwritable_out_exits_1(tmp_path, argv):
    (tmp_path / "latin1.json").write_bytes('{"type": "B", "roots": "\xe9"}'.encode("latin-1"))
    proc = _cli_process([a.format(tmp=tmp_path) for a in argv], subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and out == b""
    assert "Traceback" not in err.decode()
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_one_shot_request_imports_neither_jsonschema_nor_numpy():
    code = (
        "import sys\n"
        "from idealtutte import cli\n"
        "argv = ['tutte', '--type', 'B', '--rank', '4', '--roots', '[[1,2,2,2]]', '--no-cache']\n"
        "assert cli.main(argv) == 0\n"
        "loaded = {'jsonschema', 'numpy', 'idealtutte.paper'} & sys.modules.keys()\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), check=True, stdout=subprocess.DEVNULL
    )
