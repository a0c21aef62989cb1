"""Command-line surface: parse ideal specs, run polynomial pipelines, select
engines, verify engine pairs, emit JSON/LaTeX/text, and cache results.

The argument parser is built on the first ``main`` call and reused by every
later one in the process (``build_parser``); the polynomial commands report
in their JSON provenance whether the result came from the cache, and a cache
that cannot be written costs only a warning on stderr.  Ideal specs are
checked against the packaged ``schemas/ideal-spec.schema.json`` by a
plain-Python check compiled from it once per process (``schemacheck``);
jsonschema is not imported.

Exit codes: 0 success, 1 validation error (or an ``--ideal-file`` that
cannot be read, or an ``--out`` file that cannot be written), 2 guard refusal
or usage error (argparse: an unknown option, or not exactly one ideal input),
3 verification mismatch, 141 (128 + SIGPIPE) standard output closed early by
its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import tempfile
import time

from . import __version__, crapo, ffmethod, specialize
from .errors import (
    ConstraintError,
    GuardExceeded,
    IdealTutteError,
    UnsupportedTypeError,
    VerificationMismatch,
)
from .exactpoly import BivariatePolynomial, UnivariatePolynomial
from .ideals import (
    complement,
    enumerate_ideals,
    ideal_from_boxes,
    ideal_from_mask,
    ideal_from_root_coords,
    iter_ideals,
)
from .rootsystems import (
    hyperplane_tuple,
    linear_order_key,
    root_poset,
    root_system_type,
)
from .schemacheck import packaged_check

FORMAT_CHOICES = ("json", "latex", "text")
LISTING_FORMATS = ("json", "text")  # roots, ideals and minors print no LaTeX
CACHE_ENV = "TUTTE_CACHE_DIR"
CACHE_VERSION = "2"


def parse_ideal_spec(data):
    """Turn an ideal-spec dict, validated against schemas/ideal-spec.schema.json,
    into an Ideal."""
    failure = packaged_check("ideal-spec.schema.json")(data)
    if failure is not None:
        raise ConstraintError(f"ideal spec rejected by schema: {failure}")
    rst = root_system_type(data["type"], data.get("rank"))
    poset = root_poset(rst)
    has_boxes = "generating_boxes" in data
    has_roots = "roots" in data
    if has_boxes and has_roots:
        raise ConstraintError("give either generating_boxes or roots, not both")
    if has_boxes:
        return ideal_from_boxes(poset, [tuple(b) for b in data["generating_boxes"]])
    if has_roots:
        return ideal_from_root_coords(poset, [tuple(r) for r in data["roots"]])
    raise ConstraintError("ideal spec needs generating_boxes or roots")


def _ideal_from_args(args):
    """The ideal named by the one ideal input the parser admitted."""
    if args.ideal_file is not None:
        with open(args.ideal_file) as fh:
            ideal = parse_ideal_spec(json.load(fh))
        rst = ideal.rst
        if rst.family != args.type.upper() or args.rank not in (None, rst.rank):
            given = args.type + ("" if args.rank is None else f" --rank {args.rank}")
            raise ConstraintError(f"--ideal-file holds a {rst} ideal, not --type {given}")
        return ideal
    if args.full:
        return ideal_from_mask(root_poset(root_system_type(args.type, args.rank)), 0)
    spec = {"type": args.type}
    if args.rank is not None:
        spec["rank"] = args.rank
    if args.boxes is not None:
        spec["generating_boxes"] = json.loads(args.boxes)
    else:
        spec["roots"] = json.loads(args.roots)
    return parse_ideal_spec(spec)


def _emit(args, payload_poly, provenance):
    fmt = args.format
    if fmt == "json":
        body = payload_poly.to_json_dict()
        body["provenance"] = provenance
        text = json.dumps(body, indent=2, sort_keys=True)
    elif fmt == "latex":
        text = payload_poly.to_latex()
    else:
        text = payload_poly.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class _Cache:
    def __init__(self, args):
        self.enabled = not args.no_cache
        self.dir = args.cache_dir or os.environ.get(CACHE_ENV) or os.path.join(
            os.path.expanduser("~"), ".cache", "idealtutte"
        )

    def key(self, ideal, command, engine):
        """The entry's name: a hash of the cache format, the package version
        (so no release serves another's results), the command, the system,
        the complement and the engine."""
        comp_bits = ideal.complement_mask()
        raw = json.dumps(
            [
                CACHE_VERSION,
                __version__,
                command,
                str(ideal.rst),
                format(comp_bits, "x"),
                engine,
            ]
        )
        return hashlib.sha256(raw.encode()).hexdigest()

    def get(self, key, variables):
        """The cached (polynomial, provenance) pair, or None on a miss.

        An entry that cannot be read or decoded, or is not a polynomial in
        ``variables`` with provenance, is a miss too; the caller recomputes
        and overwrites it.
        """
        if not self.enabled:
            return None
        path = os.path.join(self.dir, key + ".json")
        try:
            with open(path) as fh:
                entry = json.load(fh)
            poly = BivariatePolynomial.from_json_dict(entry["polynomial"])
            prov = entry["provenance"]
        except (OSError, ValueError, LookupError, TypeError):
            return None
        if poly.variables != tuple(variables) or not isinstance(prov, dict):
            return None
        return poly, prov

    def put(self, key, value):
        """Store ``value`` under ``key``.

        A cache that cannot be written costs only the entry: one warning on
        stderr and no temporary file left behind; the caller still emits
        the result.
        """
        if not self.enabled:
            return
        tmp = None
        try:
            os.makedirs(self.dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(value, sort_keys=True))
            os.replace(tmp, os.path.join(self.dir, key + ".json"))
        except OSError as exc:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            print(f"warning: result not cached: {exc}", file=sys.stderr)


def _compute_polynomial(ideal, command, engine, args):
    """The (polynomial, provenance) pair, from the cache or computed; the
    provenance says which under ``cache``, a key the stored entry lacks."""
    cache = _Cache(args)
    key = cache.key(ideal, command, engine)
    hit = cache.get(key, ("q", "t") if command == "coboundary" else ("x", "y"))
    if hit is not None:
        poly, prov = hit
        return poly, {**prov, "cache": "hit"}
    t0 = time.time()
    if command == "coboundary":
        poly = specialize.coboundary_of_ideal(
            ideal, engine=engine, max_subsets=args.max_subsets
        )
    else:
        poly = specialize.tutte_of_ideal(
            ideal, engine=engine, max_subsets=args.max_subsets
        )
    prov = {
        "engine": engine,
        "system": str(ideal.rst),
        "hyperplanes": len(ideal.complement_indices()),
        "wall_time_s": round(time.time() - t0, 4),
    }
    cache.put(key, {"polynomial": poly.to_json_dict(), "provenance": prov})
    return poly, {**prov, "cache": "miss"}


def cmd_roots(args):
    rst = root_system_type(args.type, args.rank)
    poset = root_poset(rst)
    rows = []
    for r in poset.roots:
        row = {
            "index": r.index,
            "simple_coords": list(r.simple_coords),
            "ambient2": list(r.ambient2),
            "height": r.height,
            "word": linear_order_key(r),
        }
        if rst.is_classical:
            row["tuple"] = list(hyperplane_tuple(rst, r.ambient2))
        rows.append(row)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            extra = f" tuple={tuple(row['tuple'])}" if "tuple" in row else ""
            print(
                f"{row['index']:3d} coords={tuple(row['simple_coords'])} "
                f"height={row['height']} word={row['word']}{extra}"
            )
    return 0


def cmd_ideals(args):
    rst = root_system_type(args.type, args.rank)
    poset = root_poset(rst)
    if args.count_only:
        print(sum(1 for _ in iter_ideals(poset)))
        return 0
    out = []
    for ideal in iter_ideals(poset):
        out.append(sorted(list(r.simple_coords) for r in ideal.roots()))
    if args.format == "json":
        print(json.dumps(out))
    else:
        for roots in out:
            print(roots)
    return 0


def cmd_polynomial(args, command):
    ideal = _ideal_from_args(args)
    engine = specialize.resolve_engine(args.engine, ideal.rst)
    poly, prov = _compute_polynomial(ideal, command, engine, args)
    _emit(args, poly, prov)
    return 0


def cmd_charpoly(args):
    ideal = _ideal_from_args(args)
    engine = specialize.resolve_engine(args.engine, ideal.rst)
    chi = specialize.characteristic_polynomial(
        ideal, engine=engine, max_subsets=args.max_subsets
    )
    text = chi.to_text("q")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_minors(args):
    from . import paper  # the paper's route stays off the request path

    rst = root_system_type(args.type, args.rank)
    poset = root_poset(rst)
    vectors = []
    for r in poset.roots:
        if any(c % 2 for c in r.ambient2):
            vectors.append(r.ambient2)
        else:
            vectors.append(tuple(c // 2 for c in r.ambient2))
    profile = paper.minor_set(vectors)
    mags = profile.magnitudes()
    if args.format == "json":
        print(json.dumps({"system": str(rst), "minor_magnitudes": mags}))
    else:
        body = ", ".join(
            ["0"] * (1 if 0 in mags else 0)
            + [f"±{m}" for m in mags if m]
        )
        print("{" + body + "}")
    return 0


def _verify_ffmethod_routes(ideal, max_points):
    """Cross-check the finite-field pipeline on one classical ideal: the direct
    coboundary polynomial against the whole complement's counting model at
    q = 3, 5, ..., 2 rank + 3 (both have q-degree at most rank, so these
    rank + 1 points pin the polynomial), then the counting model against
    exhaustive point counting at p = 3, guard permitting.  Returns how many
    brute-force counts were made."""
    comp = complement(ideal)
    n = ideal.rst.ambient_dim
    model = ffmethod.CountingModel(n, comp.hyperplanes)
    direct = ffmethod.coboundary_polynomial(ideal)
    if direct.degree(0) > model.rank:
        raise VerificationMismatch(
            f"direct coboundary polynomial exceeds q-degree {model.rank} on {ideal!r}"
        )
    for q in range(3, 2 * model.rank + 4, 2):
        at_q = [0] * (direct.degree(1) + 1)
        for (a, b), c in direct.coeffs.items():
            at_q[b] += c * q ** a
        if UnivariatePolynomial(at_q) != model.coboundary_at_prime(q):
            raise VerificationMismatch(
                f"direct coboundary polynomial and counting model disagree at q={q} "
                f"on {ideal!r}"
            )
    p = 3
    if p ** n > max_points:
        return 0
    bf = ffmethod.count_points_bruteforce(comp.hyperplanes, n, p, max_points=max_points)
    if model.point_count_profile(p) != list(bf.counts):
        raise VerificationMismatch(
            f"counting model and brute force disagree at p={p} on {ideal!r}"
        )
    return 1


def cmd_verify(args):
    rst = root_system_type(args.type, args.rank)
    poset = root_poset(rst)
    engines = [e.strip() for e in args.engines.split(",")]
    resolved = [specialize.resolve_engine(e, rst) for e in engines]
    if len(engines) < 2:
        raise ConstraintError("verify needs at least two engines")
    if args.all_ideals:
        ideals = enumerate_ideals(poset)
    else:
        ideals = [_ideal_from_args(args)]
    checked = 0
    counted = 0
    for ideal in ideals:
        polys = [
            (e, specialize.tutte_of_ideal(ideal, engine=eng, max_subsets=args.max_subsets))
            for e, eng in zip(engines, resolved)
        ]
        base_name, base = polys[0]
        for name, poly in polys[1:]:
            if poly != base:
                raise VerificationMismatch(
                    f"{base_name} and {name} disagree on {ideal!r}: "
                    f"{base.to_text()} vs {poly.to_text()}"
                )
        if "ffmethod" in resolved:
            counted += _verify_ffmethod_routes(ideal, args.max_points)
        checked += 1
    extra = ""
    if "ffmethod" in resolved:
        extra = (
            f" (+{checked} direct-vs-evaluation checks, "
            f"+{counted} brute-force point-count checks)"
        )
    print(
        f"verified {checked} ideal(s) of {rst} across engines "
        f"{', '.join(engines)}{extra}"
    )
    return 0


@functools.cache
def build_parser():
    """The argument parser of every subcommand, built on the first call and
    shared by every later one in the process.

    ``parse_args`` gives each call a fresh ``Namespace`` and leaves the parser
    as it was, so reuse carries nothing from one ``main`` call to the next.
    The returned parser is shared: do not mutate it.  Each subcommand's
    ``func`` (its ``cmd_...`` function) and the ``--max-subsets`` and
    ``--max-points`` defaults are read when the parser is first built; a
    fresh, unshared parser is ``build_parser.__wrapped__()``.
    """
    ap = argparse.ArgumentParser(
        prog="idealtutte",
        description="Exact Tutte/coboundary/characteristic polynomials of ideal "
        "arrangements of root systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand registers only the options it reads
    def system(p):
        p.add_argument("--type", required=True, help="A, B, C, D, G2, F4, or E6")
        p.add_argument("--rank", type=int, default=None)

    def formats(p, choices=FORMAT_CHOICES):
        p.add_argument("--format", choices=choices, default="text")

    def ideal_input(p):
        """Exactly one ideal input; returns the group, for verify's --all-ideals."""
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--boxes", help="JSON list of generating boxes, e.g. [[1,4],[2,0]]")
        one.add_argument("--roots", help="JSON list of simple-coordinate root vectors")
        one.add_argument("--ideal-file", help="path to a JSON ideal spec")
        one.add_argument("--full", action="store_true", help="the full arrangement (empty ideal)")
        p.add_argument(
            "--max-subsets", type=int, default=crapo.DEFAULT_MAX_BASIS_SUBSETS,
            help="refuse more basis candidates (crapo) or subsets (oracle) than "
            "this; bounds only those two engines",
        )
        return one

    def polynomial(p):
        system(p)
        ideal_input(p)
        p.add_argument("--engine", choices=specialize.ENGINES, default="auto")
        p.add_argument("--out", help="write the result to this file")

    def cached(p):
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--cache-dir")

    p = sub.add_parser("roots", help="list the positive roots")
    system(p)
    formats(p, LISTING_FORMATS)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("ideals", help="enumerate ideals")
    system(p)
    formats(p, LISTING_FORMATS)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("tutte", help="Tutte polynomial of an ideal arrangement")
    polynomial(p)
    formats(p)
    cached(p)
    p.set_defaults(func=lambda a: cmd_polynomial(a, "tutte"))

    p = sub.add_parser("coboundary", help="coboundary polynomial of an ideal arrangement")
    polynomial(p)
    formats(p)
    cached(p)
    p.set_defaults(func=lambda a: cmd_polynomial(a, "coboundary"))

    p = sub.add_parser("charpoly", help="characteristic polynomial of an ideal arrangement")
    polynomial(p)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("verify", help="cross-check engines on one or all ideals")
    system(p)
    ideal_input(p).add_argument("--all-ideals", action="store_true")
    p.add_argument("--max-points", type=int, default=ffmethod.DEFAULT_MAX_POINTS)
    p.add_argument("--engines", default="auto,oracle")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minors", help="minor set of the positive-root matrix")
    system(p)
    formats(p, LISTING_FORMATS)
    p.set_defaults(func=cmd_minors)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader (say, `head`) is gone: send what is still buffered to
        # devnull so the flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # an --ideal-file that cannot be read or an --out that cannot be
        # written; BrokenPipeError is an OSError, so its branch comes first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationMismatch as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 3
    except GuardExceeded as exc:
        print(f"guard refused: {exc}", file=sys.stderr)
        return 2
    except (
        ConstraintError, UnsupportedTypeError, IdealTutteError,
        json.JSONDecodeError, UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
