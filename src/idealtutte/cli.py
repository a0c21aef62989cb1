"""Command-line surface: parse ideal specs, run polynomial pipelines, select
engines, verify engine pairs, emit JSON/LaTeX/text, and cache results.

The argument parser is built on the first ``main`` call and reused by every
later one in the process (``build_parser``).  ``--format json`` prints one
line, compact and with sorted keys.  The cache holds one entry per ideal
and route (``specialize.resolve_engine``: auto's own route past the lattice
cut is not ffmethod's), its coboundary polynomial chi-bar as a JSON list of
[dq, dt, c] int triples; its reader checks that format itself and serves
an entry only if it also passes ``specialize.certify_coboundary``, the
certificate of every computed result, which forms T and refuses a negative
coefficient; a hit and a miss both give chi-bar and that T.  The JSON
provenance is built on every call, never stored, says whether the cache
was hit, and lists the system and engine of each piece the route reads.
A cache that cannot be written costs only a warning on stderr.
``parse_ideal_spec`` checks an ideal spec itself to the terms of
the packaged ``schemas/ideal-spec.schema.json``, which the tests hold it to
and no code reads.  A one-shot call loads only what it runs: the engine its
request needs, ``hashlib`` only to name a cache entry (never under
``--no-cache``) and ``tempfile`` only to write one.

Each engine's guard is one constant of its own, and no option overrides it;
``verify`` compares the engines' certified chi-bar, ``auto`` against ``crapo``
unless ``--engines`` names others, which must resolve to at least two
distinct routes; it runs each route once per ideal, crapo and oracle first,
so that their guards refuse before any other engine works.

Exit codes: 0 success, 1 validation error (or an ``--ideal-file`` that
cannot be read, or an ``--out`` file that cannot be written), 2 guard refusal
or usage error (argparse: an unknown option, or not exactly one ideal input),
3 verification mismatch, 4 inconsistent result (a result that fails its
certificate or another exactness check; a cache entry that fails is only a
miss), 141 (128 + SIGPIPE) standard output closed early by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from . import __version__, specialize
from .errors import (
    ConstraintError,
    GuardExceeded,
    IdealTutteError,
    InconsistencyError,
    VerificationMismatch,
)
from .exactpoly import BivariatePolynomial, json_failure
from .ideals import (
    complement,
    enumerate_ideals,
    ideal_from_boxes,
    ideal_from_mask,
    ideal_from_root_coords,
    iter_ideals,
)
from .rootsystems import (
    FAMILIES,
    linear_order_key,
    root_poset,
    root_system_type,
)

FORMAT_CHOICES = ("json", "latex", "text")
LISTING_FORMATS = ("json", "text")  # roots, ideals and minors print no LaTeX
CACHE_ENV = "TUTTE_CACHE_DIR"
CACHE_VERSION = "5"


def _spec_failures(data):
    """How ``data`` breaks schemas/ideal-spec.schema.json: one ``$.path:
    reason``, or None, per check, each run once every check before it held."""
    yield json_failure(data, (), "object")
    yield None if "type" in data else "$: 'type' is a required property"
    for key, value in data.items():
        if key == "type":
            if value not in FAMILIES:
                yield f"$.type: {value!r} is not one of {list(FAMILIES)!r}"
        elif key == "rank":
            yield json_failure(value, (key,), "integer", 1)
        elif key in ("generating_boxes", "roots"):
            yield json_failure(value, (key,), "array")
            boxes = key == "generating_boxes"  # pairs of integers; roots, integers >= 0
            for i, row in enumerate(value):
                yield json_failure(row, (key, i), "array", length=2 if boxes else None)
                yield from (json_failure(c, (key, i, j), "integer", None if boxes else 0)
                            for j, c in enumerate(row))
        else:
            yield f"$: property {key!r} is not allowed"


def parse_ideal_spec(data):
    """Turn an ideal-spec dict, checked against
    schemas/ideal-spec.schema.json, into an Ideal."""
    failure = next(filter(None, _spec_failures(data)), None)
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


def _parse_json(text, source):
    """json.loads of ``text``; ConstraintError, naming ``source``, for JSON
    nested too deeply for the parser's recursion."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ConstraintError(f"{source} is nested too deeply to parse") from None


def _ideal_from_args(args):
    """The ideal named by the one ideal input the parser admitted."""
    if args.ideal_file is not None:
        with open(args.ideal_file) as fh:
            ideal = parse_ideal_spec(_parse_json(fh.read(), "--ideal-file"))
        rst = ideal.rst
        if rst.family != args.type.upper() or args.rank not in (None, rst.rank):
            given = args.type + ("" if args.rank is None else f" --rank {args.rank}")
            raise ConstraintError(f"--ideal-file holds a {rst} ideal, not --type {given}")
        return ideal
    if args.full:
        return ideal_from_mask(root_poset(root_system_type(args.type, args.rank)), 0)
    spec = {"type": args.type.upper()}
    if args.rank is not None:
        spec["rank"] = args.rank
    if args.boxes is not None:
        spec["generating_boxes"] = _parse_json(args.boxes, "--boxes")
    else:
        spec["roots"] = _parse_json(args.roots, "--roots")
    return parse_ideal_spec(spec)


def _emit(args, payload_poly, provenance):
    fmt = args.format
    if fmt == "json":
        body = payload_poly.to_json_dict()
        body["provenance"] = provenance
        text = json.dumps(body, sort_keys=True)
    elif fmt == "latex":
        text = payload_poly.to_latex()
    else:
        text = payload_poly.to_text()
    _write(args, text)


def _write(args, text):
    """Write one result to ``--out`` when it is given, else to stdout."""
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

    def key(self, ideal, route):
        """The entry's name: a hash of the cache format, the package version
        (so no release serves another's results), the system, the complement
        and the route, as ``specialize.resolve_engine`` names it."""
        import hashlib  # only a call that reads or writes the cache hashes

        raw = json.dumps(
            [
                CACHE_VERSION,
                __version__,
                str(ideal.rst),
                format(ideal.complement_mask(), "x"),
                route,
            ]
        )
        return hashlib.sha256(raw.encode()).hexdigest()

    def get(self, key, ideal):
        """The cached chi-bar of ``ideal`` and its Tutte polynomial, or None
        on a miss: an entry that cannot be read or decoded, is not a list of
        distinct [dq, dt, c] int triples with nonzero c and non-negative
        degrees, or fails ``specialize.certify_coboundary``, the certificate
        of every computed result, which forms T.  The caller recomputes and
        overwrites a miss."""
        if not self.enabled:
            return None
        try:
            with open(os.path.join(self.dir, key + ".json")) as fh:
                terms = json.load(fh)
            if type(terms) is not list or not all(
                    type(t) is list and len(t) == 3 and all(type(v) is int for v in t)
                    and t[0] >= 0 and t[1] >= 0 and t[2] for t in terms):
                return None  # type(v) is int refuses bools
            coeffs = {(dq, dt): c for dq, dt, c in terms}
            if len(coeffs) != len(terms):
                return None  # a degree given twice
            cb = BivariatePolynomial._of(coeffs, ("q", "t"))  # canonical once checked
            return cb, specialize.certify_coboundary(ideal, cb)
        except (OSError, ValueError, RecursionError, InconsistencyError):
            return None

    def put(self, key, cb):
        """Store the coboundary polynomial ``cb`` under ``key`` as its sorted
        [dq, dt, c] triples; the directory is made only when it is missing.

        A cache that cannot be written costs only the entry: one warning on
        stderr and no temporary file left behind; the caller still emits
        the result.
        """
        if not self.enabled:
            return
        import tempfile  # only a call that writes the cache makes a file

        tmp = None
        try:
            try:
                fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            except FileNotFoundError:
                os.makedirs(self.dir, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps([[a, b, c] for (a, b), c in sorted(cb.coeffs.items())]))
            os.replace(tmp, os.path.join(self.dir, key + ".json"))
        except OSError as exc:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            print(f"warning: result not cached: {exc}", file=sys.stderr)


def cmd_polynomial(args, command):
    """Emit the ideal's ``command`` polynomial and this call's provenance:
    ``cache`` says whether its chi-bar came from the cache, ``engine`` names
    the route (``specialize.resolve_engine``), ``components`` lists each
    piece it reads chi-bar off as [system, engine]
    (``specialize.route_pieces``, which a miss computes from), and
    ``wall_time_s`` is this call's time to read or compute the polynomial.
    A hit and a miss both give chi-bar and the T its certificate formed,
    and a miss stores chi-bar.  ``--no-cache`` builds no key."""
    ideal = _ideal_from_args(args)
    route = specialize.resolve_engine(args.engine, ideal.rst)
    t0 = time.perf_counter()
    pieces = specialize.route_pieces(ideal, route)
    cache = _Cache(args)
    key = cache.key(ideal, route) if cache.enabled else None
    hit = cache.get(key, ideal)
    cb, tutte = hit or specialize.polynomials_of_pieces(ideal, route, pieces)
    if hit is None:
        cache.put(key, cb)
    _emit(args, tutte if command == "tutte" else cb, {
        "cache": "miss" if hit is None else "hit",
        "components": [[str(system) if system else None, engine] for system, engine, _ in pieces],
        "engine": route,
        "system": str(ideal.rst),
        "hyperplanes": ideal.complement_mask().bit_count(),
        "wall_time_s": round(time.perf_counter() - t0, 4),
    })
    return 0


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
            row["tuple"] = list(poset.tuples[r.index])
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


def cmd_charpoly(args):
    ideal = _ideal_from_args(args)
    engine = specialize.resolve_engine(args.engine, ideal.rst)
    chi = specialize.characteristic_polynomial(ideal, engine=engine)
    _write(args, chi.to_text("q"))
    return 0


def cmd_minors(args):
    from . import paper  # loaded by this command alone

    rst = root_system_type(args.type, args.rank)
    poset = root_poset(rst)
    vectors = []
    for r in poset.roots:
        if any(c % 2 for c in r.ambient2):
            vectors.append(r.ambient2)
        else:
            vectors.append(tuple(c // 2 for c in r.ambient2))
    mags = sorted({abs(d) for d in paper.minor_set(vectors)})
    if args.format == "json":
        print(json.dumps({"system": str(rst), "minor_magnitudes": mags}))
    else:
        body = ", ".join(
            ["0"] * (1 if 0 in mags else 0)
            + [f"±{m}" for m in mags if m]
        )
        print("{" + body + "}")
    return 0


def _verify_brute_force(ideal, cb):
    """Check ``cb``, the chi-bar the engines agree on for one classical ideal,
    read at q = 3 against exhaustive point counting over F_3, whose rank comes
    from Gaussian elimination, when the 3^n points are within
    ``ffmethod.DEFAULT_MAX_POINTS``.  Returns how many brute-force counts
    were made."""
    from . import ffmethod

    n, p = ideal.rst.ambient_dim, 3
    if p ** n > ffmethod.DEFAULT_MAX_POINTS:
        return 0
    bf = ffmethod.count_points_bruteforce(complement(ideal), n, p)
    if bf.coboundary() != ffmethod.coboundary_at(cb, p):
        raise VerificationMismatch(f"chi-bar and brute force disagree at p={p} on {ideal!r}")
    return 1


def cmd_verify(args):
    """Compare the certified chi-bar of the engines named in ``--engines``
    on one ideal or all of them, each distinct route
    (``specialize.resolve_engine``) run once per ideal and every engine
    compared with the first named through its route."""
    rst = root_system_type(args.type, args.rank)
    poset = root_poset(rst)
    engines = [e.strip() for e in args.engines.split(",")]
    resolved = [specialize.resolve_engine(e, rst) for e in engines]
    routes = list(dict.fromkeys(resolved))
    if len(routes) < 2:
        raise ConstraintError(f"verify needs two distinct engines, and --engines {args.engines} "
                              f"runs only {', '.join(routes)}")
    if args.all_ideals:
        ideals = enumerate_ideals(poset)
    else:
        ideals = [_ideal_from_args(args)]
    # crapo and oracle refuse past their guards before any work, so they run
    # first: a refusal then costs no other engine's full computation
    routes.sort(key=lambda route: route not in ("crapo", "oracle"))
    # a classical route that counts (ffmethod, or auto's own past the
    # lattice cut) has its agreed chi-bar held to a brute-force count
    counting = not {"ffmethod", "auto"}.isdisjoint(routes)
    checked = 0
    counted = 0
    for ideal in ideals:
        polys = {route: specialize.coboundary_of_ideal(ideal, engine=route) for route in routes}
        base = polys[resolved[0]]
        for name, route in zip(engines[1:], resolved[1:]):
            if polys[route] != base:
                raise VerificationMismatch(
                    f"{engines[0]} and {name} disagree on {ideal!r}: "
                    f"{base.to_text()} vs {polys[route].to_text()}"
                )
        if counting:
            counted += _verify_brute_force(ideal, base)
        checked += 1
    extra = ""
    if counting:
        extra = f" (+{counted} brute-force point-count checks)"
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
    ``func`` (its ``cmd_...`` function) is read when the parser is first
    built; a fresh, unshared parser is ``build_parser.__wrapped__()``.
    """
    ap = argparse.ArgumentParser(
        prog="idealtutte",
        description="Exact Tutte/coboundary/characteristic polynomials of ideal "
        "arrangements of root systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand registers only the options it reads
    def system(p):
        families = f"{', '.join(FAMILIES[:-1])}, or {FAMILIES[-1]}"
        p.add_argument("--type", required=True, help=families)
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
    p.add_argument("--engines", default="auto,crapo")
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
    except InconsistencyError as exc:
        print(f"inconsistent result: {exc}", file=sys.stderr)
        return 4
    except GuardExceeded as exc:
        print(f"guard refused: {exc}", file=sys.stderr)
        return 2
    except (IdealTutteError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
