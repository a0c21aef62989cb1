"""Spans and exact counters for the traced run, recorded from outside the package.

``install`` wraps the public functions each layer exposes and rebinds every
name that holds them in any loaded ``idealtutte`` module (``ffmethod`` imports
``lagrange_interpolate`` by name, for example), plus the class attributes
``CountingModel.__init__``, ``CountingModel.coboundary_at_prime`` and
``BivariatePolynomial.to_json_dict``/``from_json_dict``. Spans are kept in
memory as (name, start, end, parent, request) and written out at the end.
Counters are derived only from public arguments, attributes and results, so
two runs of the same code give identical counts.
"""

import json
import math
import os
import sys
import time

from idealtutte import cli, crapo, exactpoly, ffmethod, ideals, rootsystems, specialize

# (metric name, unit, better); "_s" metrics are summed self times of the span
# with the same stem.
METRICS = (
    ("rootsystems.poset_s", "s", "lower"),
    ("ideals.enumerate_s", "s", "lower"),
    ("ideals.build_s", "s", "lower"),
    ("ideals.decompose_s", "s", "lower"),
    ("ideals.components", "count", "higher"),
    ("ffmethod.model_s", "s", "lower"),
    ("ffmethod.blocks_max", "count", "lower"),
    ("ffmethod.dp_s", "s", "lower"),
    ("ffmethod.dp_calls", "count", "lower"),
    ("ffmethod.pair_steps", "count", "lower"),
    ("ffmethod.state_space", "count", "lower"),
    ("exactpoly.interpolate_s", "s", "lower"),
    ("exactpoly.to_tutte_s", "s", "lower"),
    ("exactpoly.json_s", "s", "lower"),
    ("crapo.tutte_s", "s", "lower"),
    ("crapo.activity_s", "s", "lower"),
    ("crapo.activity_calls", "count", "lower"),
    ("crapo.candidates", "count", "lower"),
    ("crapo.bases", "count", "higher"),
    ("crapo.basis_yield", "ratio", "higher"),
    ("specialize.dispatch_s", "s", "lower"),
    ("cli.request_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.cache_hits", "count", "higher"),
    ("cli.cache_misses", "count", "lower"),
    # not exact: each cache entry records its compute time
    ("cli.cache_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
COUNTERS = tuple(name for name, unit, _ in METRICS if unit == "count")


class Tracer:
    """In-memory spans plus the counters their hooks update."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, request]
        self.request = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            token = before(args) if before else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.request])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if after:
                after(self.counts, token, args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


# ---- counters from public arguments and results --------------------------------

def _components(counts, token, args, kwargs, result):
    counts["ideals.components"] += len(result)


def _model(counts, token, args, kwargs, result):
    sizes = [len(b) for b in args[0].blocks]
    counts["ffmethod.blocks_max"] = max(counts["ffmethod.blocks_max"], len(sizes))
    counts["ffmethod.state_space"] += math.prod(s + 1 for s in sizes)


def _dp(counts, token, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    counts["ffmethod.dp_calls"] += 1
    counts["ffmethod.pair_steps"] += (p - 1) // 2


def _crapo(counts, token, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    counts["crapo.candidates"] += math.comb(len(cfg), cfg.rank)
    counts["crapo.bases"] += result.evaluate(1, 1)


def _activity(counts, token, args, kwargs, result):
    counts["crapo.activity_calls"] += 1


def _cache_entries(argv):
    """Cache entries in the --cache-dir a cli.main call was given."""
    path = argv[argv.index("--cache-dir") + 1]
    try:
        return sum(1 for f in os.listdir(path) if f.endswith(".json"))
    except FileNotFoundError:
        return 0


def _cli_before(args):
    return _cache_entries(args[0])


def _cli_after(counts, token, args, kwargs, result):
    grew = _cache_entries(args[0]) > token
    counts["cli.cache_misses" if grew else "cli.cache_hits"] += 1


def cache_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path) if f.endswith(".json"))


# (owner, attribute, span name, before, after); owners that are modules have
# every alias of the function in idealtutte.* rebound as well.
TARGETS = (
    (rootsystems, "root_poset", "rootsystems.poset", None, None),
    (ideals, "enumerate_ideals", "ideals.enumerate", None, None),
    (ideals, "ideal_from_root_coords", "ideals.build", None, None),
    (ideals, "ideal_from_mask", "ideals.build", None, None),
    (ideals, "ideal_from_boxes", "ideals.build", None, None),
    (ideals, "complement", "ideals.decompose", None, None),
    (ideals, "decompose_components", "ideals.decompose", None, _components),
    (ffmethod.CountingModel, "__init__", "ffmethod.model", None, _model),
    (ffmethod.CountingModel, "coboundary_at_prime", "ffmethod.dp", None, _dp),
    (exactpoly, "lagrange_interpolate", "exactpoly.interpolate", None, None),
    (exactpoly, "coboundary_to_tutte", "exactpoly.to_tutte", None, None),
    (exactpoly.BivariatePolynomial, "to_json_dict", "exactpoly.json", None, None),
    (exactpoly.BivariatePolynomial, "from_json_dict", "exactpoly.json", None, None),
    (crapo, "tutte_crapo", "crapo.tutte", None, _crapo),
    (crapo, "activity", "crapo.activity", None, _activity),
    (specialize, "tutte_of_ideal", "specialize.dispatch", None, None),
    (cli, "main", "cli.request", _cli_before, _cli_after),
    (cli, "parse_ideal_spec", "cli.parse", None, None),
)


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "idealtutte" or n.startswith("idealtutte."))]
    for owner, attr, name, before, after in TARGETS:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, before, after))
            else:
                wrapped = tracer.wrap(name, raw, before, after)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            continue
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(name, fn, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, fn))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer, overhead_s, cache_size):
    """Every per-layer metric, as {name: (value, unit)}."""
    self_s = tracer.self_times()
    counts = dict(tracer.counts)
    counts["cli.cache_bytes"] = cache_size
    cand = counts["crapo.candidates"]
    counts["crapo.basis_yield"] = counts["crapo.bases"] / cand if cand else 0.0
    out = {}
    for name, unit, _ in METRICS:
        if name == "trace.overhead_s":
            out[name] = (overhead_s, unit)
        elif unit == "s":
            out[name] = (self_s.get(name[:-2], 0.0), unit)
        else:
            out[name] = (counts[name], unit)
    return out
