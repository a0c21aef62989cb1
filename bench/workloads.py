"""The benchmark's three workloads: their inputs, request order and request loop.

Every request computes one ideal's Tutte polynomial. Inputs are keyed by
coordinates, never by root-poset index: random roots are drawn from the roots
sorted by simple coordinates, and seeded orders shuffle requests sorted by
their coordinate key, so a renumbering inside ``rootsystems`` cannot change
the workload.
"""

import contextlib
import io
import json
import os
import random
import time

from idealtutte import cli, ideals, rootsystems, specialize

# The worked ideals of the paper. Classical ones are given by the generating
# boxes of their complements, exceptional ones by their simple-coordinate roots.
WORKED_CLASSICAL = {
    "I_a": ("A", 7, [(1, 3), (2, 5), (4, 7), (6, 8)]),
    "I_b": ("B", 6, [(1, 4), (2, 0), (4, -5)]),
    "I_c": ("C", 6, [(1, 4), (2, -6), (4, 0)]),
    "I_d": ("D", 6, [(1, 3), (2, 6), (4, -5)]),
}
WORKED_F4 = [
    (1, 1, 2, 2), (1, 2, 2, 1), (1, 2, 2, 2), (1, 2, 3, 1),
    (1, 2, 3, 2), (1, 2, 4, 2), (1, 3, 4, 2), (2, 3, 4, 2),
]
WORKED_E6 = [
    (1, 1, 1, 2, 1, 0), (1, 1, 1, 2, 1, 1), (1, 1, 2, 2, 1, 0),
    (1, 1, 2, 2, 1, 1), (1, 1, 1, 2, 2, 1), (1, 1, 2, 2, 2, 1),
    (1, 1, 2, 3, 2, 1), (1, 2, 2, 3, 2, 1),
]

# The random classical ideals come from one fixed generator seed, as in the
# roadmap's generator; the run's --seed only permutes the request order.
# Pools drawn from the run seed cost 19-29 s per pass on one machine, a
# spread no wall-time bound could hold. Ranks 7/7/7/8 keep a pass near 8 s
# (the 8/8/8/9 pool takes 24 s, 6.6 s of it one A8 ideal), so a run fits
# several passes, and every request is timed more than once.
RANDOM_POOL_SEED = 1
RANDOM_TYPES = (("A", 7), ("B", 7), ("C", 7), ("D", 8))
RANDOM_TRIALS = 10
RANDOM_GENERATORS = 3

# Rank 4, not 5: at rank 5 the counting DP is about half of a cold request,
# while this workload is about per-request overhead, and 686 rank-5 ideals
# take 20 s a pass, too long for a run to hold several passes.
CLI_TYPES = (("B", 4), ("C", 4), ("D", 4))

# Seconds one pass takes on a quiet 2-CPU machine; a run makes
# max(2, round(--seconds / this)) passes, so its work is fixed by --seconds.
PASS_SECONDS = {"classical-random": 8, "cli-sweep": 3.5, "exceptional": 20}
# A request that took under CHEAP_S is cheap to time again, so later passes
# make EXTRA_CALLS more calls to it, spread through the pass: at a few ms a
# single call mostly shows the cache and core state it landed on.
CHEAP_S = 0.02
EXTRA_CALLS = 6
# The host's speed swings too: a fixed loop took from 1.05 to 2.0 ms between
# runs on the 2-CPU VM these figures come from. run_pass times probe()
# between calls, at most PROBE_EVERY_S apart, so each call can be rescaled
# to the speed at which the probe takes PROBE_REF_S.
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.001

WHY = {
    "classical-random": "the counting DP dominates: worked I_a-I_d plus 40 random "
    "A7/B7/C7/D8 ideals through tutte_of_ideal, 44 requests",
    "cli-sweep": "per-request overhead dominates: all 190 B4/C4/D4 ideals through "
    "cli.main, a cold phase writing the cache then a warm phase reading it",
    "exceptional": "crapo does all the work and ffmethod never runs: all 105 F4 "
    "ideals (exact path) then the worked E6 ideal (batched path)",
}


class Request:
    """One ideal to compute, identified by its type and coordinate list."""

    __slots__ = ("key", "label", "ideal", "coords", "argv")

    def __init__(self, ideal, label=None):
        rst = ideal.rst
        self.ideal = ideal
        self.label = label
        self.coords = sorted(r.simple_coords for r in ideal.roots())
        self.key = str(rst) + ":" + json.dumps([list(c) for c in self.coords])
        self.argv = None

    def describe(self):
        out = {"system": str(self.ideal.rst), "roots": [list(c) for c in self.coords]}
        if self.label:
            out["label"] = self.label
        return out


def _poset(family, rank=None):
    return rootsystems.root_poset(rootsystems.root_system_type(family, rank))


def _dominates(u, v):
    return all(a <= b for a, b in zip(u, v))


def random_classical_ideal(rng, poset):
    """The union of the up-sets of RANDOM_GENERATORS sampled roots."""
    by_coords = sorted(r.simple_coords for r in poset.roots)
    picks = rng.sample(by_coords, RANDOM_GENERATORS)
    coords = [c for c in by_coords if any(_dominates(p, c) for p in picks)]
    return ideals.ideal_from_root_coords(poset, coords)


def _worked_classical():
    out = []
    for label, (family, rank, boxes) in WORKED_CLASSICAL.items():
        ideal = ideals.ideal_from_boxes(_poset(family, rank), boxes)
        out.append(Request(ideal, label))
    return out


class Phase:
    """The requests of one phase: a fixed head, a body in a seeded order that
    changes every pass, and a fixed tail."""

    def __init__(self, name, body, head=(), tail=()):
        self.name = name
        self.head, self.tail = list(head), list(tail)
        self.body = sorted(body, key=lambda r: r.key)

    @property
    def requests(self):
        return self.head + self.body + self.tail

    def order(self, rng, extras):
        body = self.body + [r for r in self.body for _ in range(extras.get(r, 0))]
        rng.shuffle(body)
        return self.head + body + self.tail


class Prepared:
    """A workload's generated inputs and where it keeps per-run files."""

    def __init__(self, name, seed, phases, workdir=None):
        self.name = name
        self.seed = seed
        self.phases = phases
        self.workdir = workdir

    @property
    def requests(self):
        return [r for p in self.phases for r in p.requests]

    def unique_requests(self):
        seen = {}
        for r in self.requests:
            seen.setdefault(r.key, r)
        return list(seen.values())

    def orders(self, pass_no, extras):
        """[(phase name, requests in order)] of one pass, drawn from the seed;
        ``extras`` maps a request to how many more calls it gets."""
        rng = random.Random(f"{self.seed}/{pass_no}")
        return [(p.name, p.order(rng, extras)) for p in self.phases]


def prepare(name, seed, workdir):
    """Build the posets and the request list of one workload."""
    if name == "classical-random":
        pool_rng = random.Random(RANDOM_POOL_SEED)
        pool = []
        for family, rank in RANDOM_TYPES:
            poset = _poset(family, rank)
            for _ in range(RANDOM_TRIALS):
                pool.append(Request(random_classical_ideal(pool_rng, poset)))
        return Prepared(name, seed, [Phase("compute", pool, head=_worked_classical())])
    if name == "exceptional":
        f4 = [Request(i) for i in ideals.enumerate_ideals(_poset("F4"))]
        for r in f4:
            if r.coords == sorted(WORKED_F4):
                r.label = "I_f"
        e6 = Request(ideals.ideal_from_root_coords(_poset("E6"), WORKED_E6), "I_e")
        return Prepared(name, seed, [Phase("compute", f4, tail=[e6])])
    if name == "cli-sweep":
        reqs = []
        for family, rank in CLI_TYPES:
            reqs += [Request(i) for i in ideals.enumerate_ideals(_poset(family, rank))]
        for r in reqs:
            family, rank = r.ideal.rst.family, r.ideal.rst.rank
            r.argv = [
                "tutte", "--type", family, "--rank", str(rank),
                "--roots", json.dumps([list(c) for c in r.coords]),
                "--format", "json",
            ]
        os.makedirs(workdir, exist_ok=True)
        return Prepared(name, seed, [Phase("cold", reqs), Phase("warm", reqs)], workdir)
    raise KeyError(name)


WORKLOADS = tuple(WHY)


class Outcome:
    """What one request returned, for the checks run after the timed loop."""

    __slots__ = ("request", "phase", "start", "seconds", "poly", "stdout", "code", "error")

    def __init__(self, request, phase, start, seconds, poly=None, stdout=None, code=None,
                 error=None):
        self.request = request
        self.phase = phase
        self.start = start
        self.seconds = seconds
        self.poly = poly
        self.stdout = stdout
        self.code = code
        self.error = error


def cache_dir(prepared, pass_no):
    """The fresh cache directory of one cli-sweep pass."""
    return os.path.join(prepared.workdir, f"cache-{pass_no}")


def probe():
    """Seconds a fixed loop of dict updates on big integers takes, the kind of
    work the counting DP does: a reading of the host's current speed."""
    d = {}
    t0 = time.perf_counter()
    for i in range(5000):
        k = i * 7919 % 1021
        d[k] = d.get(k, 0) + (i << 70)
    return time.perf_counter() - t0


def run_pass(prepared, pass_no, extras=None, on_request=None):
    """One closed-loop pass over every phase: one request in flight at a time.

    Returns (outcomes, wall seconds of the request loop, probes), where probes
    is [(perf_counter when taken, probe seconds)] with one probe before the
    first call, after the last, and between calls at most PROBE_EVERY_S
    apart. ``on_request`` is told the call number before each call, so a
    tracer can tag spans.
    """
    outcomes, probes = [], []
    cache = cache_dir(prepared, pass_no) if prepared.name == "cli-sweep" else None
    wall0 = time.perf_counter()
    n = 0
    for phase, reqs in prepared.orders(pass_no, extras or {}):
        for req in reqs:
            if not probes or time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((time.perf_counter(), probe()))
            if on_request is not None:
                on_request(n)
            n += 1
            if cache is None:
                outcomes.append(_compute(req, phase))
            else:
                outcomes.append(_cli(req, phase, cache))
    probes.append((time.perf_counter(), probe()))
    return outcomes, time.perf_counter() - wall0, probes


def extra_calls(prepared, outcomes):
    """More calls for the cheap requests of in-process workloads (a cli
    request cannot be repeated cold within a pass)."""
    if prepared.name == "cli-sweep":
        return {}
    return {o.request: EXTRA_CALLS for o in outcomes if o.seconds < CHEAP_S}


def _compute(req, phase):
    t0 = time.perf_counter()
    try:
        poly = specialize.tutte_of_ideal(req.ideal)
    except Exception as exc:  # counted as a failed request
        return Outcome(req, phase, t0, time.perf_counter() - t0, error=repr(exc))
    return Outcome(req, phase, t0, time.perf_counter() - t0, poly=poly)


def _cli(req, phase, cache):
    argv = req.argv + ["--cache-dir", cache]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # counted as a failed request
        return Outcome(req, phase, t0, time.perf_counter() - t0, error=repr(exc))
    return Outcome(req, phase, t0, time.perf_counter() - t0, stdout=out.getvalue(), code=code,
                   error=err.getvalue() or None)
