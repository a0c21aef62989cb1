"""Timing, tracing and reporting of one benchmark run; see run.py for usage."""

import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import tracing
import workloads
from run import BLAS_THREADS, HERE, OUT, ROOT, SRC

SETUP_PROBES = 7
MIN_PASSES = 2
# a slow machine stops after MIN_PASSES once a run has measured this many times --seconds
OVERRUN = 1.5

END_TO_END = (
    ("setup_s", "s"),
    ("ideals_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail_percentile(n):
    """The highest whole percentile with at least ten of n requests beyond it."""
    return 100 * (n - 10) // n


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def provenance(args, prepared):
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "requests_per_pass": len(prepared.requests),
        "why": workloads.WHY[args.workload],
    }


def measure_setup(args):
    """Median wall time of fresh interpreters doing the workload's set-up."""
    times = []
    for i in range(SETUP_PROBES):
        workdir = os.path.join(OUT, f"probe-{os.getpid()}-{i}")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


def check_all(gate, outcomes):
    """Run the correctness gate; returns (failed count, {key: digest}, records)."""
    failed, digests, records = 0, {}, []
    for o in outcomes:
        digest, failures = gate.check(o)
        if digest is not None:
            if digests.setdefault(o.request.key, digest) != digest:
                failures.append("differs from another request for the same ideal")
        failed += bool(failures)
        records.append({"key": o.request.key, "phase": o.phase, "seconds": o.seconds,
                        "digest": digest, "failures": failures})
    return failed, digests, records


def scaled_seconds(outcome, stamps, readings):
    """A call's time rescaled to the reference host speed, using the mean of
    the probes taken just before and just after it."""
    i = bisect.bisect_right(stamps, outcome.start) - 1
    j = bisect.bisect_left(stamps, outcome.start + outcome.seconds)
    reading = (readings[i] + readings[min(j, len(readings) - 1)]) / 2
    return outcome.seconds * workloads.PROBE_REF_S / reading


def request_latencies(outcomes, probes=None):
    """{(phase, request): the median of its calls over the whole run}, each
    call rescaled to the reference host speed when probes are given.

    The rescaling removes most of the host's slow swings; the median over
    calls spread through the run removes what is left for cheap requests.
    """
    if probes:
        stamps = [t for t, _ in probes]
        readings = [s for _, s in probes]
    calls = {}
    for o in outcomes:
        s = scaled_seconds(o, stamps, readings) if probes else o.seconds
        calls.setdefault((o.phase, o.request), []).append(s)
    return {k: statistics.median(v) for k, v in calls.items()}


def latency_summary(latencies, phase):
    """(p50 ms, tail ms, tail label) of the request latencies of one phase."""
    secs = [s for (p, _), s in latencies.items() if p == phase]
    pct = tail_percentile(len(secs))
    return (statistics.median(secs) * 1000, percentile(secs, pct) * 1000,
            f"p{pct} of {len(secs)}")


def run(args):
    """Run one workload as parsed by run.main; prints the result, returns 0."""
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    gate = checks.Gate(ROOT)
    try:
        if args.trace:
            result = traced_run(args, gate, workdir)
        else:
            result = timed_run(args, gate, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in result["summary"].items():
        if isinstance(value, dict) and "unit" in value:
            value = (f"n/a ({value['note']})" if value["value"] is None
                     else f"{value['value']:.6g} {value['unit']}")
        print(f"{name} = {value}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def timed_run(args, gate, workdir):
    setup_s = measure_setup(args)
    prepared = workloads.prepare(args.workload, args.seed, workdir)
    planned = max(MIN_PASSES, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    outcomes, probes, walls, extras = [], [], [], {}
    start = time.perf_counter()
    while len(walls) < planned:
        if len(walls) >= MIN_PASSES and time.perf_counter() - start > OVERRUN * args.seconds:
            break
        got, wall, readings = workloads.run_pass(prepared, len(walls), extras)
        if not walls:
            extras = workloads.extra_calls(prepared, got)
        outcomes += got
        probes += readings
        walls.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, digests, records = check_all(gate, outcomes)
    first = prepared.phases[0].name
    latencies = request_latencies(outcomes, probes)
    p50, tail, tail_label = latency_summary(latencies, first)
    metrics = {
        "setup_s": setup_s,
        "ideals_per_s": len(latencies) / sum(latencies.values()),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = request_latencies(outcomes)
    raw_p50, raw_tail, _ = latency_summary(raw, first)
    readings = [s for _, s in probes]
    summary = {
        "passes": f"{len(walls)} of {planned} planned",
        "pass_walls_s": [round(w, 3) for w in walls],
        "latency_tail": tail_label,
        "error_rate": {"value": failed / len(outcomes), "unit": "fraction"},
        "hit_p50_ms": {"value": None, "unit": "ms", "note": "no cache on this workload"},
        "hit_tail_ms": {"value": None, "unit": "ms", "note": "no cache on this workload"},
        "hit_tail": None,
        "probe_ms": {"median": statistics.median(readings) * 1000,
                     "min": min(readings) * 1000, "count": len(readings)},
        "unscaled": {"ideals_per_s": len(raw) / sum(raw.values()),
                     "latency_p50_ms": raw_p50, "latency_tail_ms": raw_tail},
        "output_digest": checks.workload_digest(digests),
    }
    if any(phase.name == "warm" for phase in prepared.phases):
        hit_p50, hit_tail, hit_label = latency_summary(latencies, "warm")
        summary.update(hit_p50_ms={"value": hit_p50, "unit": "ms"},
                       hit_tail_ms={"value": hit_tail, "unit": "ms"}, hit_tail=hit_label)
        summary["unscaled"]["hit_p50_ms"] = latency_summary(raw, "warm")[0]
    return finish(args, prepared, outcomes, failed,
                  {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END},
                  summary, records)


def traced_run(args, gate, workdir):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        prepared = workloads.prepare(args.workload, args.seed, workdir)
        traced, traced_wall, _ = workloads.run_pass(
            prepared, 0, on_request=lambda n: setattr(tracer, "request", n))
        tracer.request = None
    finally:
        uninstall()
    cache_size = 0
    if prepared.name == "cli-sweep":
        cache_size = tracing.cache_bytes(workloads.cache_dir(prepared, 0))
    plain, plain_wall, _ = workloads.run_pass(prepared, 1)
    outcomes = traced + plain
    failed, digests, records = check_all(gate, outcomes)
    layers = tracing.layer_metrics(tracer, traced_wall - plain_wall, cache_size)
    tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    phase_of = [p.name for p in prepared.phases for _ in p.requests]
    phase_spans = {}
    for name, _, _, _, request in tracer.spans:
        phase = "setup" if request is None else phase_of[request]
        layer = name.split(".")[0]
        counts = phase_spans.setdefault(phase, {})
        counts[layer] = counts.get(layer, 0) + 1
    shares = {name: round(value / traced_wall, 4)
              for name, (value, unit) in layers.items() if unit == "s"}
    summary = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "share_of_traced_wall": shares,
        "spans_by_phase": phase_spans,
        "error_rate": {"value": failed / len(outcomes), "unit": "fraction"},
        "output_digest": checks.workload_digest(digests),
    }
    return finish(args, prepared, outcomes, failed,
                  {n: {"value": v, "unit": u} for n, (v, u) in layers.items()},
                  summary, records)


def finish(args, prepared, outcomes, failed, metrics, summary, records):
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
        "provenance": provenance(args, prepared),
        "inputs": [r.describe() for r in prepared.unique_requests()],
        "requests": records,
    }
