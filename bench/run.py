"""Run one workload of the splicerank benchmark and print its metrics.

    python3 bench/run.py --workload splice-large --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Load comes from this one process and one thread, as a closed loop: each
call starts when the previous one has returned.  A pass runs every call of
the workload once, in an order drawn from ``--seed``; passes repeat for
about ``--seconds`` and at least the workload's minimum pass count.
Every answer is checked against ``reference.json`` and the invariants in
``workloads.problems`` after its pass, outside the timed region.

With ``--trace 0`` the last line holds the end-to-end metrics, all timed
with tracing off: set-up time (median of fresh interpreters), the median
pass and the call latency percentiles over every call of the run, all in
units of the calibration loop (see ``calibrate``; set-up converted to
seconds by ``CAL_SECONDS``), and peak resident memory.  Raw set-up, pass
and call times are printed as comment lines.

With ``--trace 1`` untraced and traced passes alternate; a traced pass
wraps the program's public functions in spans (``workloads.instrumented``).
The last line then holds the per-layer metrics of the traced passes
(per-pass means, so that span self-times and uncovered time add up to the
traced wall time), and the spans are written to ``.bench_out/`` in the
checkout.

The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only if every answer was
right.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed in fresh interpreters, one after each timed pass and at
# least this many in all, and reported as the median.  Spreading the probes
# over the run keeps a slow spell of the host from setting the median.
SETUP_PROBES = 11
# setup_s is given in seconds, so it is set-up time in cal (see calibrate)
# times this constant: about the loop's time on the host the benchmark was
# built on.
CAL_SECONDS = 1e-3


def _setup(workload: str):
    """Import the program, load the corpus and generate the models."""
    sys.path.insert(0, str(SRC))
    # Imported here, not at the top, so that set-up time counts the import.
    import splicerank
    import workloads

    if not Path(splicerank.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"splicerank was imported from outside {SRC}")
    if workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    shipped, models, load_s = workloads.setup(wl)
    return workloads, wl, shipped, models, load_s


def _run_setup_probe(workload: str) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, in seconds and in cal."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, cal = done.stdout.split()[-2:]
    return float(seconds), float(cal)


def _percentile(samples: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(level * len(ordered) - 1e-9))
    return ordered[rank - 1]


# The host's speed varies by up to 2x over tens of seconds, and by about 20%
# from second to second, so raw timings of one run are not comparable with
# another's.  A timed pass therefore samples the speed with a fixed
# calibration loop: once in every gap between calls and, on a timer, every
# CAL_PERIOD seconds while a call runs.  A call's latency, less the time of
# the samples taken inside it, is divided by the mean of the samples from the
# gap before, from inside and from the gap after, which gives it in units of
# the loop ("cal").  The loop does big-integer XOR elimination and dict
# lookups like the program, and allocates nothing the garbage collector
# tracks, so the program's heap cannot change its speed.
CAL_PERIOD = 0.05
_CAL_ROWS = tuple((i * 0x9E3779B97F4A7C15) & ((1 << 300) - 1) for i in range(1, 120))
_CAL_TABLE = {i: i * i for i in range(97)}


def calibrate() -> float:
    """Time one run of the calibration loop, in seconds."""
    t = perf_counter()
    rows = list(_CAL_ROWS)
    for r in range(24):
        pivot = rows[r]
        for j in range(len(rows)):
            if rows[j] >> 7 & 1:
                rows[j] ^= pivot
    acc = 0
    for i in range(8000):
        acc += _CAL_TABLE[i % 97] & i
    return perf_counter() - t


class _Ticks:
    """Calibration samples taken on a timer while ``paused`` is false."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = True

    def _tick(self, signum, frame):
        if not self.paused:
            self.samples.append(calibrate())

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD, CAL_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def _call(W, call, models, rec):
    """One call, in a span of ``rec`` unless it is None: (answer, error)."""
    try:
        if rec is None:
            return W.plain(call, models), None
        with rec.span("pipeline.call"):
            return W.plain(call, models), None
    except Exception:  # a call that raises is a failed call; the run goes on
        return None, traceback.format_exc()


def _timed_pass(W, order, models):
    """An untraced pass that samples the host's speed.

    Returns each call's latency in seconds and in cal, and the results.
    """
    latencies, scaled, results = [], [], []
    with _Ticks() as ticks:
        before = calibrate()
        for call in order:
            first = len(ticks.samples)
            t = perf_counter()
            # unpaused after the clock is read and paused before it is read
            # again, so every sample taken counts inside the call
            ticks.paused = False
            raw, error = _call(W, call, models, None)
            ticks.paused = True
            inside = ticks.samples[first:]
            latency = perf_counter() - t - sum(inside)
            after = calibrate()
            latencies.append(latency)
            scaled.append(latency / statistics.fmean([before, *inside, after]))
            results.append((call, raw, error))
            before = after
    return latencies, scaled, results


def _probe_setup(workload: str) -> tuple[float, float]:
    """Set up in this interpreter, with the host's speed sampled as in a
    timed pass: the set-up time in seconds and in cal."""
    for _ in range(20):  # let the interpreter specialise the loop first
        calibrate()
    with _Ticks() as ticks:
        before = [calibrate() for _ in range(5)]
        t = perf_counter()
        ticks.paused = False
        _setup(workload)
        ticks.paused = True
        inside = list(ticks.samples)
        seconds = perf_counter() - t - sum(inside)
        after = [calibrate() for _ in range(5)]
    return seconds, seconds / statistics.fmean(before + inside + after)


def _trace_pass(W, order, models, rec):
    """A pass of the traced run, in spans of ``rec`` unless it is None:
    its wall time and results."""
    t0 = perf_counter()
    results = [(call, *_call(W, call, models, rec)) for call in order]
    return perf_counter() - t0, results


def _check_pass(W, results, reference, ambient) -> dict:
    failures = {}
    outs = {}
    for call, raw, error in results:
        if error is not None:
            failures[call] = error.strip().splitlines()[-1]
            print(error, file=sys.stderr)
            continue
        outs[call] = W.outcome(call, raw)
        found = W.problems(call, outs[call], reference, ambient)
        if found:
            failures[call] = "; ".join(found)
    for call, message in W.swap_problems(outs).items():
        failures.setdefault(call, message)
    return failures


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end_metrics(setup_times, walls, latencies, tail_level) -> dict:
    return {
        "setup_s": _metric(CAL_SECONDS * statistics.median(cal for _, cal in setup_times), "s"),
        "wall_cal": _metric(statistics.median(walls), "cal"),
        "call_p50_cal": _metric(_percentile(latencies, 0.5), "cal"),
        "call_p90_cal": _metric(_percentile(latencies, tail_level), "cal"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _layer_metrics(W, traced_passes, untraced_walls, load_s) -> dict:
    def mean(values):
        return statistics.fmean(values) if values else 0.0

    wall = mean([p["wall"] for p in traced_passes])
    metrics = {}
    for name in W.SPAN_NAMES:
        self_s = mean([p["self"].get(name, (0.0, 0))[0] for p in traced_passes])
        metrics[f"{name}_s"] = _metric(self_s, "s")
        metrics[f"{name}_calls"] = _metric(
            mean([p["self"].get(name, (0.0, 0))[1] for p in traced_passes]), "count"
        )
        metrics[f"{name}_share"] = _metric(self_s / wall, "ratio")
    for name in W.COUNTER_NAMES:
        metrics[name] = _metric(mean([p["counters"].get(name, 0) for p in traced_passes]), "count")
    checked = sum(p["counters"].get("splice.witnesses_checked", 0) for p in traced_passes)
    nonzero = sum(p["counters"].get("splice.witnesses_nonzero", 0) for p in traced_passes)
    metrics["splice.witness_useful_ratio"] = _metric(nonzero / checked if checked else 0.0, "ratio")
    builds = mean([p["counters"].get("pipeline.package_builds", 0) for p in traced_passes])
    distinct = mean([p["knots"] for p in traced_passes])
    metrics["pipeline.distinct_knots"] = _metric(distinct, "count")
    metrics["pipeline.builds_per_knot"] = _metric(builds / distinct if distinct else 0.0, "ratio")
    metrics["corpus.load_s"] = _metric(load_s, "s")
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.overhead_s"] = _metric(wall - mean(untraced_walls), "s")
    metrics["trace.uncovered_s"] = _metric(mean([p["wall"] - p["root"] for p in traced_passes]), "s")
    return metrics


def _write_spans(workload: str, seed: int, traced_passes) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    doc = [
        {
            "wall": p["wall"],
            "counters": p["counters"],
            "spans": [[s.name, s.start, s.end, s.parent, s.call] for s in p["spans"]],
        }
        for p in traced_passes
    ]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.setup_probe:
            print(*map(repr, _probe_setup(args.workload)))
            return 0
        W, wl, shipped, models, load_s = _setup(args.workload)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 1

    setup_failures = W.generator_mismatches(shipped)
    for message in setup_failures:
        print(f"FAIL generator: {message}", file=sys.stderr)
    reference = W.load_reference()
    ambient = W.unknot_ranks(models) if "unknot" in models else {}
    setup_times: list[tuple[float, float]] = []

    rng = Random(args.seed)
    walls: list[float] = []
    traced_passes: list[dict] = []
    latencies: list[float] = []
    scaled_walls: list[float] = []
    scaled: list[float] = []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    while True:
        order = rng.sample(wl.calls, len(wl.calls))
        rec = None
        if not args.trace:
            lat, lat_cal, results = _timed_pass(W, order, models)
            wall = sum(lat)
            latencies += lat
            scaled_walls.append(sum(lat_cal))
            scaled += lat_cal
        elif len(walls) > len(traced_passes):
            rec = SpanRecorder()
            with W.instrumented(rec):
                wall, results = _trace_pass(W, order, models, rec)
        else:
            wall, results = _trace_pass(W, order, models, None)
        failures = _check_pass(W, results, reference, ambient)
        for call, message in failures.items():
            print(f"FAIL {wl.name} {call.kind} {call.key}: {message}", file=sys.stderr)
        attempted += len(results)
        failed += len(failures)
        if rec is None:
            walls.append(wall)
            if not args.trace:
                setup_times.append(_run_setup_probe(args.workload))
        else:
            traced_passes.append(
                {
                    "wall": wall,
                    "self": rec.self_times(),
                    "root": rec.root_time(),
                    "counters": dict(rec.counters),
                    "knots": len(rec.knots),
                    "spans": rec.spans,
                }
            )
        # stop when the next pass would end nearer after the deadline than
        # this one ends before it
        if perf_counter() + wall / 2 < deadline:
            continue
        if args.trace and traced_passes:
            break
        if not args.trace and len(walls) >= wl.min_passes:
            break

    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(_run_setup_probe(args.workload))
    correct = failed == 0 and not setup_failures
    if args.trace:
        metrics = _layer_metrics(W, traced_passes, walls, load_s)
        path = _write_spans(wl.name, args.seed, traced_passes)
        print(f"# spans of {len(traced_passes)} traced passes written to {path}")
    else:
        metrics = _end_to_end_metrics(setup_times, scaled_walls, scaled, wl.tail_level)
        print(
            f"# {wl.name}: {len(walls)} passes, {len(latencies)} call samples; "
            f"call_p90_cal is the p{100 * wl.tail_level:.1f} latency"
        )
        print(
            f"# raw: set-up median {statistics.median(s for s, _ in setup_times):.4f} s, "
            f"pass median {statistics.median(walls):.4f} s, call p50 "
            f"{1e3 * _percentile(latencies, 0.5):.2f} ms, call p{100 * wl.tail_level:.1f} "
            f"{1e3 * _percentile(latencies, wl.tail_level):.2f} ms"
        )
        print("# pass walls (s): " + " ".join(f"{w:.4f}" for w in walls))
        print("# pass walls (cal): " + " ".join(f"{w:.1f}" for w in scaled_walls))
    print(f"# fail_ratio = {failed}/{attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
