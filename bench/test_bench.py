"""Tests of the benchmark itself: generator, traced passes, gate, names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from splicerank import duality, filtration, splice  # noqa: E402
from splicerank.corpus import corpus, corpus_names  # noqa: E402
from splicerank.duality import geometric_package  # noqa: E402
from splicerank.splice import build_D  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Cheap calls of every kind; all of them are in the reference table.
SMALL_RANK = W.Call("rank", ("trefoil_staircase", "fig8_box"))
SMALL_CALLS = (
    SMALL_RANK,
    W.Call("rank", ("random-3", "t34_staircase_mirror")),
    W.Call("rank", ("unknot", "t35_staircase")),
)


def _models(*names):
    shipped = {n: corpus(n) for n in corpus_names()}
    return {n: W._make_model(n, shipped) for n in names}


@pytest.mark.parametrize(
    "pq, steps, name",
    [
        ((2, 3), [1, 1], "trefoil_staircase"),
        ((2, 5), [1, 1, 1, 1], "t25_staircase"),
        ((2, 7), [1, 1, 1, 1, 1, 1], "t27_staircase"),
        ((3, 4), [1, 2, 2, 1], "t34_staircase"),
        ((3, 5), [1, 2, 1, 1, 2, 1], "t35_staircase"),
    ],
)
def test_torus_generator_matches_corpus(pq, steps, name):
    assert W.torus_steps(*pq) == steps
    assert W._shape(W.torus_staircase(*pq)) == W._shape(corpus(name))


def test_generator_check_passes_and_catches_a_wrong_model():
    shipped = {n: corpus(n) for n in corpus_names()}
    assert W.generator_mismatches(shipped) == []
    shipped["t34_staircase"] = corpus("t35_staircase")
    assert W.generator_mismatches(shipped) == ["T(3,4) does not reproduce t34_staircase"]


def test_torus_alexander_is_exact():
    assert W.torus_alexander(2, 3) == [1, -1, 1]
    assert W.torus_alexander(3, 4) == [1, -1, 0, 1, 0, -1, 1]
    with pytest.raises(ValueError):
        W._poly_div_exact([1, 0, 1], [-1, 1])


def _check_accounting(rec: SpanRecorder):
    # self-times of all spans add up to the time the root spans cover
    total_self = sum(s for s, _ in rec.self_times().values())
    assert total_self == pytest.approx(rec.root_time(), rel=1e-9, abs=1e-9)
    for span in rec.spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = rec.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.call == span.call


def _traced(calls, models):
    """Outcomes of the calls in a traced pass, and the recorder."""
    rec = SpanRecorder()
    with W.instrumented(rec):
        outs = []
        for call in calls:
            with rec.span("pipeline.call"):
                outs.append(W.outcome(call, W.plain(call, models)))
    return outs, rec


def test_traced_pass_spans_the_program_and_puts_it_back():
    originals = (duality.geometric_package, duality.stats, splice.stats, filtration.total_package)
    models = _models(*{k for c in SMALL_CALLS for k in c.knots})
    outs, rec = _traced(SMALL_CALLS, models)
    assert outs == [W.outcome(c, W.plain(c, models)) for c in SMALL_CALLS]
    assert (duality.geometric_package, duality.stats, splice.stats, filtration.total_package) == originals
    _check_accounting(rec)
    assert set(rec.self_times()) <= set(W.SPAN_NAMES)

    _, first = _traced([SMALL_RANK], models)
    d = build_D(
        geometric_package(models["trefoil_staircase"]), geometric_package(models["fig8_box"])
    ).matrix
    rank = first.spans[next(i for i, s in enumerate(first.spans) if s.name == "splice.rank")]
    assert [s.name for s in first.spans if s.parent == first.spans.index(rank)] == ["splice.build_D"]
    assert (first.counters["splice.D_rows"], first.counters["splice.D_cols"]) == (d.rows, d.cols)
    assert first.counters["splice.D_rank"] == d.rank()
    assert first.counters["pipeline.package_builds"] == 2


def test_package_builds_count_what_the_program_builds(monkeypatch):
    # a program that memoises geometric_package builds each knot once
    cache = {}
    build = duality.geometric_package

    def memoised(complex_, triple=None):
        if complex_.name not in cache:
            cache[complex_.name] = build(complex_, triple)
        return cache[complex_.name]

    monkeypatch.setattr(duality, "geometric_package", memoised)
    models = _models("trefoil_staircase", "fig8_box")
    _, rec = _traced([SMALL_RANK, SMALL_RANK, W.Call("rank", SMALL_RANK.knots[::-1])], models)
    assert rec.counters["pipeline.package_builds"] == 2
    assert len(rec.knots) == 2
    assert rec.self_times()["duality.geometric_package"][1] == 6


def test_traced_check_calls_open_their_spans():
    models = _models("T(2,5)", "T(3,4)")
    calls = (W.Call("lemmas", ("T(2,5)",)), W.Call("theorem", ("T(3,4)", "T(2,5)")))
    outs, rec = _traced(calls, models)
    for call, out in zip(calls, outs):
        assert W.problems(call, out, {call.kind: {call.key: out}}, {}) == []
    _check_accounting(rec)
    calls_of = {name: n for name, (_, n) in rec.self_times().items()}
    assert calls_of["filtration.lemmas"] == 4
    assert calls_of["filtration.profile"] >= 1
    assert calls_of["splice.kernel_witnesses"] == 1
    assert calls_of["splice.subspace_bounds"] == 1
    assert rec.counters["splice.witnesses_checked"] > 0


def test_invariants_catch_wrong_answers():
    reference = W.load_reference()
    ambient = W.unknot_ranks(_models("t35_staircase"))
    call = W.Call("rank", ("unknot", "t35_staircase"))
    good = reference["rank"][call.key]
    assert W.problems(call, good, reference, ambient) == []
    bad = dict(good, h=good["h"] + 2, ker=good["ker"] + 2)
    assert len(W.problems(call, bad, reference, ambient)) == 2
    swapped = W.Call("rank", call.knots[::-1])
    assert W.swap_problems({call: good, swapped: bad}).keys() == {call, swapped}


def _tiny_workload(monkeypatch, tmp_path):
    tiny = W.Workload("pairs-all", SMALL_CALLS)
    monkeypatch.setitem(W.WORKLOADS, "pairs-all", tiny)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, tmp_path, trace, section):
    _tiny_workload(monkeypatch, tmp_path)
    code = run.main(["--workload", "pairs-all", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = _last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_wrong_answer_fails_the_run(monkeypatch, capsys, tmp_path):
    _tiny_workload(monkeypatch, tmp_path)
    reference = W.load_reference()
    reference["rank"][SMALL_RANK.key] = dict(reference["rank"][SMALL_RANK.key], h=-1)
    monkeypatch.setattr(W, "load_reference", lambda: reference)
    code = run.main(["--workload", "pairs-all", "--seconds", "0", "--trace", "0"])
    result = _last_json(capsys)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_tail_latency_keeps_ten_samples_beyond_it():
    wl = W.WORKLOADS["splice-large"]
    n = wl.min_passes * len(wl.calls)
    samples = list(range(n))
    assert run._percentile(samples, wl.tail_level) == n - 11
    assert run._percentile(list(range(1000)), W.WORKLOADS["pairs-all"].tail_level) == 899


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    assert len(W.WORKLOADS["pairs-all"].calls) == 256
    for wl in W.WORKLOADS.values():
        assert wl.min_passes * len(wl.calls) >= W.MIN_CALL_SAMPLES


def test_reference_covers_every_call():
    reference = W.load_reference()
    for wl in W.WORKLOADS.values():
        for call in wl.calls:
            assert call.key in reference[call.kind], (wl.name, call.key)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pairs-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
