"""Workloads of the splicerank benchmark: models, calls and their checks.

Every model is shipped in the corpus or generated here: torus-knot
staircases from the Alexander polynomial, and ``random_complex`` seeds.
A call is one ``(K1, K2) -> h`` from the two complexes, or one check call.
Each call runs through the public API as a user would make it.  A traced
pass runs the same calls with the program's public functions wrapped in
spans from outside the program (``instrumented``).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from importlib import import_module
from itertools import product
from math import ceil
from pathlib import Path
from time import perf_counter

from splicerank import duality, filtration, splice
from splicerank.corpus import corpus, corpus_names
from splicerank.model import BifilteredComplex, hf_hat, random_complex, staircase

from spans import SpanRecorder

REFERENCE = Path(__file__).with_name("reference.json")

# The tail latency is the highest percentile with at least ten samples beyond
# it.  Its level is fixed per workload from the guaranteed sample count, so
# that every run reads the same order statistic of the same call mix.
MIN_CALL_SAMPLES = 36
TAIL_SAMPLES = 10


# -- torus-knot staircases ----------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials (lowest degree first); the division
    must leave no remainder and only integer coefficients."""
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + len(den) - 1], den[-1])
        if r:
            raise ValueError("non-integral quotient coefficient")
        quot[k] = c
        for j, y in enumerate(den):
            rem[k + j] -= c * y
    if any(rem):
        raise ValueError("polynomial division leaves a remainder")
    return quot


def _t_power_minus_one(k: int) -> list[int]:
    return [-1] + [0] * (k - 1) + [1]


def torus_alexander(p: int, q: int) -> list[int]:
    """Coefficients of (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    if p < 2 or q < 2:
        raise ValueError(f"T({p},{q}) needs p, q >= 2")
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    den = _poly_mul(_t_power_minus_one(p), _t_power_minus_one(q))
    return _poly_div_exact(num, den)


def torus_steps(p: int, q: int) -> list[int]:
    """Staircase step lengths: the gaps between the exponents of the
    nonzero Alexander coefficients."""
    exps = [e for e, c in enumerate(torus_alexander(p, q)) if c]
    return [b - a for a, b in zip(exps, exps[1:])]


def _torus(p: int, q: int) -> str:
    return f"T({p},{q})"


def torus_staircase(p: int, q: int) -> BifilteredComplex:
    return staircase(torus_steps(p, q), _torus(p, q))


# The corpus staircases the generator must reproduce.
CORPUS_TORUS = {
    "trefoil_staircase": (2, 3),
    "t25_staircase": (2, 5),
    "t27_staircase": (2, 7),
    "t34_staircase": (3, 4),
    "t35_staircase": (3, 5),
}


def _shape(model: BifilteredComplex):
    """The model up to renaming generators, which are put in grading order."""
    order = sorted(model.generators, key=lambda g: (g.alexander, g.id))
    index = {g.id: k for k, g in enumerate(order)}
    return (
        [g.alexander for g in order],
        sorted((index[a.src], index[a.dst], a.drop_i, a.drop_j) for a in model.arrows),
        sorted((index[x], index[y]) for x, y in (model.symmetry or {}).items()),
        model.flip,
        model.tau_override,
    )


def generator_mismatches(shipped: dict[str, BifilteredComplex]) -> list[str]:
    return [
        f"{_torus(*pq)} does not reproduce {name}"
        for name, pq in CORPUS_TORUS.items()
        if _shape(torus_staircase(*pq)) != _shape(shipped[name])
    ]


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    kind: str  # "rank", "lemmas" or "theorem"
    knots: tuple[str, ...]

    @property
    def key(self) -> str:
        return " x ".join(self.knots)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]

    @property
    def knots(self) -> list[str]:
        return sorted({k for c in self.calls for k in c.knots})

    @property
    def min_passes(self) -> int:
        return ceil(MIN_CALL_SAMPLES / len(self.calls))

    @property
    def tail_level(self) -> float:
        n = self.min_passes * len(self.calls)
        return min(0.9, 1 - TAIL_SAMPLES / n)


# Named, not listed from the data directory, so the workload stays the same
# when the corpus grows.
_PAIR_KNOTS = [
    "fig8_box",
    "t25_staircase",
    "t25_staircase_mirror",
    "t27_staircase",
    "t34_staircase",
    "t34_staircase_mirror",
    "t35_staircase",
    "trefoil_staircase",
    "trefoil_staircase_mirror",
    "unknot",
] + [f"random-{s}" for s in range(6)]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "splice-large",
            tuple(
                Call("rank", (_torus(*a), _torus(*b)))
                for a, b in (((2, 21), (2, 21)), ((4, 7), (5, 6)), ((6, 7), (6, 7)))
            ),
        ),
        Workload(
            "pairs-all",
            tuple(Call("rank", pair) for pair in product(_PAIR_KNOTS, repeat=2)),
        ),
        Workload(
            "verify-long",
            tuple(Call("lemmas", (_torus(*pq),)) for pq in ((2, 41), (2, 61), (9, 10)))
            + tuple(
                Call("theorem", (_torus(*a), _torus(*b)))
                for a, b in (((4, 7), (5, 6)), ((3, 7), (3, 7)))
            ),
        ),
    )
}


def _make_model(name: str, shipped: dict[str, BifilteredComplex]) -> BifilteredComplex:
    if name in shipped:
        return shipped[name]
    if name.startswith("random-"):
        return random_complex(int(name[len("random-"):]))
    p, q = name[2:-1].split(",")
    return torus_staircase(int(p), int(q))


def setup(workload: Workload) -> tuple[dict[str, BifilteredComplex], dict[str, BifilteredComplex], float]:
    """Load the corpus and generate the workload's models.

    Returns the shipped corpus, the workload's models and the corpus load
    time in seconds.
    """
    t0 = perf_counter()
    shipped = {name: corpus(name) for name in corpus_names()}
    load_s = perf_counter() - t0
    models = {name: _make_model(name, shipped) for name in workload.knots}
    return shipped, models, load_s


# -- the calls, and the spans of a traced pass ---------------------------------


def plain(call: Call, models: dict[str, BifilteredComplex]):
    """One call through the public API, as a user would make it.

    Functions are looked up on their modules at call time, so that a traced
    pass sees the wrappers ``instrumented`` puts there.
    """
    knots = [models[k] for k in call.knots]
    if call.kind == "rank":
        return splice.splice_rank(
            duality.geometric_package(knots[0]), duality.geometric_package(knots[1])
        )
    if call.kind == "lemmas":
        return filtration.check_all_lemmas(knots[0]), duality.stats(
            duality.geometric_package(knots[0])
        )
    p1, p2 = duality.geometric_package(knots[0]), duality.geometric_package(knots[1])
    return splice.theorem_check(p1, p2), splice.subspace_bounds(p1, p2)


# The public functions a traced pass wraps in spans: (module, function, span).
# The span of splice_rank is "splice.rank": build_D is its child span, so its
# self time is the elimination of D.  The four lemma checks share one span.
TRACED = (
    ("surgery", "total_package", "surgery.total_package"),
    ("duality", "geometric_package", "duality.geometric_package"),
    ("duality", "build_tau", "duality.build_tau"),
    ("duality", "normalize", "duality.normalize"),
    ("duality", "stats", "duality.stats"),
    ("splice", "build_D", "splice.build_D"),
    ("splice", "splice_rank", "splice.rank"),
    ("splice", "kernel_witnesses", "splice.kernel_witnesses"),
    ("splice", "subspace_bounds", "splice.subspace_bounds"),
    ("splice", "theorem_check", "splice.theorem_check"),
    ("filtration", "profile", "filtration.profile"),
    ("filtration", "check_all_lemmas", "filtration.check_all_lemmas"),
    ("filtration", "lemma31_check", "filtration.lemmas"),
    ("filtration", "lemma32_check", "filtration.lemmas"),
    ("filtration", "lemma33_check", "filtration.lemmas"),
    ("filtration", "lemma37_check", "filtration.lemmas"),
)
SPAN_NAMES = ("pipeline.call",) + tuple(dict.fromkeys(name for _, _, name in TRACED))


# Counters, read from what the wrapped calls return.  Each hook gets the
# recorder, the index of the call's span, its arguments and its result.


def _count_triple(rec: SpanRecorder, index, args, triple) -> None:
    rec.count("surgery.window_levels", len(triple.window))
    rec.count(
        "surgery.cone_dim_sum",
        sum(triple.cones0[s].cone.dim + triple.cones1[s].cone.dim for s in triple.window),
    )


def _count_knot(rec: SpanRecorder, index, args, package) -> None:
    rec.knots.add(args[0].name)


def _count_build(rec: SpanRecorder, index, args, package) -> None:
    rec.count("pipeline.package_builds")
    rec.count("duality.package_dim", package.a0 + package.a1 + package.a_inf)


def _count_D(rec: SpanRecorder, index, args, built) -> None:
    d = built.matrix
    rec.count("splice.D_rows", d.rows)
    rec.count("splice.D_cols", d.cols)
    rec.count("splice.D_nnz", sum(row.bit_count() for row in d.row_bits))
    rec.last_D = (index, d.cols)


def _count_rank(rec: SpanRecorder, index, args, rank) -> None:
    # rank D = cols - dim Ker, for the D this splice_rank call built
    built, cols = rec.last_D
    if built is not None and rec.spans[built].parent == index:
        rec.count("splice.D_rank", cols - rank.ker)


def _count_witnesses(rec: SpanRecorder, index, args, report) -> None:
    rec.count("splice.witnesses_checked", report.checked)
    rec.count("splice.witnesses_nonzero", report.nonzero)


HOOKS = {
    "surgery.total_package": _count_triple,
    "duality.geometric_package": _count_knot,
    "duality.normalize": _count_build,
    "splice.build_D": _count_D,
    "splice.rank": _count_rank,
    "splice.kernel_witnesses": _count_witnesses,
}
COUNTER_NAMES = (
    "splice.D_rows",
    "splice.D_cols",
    "splice.D_nnz",
    "splice.D_rank",
    "surgery.window_levels",
    "surgery.cone_dim_sum",
    "duality.package_dim",
    "splice.witnesses_checked",
    "pipeline.package_builds",
)


def _spanned(rec: SpanRecorder, fn, name: str):
    hook = HOOKS.get(name)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as index:
            out = fn(*args, **kwargs)
        if hook is not None:
            hook(rec, index, args, out)
        return out

    return wrapper


@contextmanager
def instrumented(rec: SpanRecorder):
    """Within the block, every function in TRACED runs inside a span of
    ``rec``: it is replaced in every loaded ``splicerank`` module that holds
    it, and put back when the block ends."""
    namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "splicerank"]
    patched = []
    try:
        for module, func, name in TRACED:
            original = getattr(import_module(f"splicerank.{module}"), func)
            wrapper = _spanned(rec, original, name)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        patched.append((ns, attr, original))
        yield
    finally:
        for ns, attr, original in reversed(patched):
            setattr(ns, attr, original)


# -- outcomes and the correctness gate ----------------------------------------


def outcome(call: Call, raw) -> dict:
    """The JSON form of a call's answer, as kept in the reference table."""
    if call.kind == "rank":
        return asdict(raw)
    if call.kind == "lemmas":
        reports, package_stats = raw
        return {
            "lemmas": {
                name: [[e.label, e.lhs, e.rhs] for e in report.entries]
                for name, report in reports.items()
            },
            "stats": asdict(package_stats),
        }
    verdict, bounds = raw
    return {"verdict": asdict(verdict), "bounds": [asdict(b) for b in bounds]}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def unknot_ranks(models: dict[str, BifilteredComplex]) -> dict[str, int]:
    """hf_hat(K).dim, the expected h(K, unknot), for every model."""
    return {name: hf_hat(m).dim for name, m in models.items()}


def problems(call: Call, out: dict, reference: dict, ambient: dict[str, int]) -> list[str]:
    """Mismatches against the reference table and the table-free invariants."""
    found = []
    if out != reference[call.kind].get(call.key):
        found.append("differs from the reference table")
    if call.kind == "rank":
        h = out["h"]
        if h % 2 == 0:
            found.append(f"h = {h} is even")
        if "unknot" in call.knots:
            other = call.knots[1] if call.knots[0] == "unknot" else call.knots[0]
            if h != ambient[other]:
                found.append(f"h = {h} but hf_hat({other}) has rank {ambient[other]}")
    elif call.kind == "lemmas":
        found += [
            f"{name} {label}: {lhs} != {rhs}"
            for name, entries in out["lemmas"].items()
            for label, lhs, rhs in entries
            if lhs != rhs
        ]
    else:
        verdict = out["verdict"]
        if verdict["h"] % 2 == 0:
            found.append(f"h = {verdict['h']} is even")
        if verdict["applicable"] and not verdict["holds"]:
            found.append("rank inequality fails")
        if not verdict["witness_bounds_hold"]:
            found.append("witness bounds fail")
        found += [
            f"subspace bound {b['label']} fails"
            for b in out["bounds"]
            if b["hypothesis_met"] and not (b["ker_ok"] and b["coker_ok"])
        ]
    return found


def swap_problems(outs: dict[Call, dict]) -> dict[Call, str]:
    """Calls whose h differs from the h of the same pair in the other order."""
    bad = {}
    for call, out in outs.items():
        if call.kind != "rank":
            continue
        other = outs.get(Call("rank", call.knots[::-1]))
        if other is not None and other["h"] != out["h"]:
            bad[call] = f"h = {out['h']} but the swapped pair gives {other['h']}"
    return bad
