"""Bad arguments fail with a typed error, also under ``python -O``."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import splicerank
from splicerank import duality, filtration, homology, model, surgery
from splicerank.corpus import corpus
from splicerank.duality import NormalBasis, PackageStats, SurgeryPackage
from splicerank.errors import ShapeMismatch
from splicerank.filtration import FiltrationProfile
from splicerank.gf2 import Gf2Matrix
from splicerank.homology import ChainComplexF2, HomologySpace
from splicerank.model import BifilteredComplex, FlipMap
from splicerank.surgery import MappingCone, PlaneStore, SurgeryTotals, SurgeryTriple


# The duality maps tau0, tau1 and tau_inf, a plain triple.
TAUS = typing.get_type_hints(duality.normal_basis)["taus"]

# The pipeline's stage objects: a public function or constructor that takes
# one is an entry point, and each argument of one of these types is a slot
# the surface test fills with a bad value.
LIBRARY_TYPES = (
    BifilteredComplex,
    SurgeryTriple,
    SurgeryTotals,
    TAUS,
    NormalBasis,
    SurgeryPackage,
    PackageStats,
    FiltrationProfile,
)

# The chain-complex and label helpers underneath take matrices, complexes,
# homology spaces and flips: an argument of one of these types is a slot
# too, in a public function of the modules that build the complexes, and in
# the constructors of the records that check their arguments when built:
# the package, whose dims and taus key the pair values, and the chain
# complex, cone, flip, homology space and plane store of the cold path.
# test_gf2 covers the GF(2) module's own matrix operands.
HELPER_TYPES = (Gf2Matrix, ChainComplexF2, HomologySpace, FlipMap)
HELPER_MODULES = ("splicerank.homology", "splicerank.model", "splicerank.surgery")
CHECKED_RECORDS = (SurgeryPackage, ChainComplexF2, MappingCone, FlipMap, HomologySpace, PlaneStore)

# Values of the wrong kind for every slot, and "other-kind": a package where a
# complex belongs and a complex anywhere else.  None is a good value for an
# optional slot, so it is not tried there.
BAD = {"none": None, "int": 3, "str": "x", "float": 1.5}

# Slots swept under their field's label as well, (record, field): the cone
# is MappingCone's one complex, so the record's label names it, and its
# cases keep their field label too.
FIELD_LABELS = {(MappingCone, "cone")}


def public_callables() -> list[tuple[str, object]]:
    """(name, function or class) for every public function the library's
    modules define, and every public class whose constructor is written in
    Python (not inherited from ``Exception``, ``tuple`` or ``object``), in
    module and source order."""
    out = []
    for info in pkgutil.iter_modules(splicerank.__path__):
        module = importlib.import_module(f"splicerank.{info.name}")
        out += [
            (name, obj)
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj) and inspect.isfunction(obj.__init__))
            and obj.__module__ == module.__name__
        ]
    return out


def _hints(obj) -> dict:
    """The parameter type hints of a function, or of a class's constructor."""
    return typing.get_type_hints(obj.__init__ if inspect.isclass(obj) else obj)


def _kinds(hint, types: tuple[type, ...]) -> tuple[type, ...]:
    """The types a hint admits: the hint itself (the triple of duality maps
    is one), or a member of a union."""
    if hint in types:
        return (hint,)
    return tuple(t for t in typing.get_args(hint) or (hint,) if t in types)


def surface() -> list[tuple[str, object, str, tuple[type, ...], bool]]:
    """(label, callable, parameter, its library types, whether None is good)
    for every slot of every entry point.  The label is the callable's name for
    its first slot; the second slot adds "-second" if it has the first's
    type, and any other slot its parameter name; a slot in ``FIELD_LABELS``
    is listed again under "-" and its parameter name."""
    out = []
    for name, obj in public_callables():
        hints = _hints(obj)
        helper = inspect.isfunction(obj) and obj.__module__ in HELPER_MODULES or obj in CHECKED_RECORDS
        types = LIBRARY_TYPES + HELPER_TYPES if helper else LIBRARY_TYPES
        slots = [
            (param, _kinds(hints.get(param), types), type(None) in typing.get_args(hints.get(param)))
            for param in inspect.signature(obj).parameters
            if not param.startswith("_") and _kinds(hints.get(param), types)
        ]
        for k, (param, kinds, optional) in enumerate(slots):
            label = name if k == 0 else f"{name}-{'second' if k == 1 and kinds == slots[0][1] else param}"
            out.append((label, obj, param, kinds, optional))
            if (obj, param) in FIELD_LABELS:
                out.append((f"{name}-{param}", obj, param, kinds, optional))
    return out


SURFACE = surface()
CASES = [
    pytest.param(obj, slot, kinds, bad, id=f"{label}-{bad}")
    for label, obj, slot, kinds, optional in SURFACE
    for bad in (*BAD, "other-kind")
    if not (optional and bad == "none")
]


@pytest.fixture(scope="module")
def good(tmp_path_factory) -> dict:
    """A valid value for each parameter type, and a path to write to."""
    c = corpus("trefoil_staircase")
    triple = surgery.total_package(c)
    package = duality.geometric_package(c, triple)
    maps = duality.build_tau(c, triple)
    basis = duality.normal_basis(triple.totals, maps)
    plane = model.plane_i0(c)
    helper_hints = typing.get_type_hints(surgery.label_columns) | typing.get_type_hints(homology.induced_by_columns)
    complex_hints = _hints(ChainComplexF2)
    return {
        BifilteredComplex: c,
        SurgeryTriple: triple,
        SurgeryTotals: triple.totals,
        TAUS: maps,
        NormalBasis: basis,
        SurgeryPackage: package,
        PackageStats: duality.stats(package),
        FiltrationProfile: filtration.profile(c),
        ChainComplexF2: plane,
        HomologySpace: HomologySpace(plane),
        FlipMap: triple.flip,
        Gf2Matrix: plane.boundary,
        str: str(tmp_path_factory.mktemp("dump") / "out.json"),
        # the plain arguments of the helpers and records: an int (a dim or a
        # level), a label map, columns
        int: 0,
        helper_hints["fn"]: lambda label: label,
        helper_hints["columns"]: [],
        # the labels of a chain complex
        complex_hints["basis"]: plane.basis,
    }


@pytest.mark.parametrize("obj, slot, kinds, bad", CASES)
def test_an_argument_of_another_type_is_a_shape_mismatch(good, obj, slot, kinds, bad):
    if bad in BAD:
        value = BAD[bad]
    else:
        value = good[SurgeryPackage] if BifilteredComplex in kinds else good[BifilteredComplex]
    hints = _hints(obj)
    args = {
        param: good[hints[param]]
        for param, p in inspect.signature(obj).parameters.items()
        if param != slot and p.default is inspect.Parameter.empty
    }
    with pytest.raises(ShapeMismatch) as info:
        obj(**args, **{slot: value})
    assert info.type is ShapeMismatch


def test_the_surface_covers_every_entry_point():
    # every public callable's parameters are annotated, so none hides from
    # the enumeration, and the enumeration finds the pipeline's entry points
    unhinted = [
        f"{name}({param})"
        for name, obj in public_callables()
        for param in inspect.signature(obj).parameters
        if param not in _hints(obj)
    ]
    assert unhinted == []
    labels = {label for label, *_ in SURFACE}
    assert {
        "SurgeryTriple",
        "total_package",
        "geometric_package",
        "geometric_package-triple",
        "build_tau-triple",
        "check_all_lemmas",
        "lemma31_check-prof",
        "normal_basis",
        "normal_basis-taus",
        "normalize",
        "NormalBasis",
        "ChainComplexF2",
        "induced_by_columns",
        "induced_by_columns-second",
        "sigma_chain_map-target",
        "label_columns-second",
        "kernel_witnesses-second",
        "splice_rank-second",
        "theorem_check-second",
        "complex_to_dict",
        "dump_complex",
        "SurgeryPackage",
        "SurgeryPackage-second",
        "SurgeryPackage-tau_inf",
        "MappingCone",
        "HomologySpace",
        "PlaneStore",
        "FlipMap",
        "FlipMap-second",
        "FlipMap-matrix",
    } <= labels
    assert len(labels) >= 36


@pytest.mark.parametrize("bad", [*BAD, "other-kind"])
@pytest.mark.parametrize("slot", range(3), ids=["tau0", "tau1", "tau_inf"])
def test_a_triple_of_duality_maps_holding_another_type_is_a_shape_mismatch(good, slot, bad):
    # the duality maps are a plain triple: normal_basis refuses one with
    # anything but a Gf2Matrix in any of its three places
    taus = list(good[TAUS])
    taus[slot] = BAD[bad] if bad in BAD else good[BifilteredComplex]
    with pytest.raises(ShapeMismatch) as info:
        duality.normal_basis(good[SurgeryTotals], tuple(taus))
    assert info.type is ShapeMismatch


@pytest.mark.parametrize("shape", ["list", "pair", "four"])
def test_duality_maps_that_are_not_a_triple_are_a_shape_mismatch(good, shape):
    taus = good[TAUS]
    bad = {"list": list(taus), "pair": taus[:2], "four": (*taus, taus[0])}[shape]
    with pytest.raises(ShapeMismatch, match="not a triple") as info:
        duality.normal_basis(good[SurgeryTotals], bad)
    assert info.type is ShapeMismatch


@pytest.mark.parametrize("dim", ["a0", "a1", "a_inf"])
@pytest.mark.parametrize("bad", [None, 1.0, True, -1, "x"], ids=["none", "float", "bool", "negative", "str"])
def test_a_package_dim_that_is_not_a_nonnegative_int_is_a_shape_mismatch(good, dim, bad):
    # True == 1 == 1.0, so a package with such a dim would equal and hash
    # like a valid one and be served the pair values kept for it: it cannot
    # be built
    package = good[SurgeryPackage]
    with pytest.raises(ShapeMismatch, match=f"package dim {dim} = ") as info:
        dataclasses.replace(package, **{dim: bad})
    assert info.type is ShapeMismatch


# python -O strips assert statements, so the script reports by its exit code
_OPTIMIZED_SCRIPT = """
import sys
from splicerank.corpus import corpus
from splicerank.duality import geometric_package, stats
from splicerank.errors import ShapeMismatch
from splicerank.model import Arrow, BifilteredComplex, Generator
from splicerank.splice import splice_rank

def raises_shape_mismatch(call):
    try:
        call()
    except ShapeMismatch:
        return True
    return False

if __debug__:
    sys.exit("not optimized")
if not raises_shape_mismatch(lambda: BifilteredComplex("bad", (Generator("a", 0), Generator("b", 0)), (Arrow("a", "b", 1, 0),))):
    sys.exit("an invalid complex was built")
if not raises_shape_mismatch(lambda: stats(None)):
    sys.exit("stats(None) is not a ShapeMismatch")
h = splice_rank(geometric_package(corpus("trefoil_staircase")), geometric_package(corpus("fig8_box"))).h
if h != 9:
    sys.exit(f"trefoil x fig8 gave h = {h}")
print("ok")
"""


def test_checks_hold_under_python_O():
    src = str(Path(splicerank.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout.strip()) == (0, "ok"), done.stderr


@pytest.mark.parametrize("name", ["a0", "a1", "a_inf", "tau0", "tau1", "tau_inf", "_store", "blocks", "new"])
def test_changing_a_package_is_a_shape_mismatch(good, name):
    # a package keeps the values read from it in its store, and a complex
    # keys the memo of its package: each refuses assignment and deletion of
    # any attribute, its fields and its kept hash too, with the typed error,
    # as Gf2Matrix and KronSide do
    for record in (good[SurgeryPackage], good[BifilteredComplex]):
        before = (hash(record), dict(vars(record)))
        for attr in (name, dataclasses.fields(record)[0].name, "_hash"):
            for change in (lambda: setattr(record, attr, 0), lambda: delattr(record, attr)):
                with pytest.raises(ShapeMismatch, match=f"a {type(record).__name__} is immutable") as info:
                    change()
                assert info.type is ShapeMismatch
        assert (hash(record), vars(record)) == before

