"""Bad arguments fail with a typed error, also under ``python -O``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splicerank
from splicerank import duality, filtration, model, serialize, splice, surgery
from splicerank.corpus import corpus
from splicerank.errors import ShapeMismatch


@pytest.fixture(scope="module")
def good() -> dict:
    """A valid object of each kind, for the arguments not under test."""
    c = corpus("trefoil_staircase")
    return {
        "complex": c,
        "flip": model.flip_map(c),
        "triple": surgery.total_package(c),
        "package": duality.geometric_package(c),
        "profile": filtration.profile(c),
    }


# each call puts the bad value where a complex, a package or another argument
# of the library's own types belongs
CALLS = {
    "plane_j0": lambda x, g: model.plane_j0(x),
    "plane_i0": lambda x, g: model.plane_i0(x),
    "hf_hat": lambda x, g: model.hf_hat(x),
    "hfk_hat_dims": lambda x, g: model.hfk_hat_dims(x),
    "mirror": lambda x, g: model.mirror(x),
    "flip_map": lambda x, g: model.flip_map(x),
    "sigma_chain_map": lambda x, g: model.sigma_chain_map(x, g["flip"].source, g["flip"].target),
    "complex_to_dict": lambda x, g: serialize.complex_to_dict(x),
    "SurgeryTriple": lambda x, g: surgery.SurgeryTriple(x),
    "total_package": lambda x, g: surgery.total_package(x),
    "build_tau": lambda x, g: duality.build_tau(x, g["triple"]),
    "build_tau-triple": lambda x, g: duality.build_tau(g["complex"], x),
    "geometric_package": lambda x, g: duality.geometric_package(x),
    "stats": lambda x, g: duality.stats(x),
    "verify_package": lambda x, g: duality.verify_package(x),
    "direct_sum": lambda x, g: duality.direct_sum(x, g["package"]),
    "direct_sum-second": lambda x, g: duality.direct_sum(g["package"], x),
    "apply_admissible": lambda x, g: duality.apply_admissible(x, duality.random_admissible(0, g["package"].dims)),
    "apply_admissible-change": lambda x, g: duality.apply_admissible(g["package"], x),
    "profile": lambda x, g: filtration.profile(x),
    "check_all_lemmas": lambda x, g: filtration.check_all_lemmas(x),
    "lemma33_check": lambda x, g: filtration.lemma33_check(x, g["profile"]),
    "lemma37_check": lambda x, g: filtration.lemma37_check(x, g["profile"]),
    "build_D": lambda x, g: splice.build_D(x, g["package"]),
    "splice_rank": lambda x, g: splice.splice_rank(g["package"], x),
    "witness_data": lambda x, g: splice.witness_data(x),
    "kernel_witnesses": lambda x, g: splice.kernel_witnesses(x, g["package"]),
    "kernel_witnesses-second": lambda x, g: splice.kernel_witnesses(g["package"], x),
    "subspace_bounds": lambda x, g: splice.subspace_bounds(x, g["package"]),
    "subspace_bounds-second": lambda x, g: splice.subspace_bounds(g["package"], x),
    "theorem_check": lambda x, g: splice.theorem_check(x, g["package"]),
    "theorem_check-second": lambda x, g: splice.theorem_check(g["package"], x),
}


@pytest.mark.parametrize("bad", [None, 3, "x"], ids=["none", "int", "str"])
@pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
def test_an_argument_of_another_type_is_a_shape_mismatch(good, call, bad):
    with pytest.raises(ShapeMismatch) as info:
        call(bad, good)
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
