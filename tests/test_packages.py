"""The package generators of ``packages.py`` draw what they always drew and keep their typed guards."""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

from splicerank.corpus import corpus
from splicerank.duality import SurgeryPackage, geometric_package
from splicerank.errors import ShapeMismatch

from packages import apply_admissible, derived_fbars, direct_sum, random_admissible, synthetic_package

# Named, not listed from the data directory, so the digest stays put when the
# corpus grows.
KNOTS = (
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
)
# sha256 of ``drawn()``, taken when the generators were still library code
# (splicerank.duality), before they moved to tests/packages.py.
DRAWN_DIGEST = "b8a813e213c273f3287a357476d5cb135561f65050523d3a50510ff9217df89a"


def _key(p: SurgeryPackage) -> tuple:
    """A package's dims, tau maps and fbar maps, as plain tuples of ints.

    The fbar maps are derived, and listed in the digest's order: fbar_inf,
    fbar0, fbar1."""
    fbar0, fbar1, fbar_inf = derived_fbars(p)
    maps = (p.tau0, p.tau1, p.tau_inf, fbar_inf, fbar0, fbar1)
    return (p.dims, tuple((m.rows, m.cols, m.row_bits) for m in maps))


def drawn() -> list[tuple]:
    """Every synthetic package of seeds 0-3 and dims up to (2, 2, 2), two
    admissible changes of each corpus package, and the direct sum of every
    ordered pair of corpus packages."""
    out = [
        ("synthetic", seed, dims, _key(synthetic_package(seed, dims)))
        for seed in range(4)
        for dims in product(range(3), repeat=3)
    ]
    packages = {name: geometric_package(corpus(name)) for name in KNOTS}
    out += [
        ("admissible", name, seed, _key(apply_admissible(p, random_admissible(seed, p.dims))))
        for name, p in packages.items()
        for seed in range(2)
    ]
    out += [("sum", a, b, _key(direct_sum(packages[a], packages[b]))) for a in KNOTS for b in KNOTS]
    return out


def test_moved_generators_draw_what_the_library_drew():
    out = drawn()
    assert len(out) == 4 * 27 + 2 * len(KNOTS) + len(KNOTS) ** 2
    assert hashlib.sha256(repr(out).encode()).hexdigest() == DRAWN_DIGEST


@pytest.mark.parametrize("bad", [None, 3, "x", 1.5], ids=["none", "int", "str", "float"])
def test_the_generators_keep_their_typed_guards(bad):
    p = geometric_package(corpus("trefoil_staircase"))
    calls = (
        lambda: direct_sum(bad, p),
        lambda: direct_sum(p, bad),
        lambda: apply_admissible(bad, random_admissible(0, p.dims)),
        lambda: apply_admissible(p, bad),
        lambda: synthetic_package(0, bad),
    )
    for call in calls:
        with pytest.raises(ShapeMismatch):
            call()
