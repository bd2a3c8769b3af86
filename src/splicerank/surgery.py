"""Mapping cones for integer surgery and the two homology exact triangles.

For each spin-c level s the comparison map

    i_n^s : C{i<=s, j=0} (+) C{i=0, j<=n-s-1}  ->  C{j=0},
    (u, v) |-> u + flip(v)

has a cone whose homology is the surgery group H_n(K, s) for n in {0, 1};
the n = infinity group is the one-spot plane C{i=0, j=-s}.

Both exact triangles H0 -> H1 -> Hinf -> H0 at level s come from one short
exact sequence of cones: an n = 0 cone includes into the n = 1 cone at s,
and the quotient is the spot at s.  The unbarred triangle (f_inf, f_0, f_1)
takes the n = 0 cone at s, whose quotient is the part of summand v at
j = -s; the barred one (fbar_inf, fbar_0, fbar_1) takes the n = 0 cone at
s - 1, whose quotient is the part of summand u at i = s.  One routine builds
either from the lift of a spot label into the n = 1 cone: the projection is
its inverse on the spot basis, and the connecting map is the chain-level
zig-zag through it.  ``_FAMILIES`` gives each of the six families its source
and target spaces and their level shifts; the totals, the exactness check
and the window assembly read it, and the duality maps are assembled over
the window by the same ``window_matrix``.

Every plane comes from one ``PlaneStore`` per knot, built on the flip map's
two planes C{j=0} (``flip.target``) and C{i=0} (``flip.source``).  It cuts
each sub-plane once, by ``ChainComplexF2.restrict``, and keeps it by level:

    first(s)   C{i<=s, j=0}    summand u of both cones at level s, and the
                               row-side filtration of ``filtration.profile``;
    second(t)  C{i=0, j<=t}    summand v: the n = 0 cone at level s reads
                               t = -s-1, the n = 1 cone t = -s, so cone (0, s)
                               and cone (1, s+1) share it; also the
                               column-side filtration;
    spot(s)    C{i=0, j=-s}    H_inf at level s.

It reads the flip's columns once, for every cone's chain map and for the
column side of the filtration.  The store lives as long as the
``SurgeryTriple`` (or the ``profile`` call) that made it; a lemma run that
builds a triple hands its store to ``profile``, so it cuts each plane once.

The window-stability check only needs the homology dimension of the cones
just outside the window: ``cone_homology_dim`` reads it from the cone
boundary, which it assembles as ``cone`` does.

``SurgeryTriple.totals`` is the only part of a triple that outlives the call
that built it: a small ``SurgeryTotals`` of the six total maps, the three
total dimensions, the window's first level and the per-level dimensions of
H0 and H1, which ``duality`` keeps per knot.  The cones, the planes and the
homology spaces go with the triple.  ``f_inf`` keeps the level, so its map
at level s is the diagonal block (s, s) of the total, and the lemma suite
reads the per-level maps and dimensions from the totals alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, NamedTuple

from .errors import NormalizationFailure, ShapeMismatch, WindowNotStable
from .gf2 import BlockGrid, Gf2Matrix, xor_columns
from .homology import (
    ChainComplexF2,
    HomologySpace,
    homology,
    inclusion_columns,
    induced_by_columns,
    require_square_zero,
)
from .model import BifilteredComplex, FlipMap, flip_map, require_valid


@dataclass(frozen=True)
class MappingCone:
    n: int
    s: int
    first: ChainComplexF2   # C{i<=s, j=0}
    second: ChainComplexF2  # C{i=0, j<=n-s-1}
    codomain: ChainComplexF2  # C{j=0}
    chain_map: Gf2Matrix    # i_n^s on the concatenated domain
    cone: ChainComplexF2    # labels ("u",lbl) | ("v",lbl) | ("w",lbl)


def label_columns(
    source: ChainComplexF2,
    target: ChainComplexF2,
    fn: Callable[[Hashable], Hashable | None],
) -> list[int]:
    """Columns of the linear map sending each basis label through fn (None kills)."""
    tgt = target.index
    out = []
    for lbl in source.basis:
        image = fn(lbl)
        out.append(0 if image is None else 1 << tgt[image])
    return out


def relabel_vector(
    vec: int,
    source: ChainComplexF2,
    target: ChainComplexF2,
    fn: Callable[[Hashable], Hashable | None],
) -> int:
    tgt = target.index
    out = 0
    v = vec
    while v:
        low = v & -v
        idx = low.bit_length() - 1
        v ^= low
        image = fn(source.basis[idx])
        if image is not None:
            out ^= 1 << tgt[image]
    return out


class PlaneStore:
    """The sub-planes of one knot's flip map, each cut once, and the cones on them."""

    def __init__(self, flip: FlipMap):
        self.flip = flip
        self._planes: dict[tuple[str, int], ChainComplexF2] = {}

    def _cut(
        self, key: tuple[str, int], plane: ChainComplexF2, keep: Callable[[Hashable], bool]
    ) -> ChainComplexF2:
        out = self._planes.get(key)
        if out is None:
            out = self._planes[key] = plane.restrict(keep)
        return out

    def first(self, s: int) -> ChainComplexF2:
        """C{i<=s, j=0}."""
        return self._cut(("first", s), self.flip.target, lambda lbl: lbl[1] <= s)

    def second(self, t: int) -> ChainComplexF2:
        """C{i=0, j<=t}."""
        return self._cut(("second", t), self.flip.source, lambda lbl: lbl[2] <= t)

    def spot(self, s: int) -> ChainComplexF2:
        """C{i=0, j=-s}, the knot Floer group at Alexander grading s."""
        return self._cut(("spot", s), self.flip.source, lambda lbl: lbl[2] == -s)

    @cached_property
    def _flip_columns(self) -> dict[Hashable, int]:
        return dict(zip(self.flip.source.basis, self.flip.matrix.transpose().row_bits))

    def include(self, sub: ChainComplexF2) -> list[int]:
        """Columns in C{j=0} of the inclusion of a sub-plane of C{j=0}."""
        return inclusion_columns(sub, self.flip.target)

    def flip_columns(self, sub: ChainComplexF2) -> list[int]:
        """Columns in C{j=0} of the flip restricted to a sub-plane of C{i=0}."""
        return [self._flip_columns[lbl] for lbl in sub.basis]

    def cone(self, n: int, s: int) -> MappingCone:
        """Cone of i_n^s; the first summand maps by inclusion, the second by the flip."""
        first, second, chain_map, boundary = self._cone_parts(n, s)
        codomain = self.flip.target
        labels = (
            tuple(("u", lbl) for lbl in first.basis)
            + tuple(("v", lbl) for lbl in second.basis)
            + tuple(("w", lbl) for lbl in codomain.basis)
        )
        cone = ChainComplexF2(labels, boundary)
        return MappingCone(n, s, first, second, codomain, chain_map, cone)

    def cone_homology_dim(self, n: int, s: int) -> int:
        """dim H of the cone of i_n^s, read as dim - 2 rank from its boundary
        alone: no labels, no ``ChainComplexF2`` and no ``MappingCone``.  The
        boundary still has to square to zero."""
        boundary = self._cone_parts(n, s)[3]
        require_square_zero(boundary)
        return boundary.rows - 2 * boundary.rank()

    def _cone_parts(
        self, n: int, s: int
    ) -> tuple[ChainComplexF2, ChainComplexF2, Gf2Matrix, Gf2Matrix]:
        """The two summands of the cone of i_n^s, the chain map and the cone boundary."""
        if n not in (0, 1):
            raise ShapeMismatch(f"cone surgery coefficient must be 0 or 1, got {n!r}")
        first, second = self.first(s), self.second(n - s - 1)
        codomain = self.flip.target
        dom_dim = first.dim + second.dim
        chain_map = Gf2Matrix.from_columns(
            self.include(first) + self.flip_columns(second), codomain.dim
        )
        total = dom_dim + codomain.dim
        # boundary (d_u 0 0; 0 d_v 0; i_u i_v d_w), assembled row by row
        bits = list(first.boundary.row_bits)
        bits += [b << first.dim for b in second.boundary.row_bits]
        bits += [
            m | (b << dom_dim)
            for m, b in zip(chain_map.row_bits, codomain.boundary.row_bits)
        ]
        return first, second, chain_map, Gf2Matrix(total, total, bits)


# Each triangle family: (source, target, source shift, target shift); the
# map at level s goes from source(s + source shift) to target(s + target
# shift).  The order is that of ``SurgeryTotals``.
_FAMILIES = {
    "f_inf": ("H0", "H1", 0, 0),
    "f0": ("H1", "Hinf", 0, 0),
    "f1": ("Hinf", "H0", 0, 0),
    "fbar_inf": ("H0", "H1", -1, 0),
    "fbar0": ("H1", "Hinf", 0, 0),
    "fbar1": ("Hinf", "H0", 0, -1),
}

# The two triangles: name, families (inclusion H0 -> H1, projection
# H1 -> Hinf, connecting Hinf -> H0), and the lift of a spot label at level s
# into the n = 1 cone at level s.
_TRIANGLES = (
    ("unbarred", ("f_inf", "f0", "f1"), lambda s, lbl: ("v", lbl)),
    ("barred", ("fbar_inf", "fbar0", "fbar1"), lambda s, lbl: ("u", (lbl[0], s, 0))),
)


class SurgeryTotals(NamedTuple):
    """The total triangle maps over the window, the total dimensions of H0,
    H1 and Hinf, and the per-level dimensions of H0 and H1 from the window's
    first level on: all that normalization and the lemma suite read from a
    triple.  Immutable like a frozen dataclass, and cheaper to define at
    import."""

    f_inf: Gf2Matrix  # H0 -> H1
    f0: Gf2Matrix  # H1 -> Hinf
    f1: Gf2Matrix  # Hinf -> H0
    fbar_inf: Gf2Matrix  # H0 -> H1
    fbar0: Gf2Matrix  # H1 -> Hinf
    fbar1: Gf2Matrix  # Hinf -> H0
    n0: int
    n1: int
    n_inf: int
    lo: int  # the window's first level
    h0_dims: tuple[int, ...]  # dim H0(s) for s in the window
    h1_dims: tuple[int, ...]  # dim H1(s) for s in the window

    @property
    def window(self) -> range:
        return range(self.lo, self.lo + len(self.h0_dims))


class SurgeryTriple:
    """All per-level surgery groups and triangle maps of one complex.

    Per-level maps live in the dictionaries keyed by s; ``f_inf[s]`` maps
    H0(s) -> H1(s) while the barred families carry the level shift:
    ``fbar_inf[s]``: H0(s-1) -> H1(s) and ``fbar1[s]``: Hinf(s) -> H0(s-1)
    (see ``_FAMILIES``).  Totals are assembled over the support window in
    increasing s.
    """

    def __init__(self, complex_: BifilteredComplex):
        require_valid(complex_)
        self.complex = complex_
        self.flip = flip_map(complex_)
        self.planes = PlaneStore(self.flip)
        lo, hi = complex_.grading_range()
        self.window = range(lo - 1, hi + 2)

        self.cones0: dict[int, MappingCone] = {}
        self.cones1: dict[int, MappingCone] = {}
        self.spots: dict[int, ChainComplexF2] = {}
        self.H0: dict[int, HomologySpace] = {}
        self.H1: dict[int, HomologySpace] = {}
        self.Hinf: dict[int, HomologySpace] = {}
        for s in self.window:
            self.cones0[s] = self.planes.cone(0, s)
            self.cones1[s] = self.planes.cone(1, s)
            self.spots[s] = self.planes.spot(s)
            self.H0[s] = homology(self.cones0[s].cone)
            self.H1[s] = homology(self.cones1[s].cone)
            self.Hinf[s] = homology(self.spots[s])
        self._check_window_stability()

        self.f_inf: dict[int, Gf2Matrix] = {}
        self.f0: dict[int, Gf2Matrix] = {}
        self.f1: dict[int, Gf2Matrix] = {}
        self.fbar_inf: dict[int, Gf2Matrix] = {}
        self.fbar0: dict[int, Gf2Matrix] = {}
        self.fbar1: dict[int, Gf2Matrix] = {}
        for s in self.window:
            for _, names, lift in _TRIANGLES:
                self._build_triangle(s, names, lift)

    # -- construction helpers --------------------------------------------

    def _check_window_stability(self) -> None:
        lo, hi = self.window.start, self.window.stop - 1
        for s in (lo - 2, lo - 1, hi + 1, hi + 2):
            for n in (0, 1):
                if self.planes.cone_homology_dim(n, s):
                    raise WindowNotStable(f"H_{n}({s}) nonzero outside window")
            if self.planes.spot(s).homology_dim():
                raise WindowNotStable(f"H_inf({s}) nonzero outside window")

    def _build_triangle(
        self, s: int, names: tuple[str, str, str], lift: Callable[[int, Hashable], Hashable]
    ) -> None:
        """One triangle H0 -> H1 -> Hinf -> H0 at level s: the sub-cone (the
        n = 0 cone at the level of the inclusion's source) includes into the
        n = 1 cone, which projects onto the spot by the inverse of ``lift``,
        and the connecting map lifts a spot cycle, applies the boundary and
        reads the result in the sub-cone."""
        inclusion, projection, connecting = (getattr(self, name) for name in names)
        cone1, spot, h1, h_inf = self.cones1[s].cone, self.spots[s], self.H1[s], self.Hinf[s]
        lifted = {lbl: lift(s, lbl) for lbl in spot.basis}
        back = {image: lbl for lbl, image in lifted.items()}
        projection[s] = induced_by_columns(label_columns(cone1, spot, back.get), h1, h_inf)

        sub = s + _FAMILIES[names[0]][2]
        if sub not in self.window:
            return
        sub_cone, h_sub = self.cones0[sub].cone, self.H0[sub]
        inclusion[s] = induced_by_columns(inclusion_columns(sub_cone, cone1), h_sub, h1)
        # the cone boundary, applied through the columns H1[s] keeps
        d1 = h1.boundary_columns
        cols = []
        for rep in h_inf.reps:
            bd = xor_columns(d1, relabel_vector(rep, spot, cone1, lifted.get))
            cols.append(h_sub.coords(relabel_vector(bd, cone1, sub_cone, lambda lbl: lbl)))
        connecting[s] = Gf2Matrix.from_columns(cols, h_sub.dim)

    # -- dimensions and totals ---------------------------------------------

    def dims(self, which: str) -> list[int]:
        spaces = {"H0": self.H0, "H1": self.H1, "Hinf": self.Hinf}[which]
        return [spaces[s].dim for s in self.window]

    def total_dim(self, which: str) -> int:
        return sum(self.dims(which))

    def window_matrix(
        self, blocks: dict[tuple[int, int], Gf2Matrix], rows: str, cols: str
    ) -> Gf2Matrix:
        """The total map from the ``cols`` spaces to the ``rows`` spaces over
        the window, with block (t, s) from level s to level t."""
        lo = self.window.start
        grid = {(t - lo, s - lo): m for (t, s), m in blocks.items()}
        return BlockGrid(tuple(self.dims(rows)), tuple(self.dims(cols)), grid).assemble()

    @cached_property
    def totals(self) -> SurgeryTotals:
        maps = (
            self.window_matrix(
                {(s + tgt_shift, s + src_shift): m for s, m in getattr(self, name).items()},
                tgt,
                src,
            )
            for name, (src, tgt, src_shift, tgt_shift) in _FAMILIES.items()
        )
        return SurgeryTotals(
            *maps,
            *(self.total_dim(w) for w in ("H0", "H1", "Hinf")),
            self.window.start,
            tuple(self.dims("H0")),
            tuple(self.dims("H1")),
        )

    @property
    def a0(self) -> int:
        return self.totals.f0.rank()

    @property
    def a1(self) -> int:
        return self.totals.f1.rank()

    @property
    def a_inf(self) -> int:
        return self.totals.f_inf.rank()

    # -- verification -------------------------------------------------------

    def exactness_failures(self) -> list[str]:
        """Both triangles must be exact at every node of every level."""
        out = []
        for s in self.window:
            for triangle, names, _ in _TRIANGLES:
                maps = [getattr(self, name) for name in names]
                if s not in maps[0]:
                    continue
                for k, name in enumerate(names):
                    first, second = maps[k][s], maps[(k + 1) % 3][s]
                    _, node, _, tgt_shift = _FAMILIES[name]
                    if not (second @ first).is_zero():
                        out.append(f"{triangle} s={s}: composite through {node} nonzero")
                    elif first.rank() + second.rank() != getattr(self, node)[s + tgt_shift].dim:
                        out.append(f"{triangle} s={s}: image/kernel gap at {node}")
        return out

    def require_exact(self) -> None:
        failures = self.exactness_failures()
        if failures:
            raise NormalizationFailure("; ".join(failures))


def total_package(complex_: BifilteredComplex) -> SurgeryTriple:
    triple = SurgeryTriple(complex_)
    triple.require_exact()
    return triple
