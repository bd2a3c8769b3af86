"""Mapping cones for integer surgery and the two homology exact triangles.

For each spin-c level s the comparison map

    i_n^s : C{i<=s, j=0} (+) C{i=0, j<=n-s-1}  ->  C{j=0},
    (u, v) |-> u + flip(v)

has a cone whose homology is the surgery group H_n(K, s) for n in {0, 1};
the n = infinity group is the one-spot plane C{i=0, j=-s}.  The short exact
sequences relating the n = 0 and n = 1 cones give six maps per level:
unbarred f_inf, f_0, f_1 and barred counterparts shifted by one level.
Connecting maps are computed by an explicit chain-level zig-zag.

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
``SurgeryTriple`` (or the ``profile`` call) that made it; ``check_all_lemmas``
hands the triple's store to ``profile``, so one lemma run cuts each plane once.

The window-stability check only needs the homology dimension of the cones
just outside the window: ``cone_homology_dim`` reads it from the cone
boundary, which it assembles as ``cone`` does.

``SurgeryTriple.totals`` is the only part of a triple that outlives the call
that built it: a small ``SurgeryTotals`` of the six total maps and the three
total dimensions, which ``duality`` keeps per knot.  The cones, the planes
and the homology spaces go with the triple.
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


class SurgeryTotals(NamedTuple):
    """The total triangle maps over the window, and the total dimensions of
    H0, H1 and Hinf: all that normalization reads from a triple.  Immutable
    like a frozen dataclass, and cheaper to define at import."""

    f_inf: Gf2Matrix  # H0 -> H1
    f0: Gf2Matrix  # H1 -> Hinf
    f1: Gf2Matrix  # Hinf -> H0
    fbar_inf: Gf2Matrix  # H0 -> H1
    fbar0: Gf2Matrix  # H1 -> Hinf
    fbar1: Gf2Matrix  # Hinf -> H0
    n0: int
    n1: int
    n_inf: int


class SurgeryTriple:
    """All per-level surgery groups and triangle maps of one complex.

    Per-level maps live in the dictionaries keyed by s; ``f_inf[s]`` maps
    H0(s) -> H1(s) while the barred families carry the level shift:
    ``fbar_inf[s]``: H0(s-1) -> H1(s) and ``fbar_1[s]``: Hinf(s) -> H0(s-1).
    Totals are assembled over the support window in increasing s.
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
            self._build_level_maps(s)

    # -- construction helpers --------------------------------------------

    def _check_window_stability(self) -> None:
        lo, hi = self.window.start, self.window.stop - 1
        for s in (lo - 2, lo - 1, hi + 1, hi + 2):
            for n in (0, 1):
                if self.planes.cone_homology_dim(n, s):
                    raise WindowNotStable(f"H_{n}({s}) nonzero outside window")
            if self.planes.spot(s).homology_dim():
                raise WindowNotStable(f"H_inf({s}) nonzero outside window")

    def _build_level_maps(self, s: int) -> None:
        cone0, cone1 = self.cones0[s], self.cones1[s]
        spot = self.spots[s]

        # unbarred: inclusion of cones, projection to the quotient spot,
        # connecting map by zig-zag
        inc = inclusion_columns(cone0.cone, cone1.cone)
        self.f_inf[s] = induced_by_columns(inc, self.H0[s], self.H1[s])

        def project_v(lbl):
            tag, plane = lbl
            if tag == "v" and plane[2] == -s:
                return plane
            return None

        proj = label_columns(cone1.cone, spot, project_v)
        self.f0[s] = induced_by_columns(proj, self.H1[s], self.Hinf[s])

        # the cone boundary, applied through the columns H1[s] keeps
        d1 = self.H1[s].boundary_columns
        cols = []
        for rep in self.Hinf[s].reps:
            lifted = relabel_vector(rep, spot, cone1.cone, lambda lbl: ("v", lbl))
            bd = xor_columns(d1, lifted)
            back = relabel_vector(bd, cone1.cone, cone0.cone, lambda lbl: lbl)
            cols.append(self.H0[s].coords(back))
        self.f1[s] = Gf2Matrix.from_columns(cols, self.H0[s].dim)

        # barred: the n = 0 cone one level down includes into the n = 1 cone
        prev = s - 1
        if prev in self.window:
            inc_bar = inclusion_columns(self.cones0[prev].cone, cone1.cone)
            self.fbar_inf[s] = induced_by_columns(inc_bar, self.H0[prev], self.H1[s])

        def project_u(lbl):
            tag, plane = lbl
            if tag == "u" and plane[1] == s:
                return (plane[0], 0, -s)
            return None

        proj_bar = label_columns(cone1.cone, spot, project_u)
        self.fbar0[s] = induced_by_columns(proj_bar, self.H1[s], self.Hinf[s])

        if prev in self.window:
            cols = []
            for rep in self.Hinf[s].reps:
                lifted = relabel_vector(
                    rep, spot, cone1.cone, lambda lbl: ("u", (lbl[0], s, 0))
                )
                bd = xor_columns(d1, lifted)
                back = relabel_vector(bd, cone1.cone, self.cones0[prev].cone, lambda lbl: lbl)
                cols.append(self.H0[prev].coords(back))
            self.fbar1[s] = Gf2Matrix.from_columns(cols, self.H0[prev].dim)

    # -- dimensions and totals ---------------------------------------------

    def dims(self, which: str) -> list[int]:
        spaces = {"H0": self.H0, "H1": self.H1, "Hinf": self.Hinf}[which]
        return [spaces[s].dim for s in self.window]

    def total_dim(self, which: str) -> int:
        return sum(self.dims(which))

    def _total(
        self,
        fam: dict[int, Gf2Matrix],
        src: str,
        tgt: str,
        src_of: Callable[[int], int],
        tgt_of: Callable[[int], int] = lambda s: s,
    ) -> Gf2Matrix:
        row_dims = tuple(self.dims(tgt))
        col_dims = tuple(self.dims(src))
        index = {s: k for k, s in enumerate(self.window)}
        blocks = {}
        for s, m in fam.items():
            s_src, s_tgt = src_of(s), tgt_of(s)
            if s_src in index and s_tgt in index:
                blocks[(index[s_tgt], index[s_src])] = m
        return BlockGrid(row_dims, col_dims, blocks).assemble()

    @cached_property
    def totals(self) -> SurgeryTotals:
        return SurgeryTotals(
            self._total(self.f_inf, "H0", "H1", lambda s: s),
            self._total(self.f0, "H1", "Hinf", lambda s: s),
            self._total(self.f1, "Hinf", "H0", lambda s: s),
            self._total(self.fbar_inf, "H0", "H1", lambda s: s - 1),
            self._total(self.fbar0, "H1", "Hinf", lambda s: s),
            self._total(self.fbar1, "Hinf", "H0", lambda s: s, lambda s: s - 1),
            self.total_dim("H0"),
            self.total_dim("H1"),
            self.total_dim("Hinf"),
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
            prev = s - 1
            triples = [
                ("unbarred", s, self.f_inf[s], self.f0[s], self.H1[s].dim, "H1"),
                ("unbarred", s, self.f0[s], self.f1[s], self.Hinf[s].dim, "Hinf"),
                ("unbarred", s, self.f1[s], self.f_inf[s], self.H0[s].dim, "H0"),
            ]
            if prev in self.window:
                triples += [
                    ("barred", s, self.fbar_inf[s], self.fbar0[s], self.H1[s].dim, "H1"),
                    ("barred", s, self.fbar0[s], self.fbar1[s], self.Hinf[s].dim, "Hinf"),
                    ("barred", s, self.fbar1[s], self.fbar_inf[s], self.H0[prev].dim, "H0"),
                ]
            for name, level, first, second, middle_dim, node in triples:
                if not (second @ first).is_zero():
                    out.append(f"{name} s={level}: composite through {node} nonzero")
                elif first.rank() + second.rank() != middle_dim:
                    out.append(f"{name} s={level}: image/kernel gap at {node}")
        return out

    def require_exact(self) -> None:
        failures = self.exactness_failures()
        if failures:
            raise NormalizationFailure("; ".join(failures))


def total_package(complex_: BifilteredComplex) -> SurgeryTriple:
    triple = SurgeryTriple(complex_)
    triple.require_exact()
    return triple
