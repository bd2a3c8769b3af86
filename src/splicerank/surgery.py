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
zig-zag through it.

Every plane comes from one ``PlaneStore`` per knot, which cuts each
sub-plane of the flip's two planes once and keeps it by level:

    first(s)   C{i<=s, j=0}    summand u of both cones at level s, and the
                               row-side filtration of ``filtration.profile``;
    second(t)  C{i=0, j<=t}    summand v: the n = 0 cone at level s reads
                               t = -s-1, the n = 1 cone t = -s, so cone (0, s)
                               and cone (1, s+1) share it; also the
                               column-side filtration;
    spot(s)    C{i=0, j=-s}    H_inf at level s.

``check_all_lemmas`` hands a triple's store to ``profile``, so one lemma run
cuts each plane once.

A cone's basis tags each label with its summand, ("u", label), ("v", label)
or ("w", label), and every cone takes these tuples from its store, one per
(tag, label), so a knot's cones share them: the 126 cones of T(2,61) hold
15,433 tagged labels with 183 distinct values, and a tuple built per cone
made them about 0.9 MB of a 3.2 MB triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, NamedTuple

from .errors import NormalizationFailure, ShapeMismatch, WindowNotStable, require_type
from .gf2 import BlockGrid, Gf2Matrix, xor_columns
from .homology import ChainComplexF2, HomologySpace, induced_by_columns
from .model import BifilteredComplex, FlipMap, flip_map


@dataclass(frozen=True)
class MappingCone:
    """The cone of i_n^s at level s, whose homology is the surgery group
    H_n(K, s); its fields' types are checked when built."""

    n: int
    s: int
    first: ChainComplexF2   # C{i<=s, j=0}
    second: ChainComplexF2  # C{i=0, j<=n-s-1}
    codomain: ChainComplexF2  # C{j=0}
    chain_map: Gf2Matrix    # i_n^s on the concatenated domain
    cone: ChainComplexF2    # labels ("u",lbl) | ("v",lbl) | ("w",lbl)

    def __post_init__(self):
        require_type(int, self.n, self.s)
        require_type(ChainComplexF2, self.first, self.second, self.codomain, self.cone)
        require_type(Gf2Matrix, self.chain_map)


def label_columns(
    source: ChainComplexF2,
    target: ChainComplexF2,
    fn: Callable[[Hashable], Hashable | None],
) -> list[int]:
    """Columns of the linear map sending each basis label through fn (None
    kills); an image that is not a label of target raises ShapeMismatch."""
    require_type(ChainComplexF2, source, target)
    tgt = target.index
    try:
        return [0 if (image := fn(lbl)) is None else 1 << tgt[image] for lbl in source.basis]
    except KeyError as exc:
        raise ShapeMismatch(f"label {exc.args[0]!r} is not in the target basis") from None


class PlaneStore:
    """The sub-planes of one knot's flip map, each cut once, and the cones on
    them.  Every cone's basis is built from the store's tagged labels, one
    dict per tag from a plane label to its (tag, label) tuple, so the cones
    of all levels hold one tuple per value, which dies with the store."""

    def __init__(self, flip: FlipMap):
        self.flip = flip
        self._planes: dict[tuple[str, int], ChainComplexF2] = {}
        # the column in C{j=0} of each of its labels, read by every cone
        # for its first summand, as a complex keeps no label index
        self._inclusion = {lbl: 1 << k for k, lbl in enumerate(flip.target.basis)}
        self._tagged = {
            tag: {lbl: (tag, lbl) for lbl in plane.basis}
            for tag, plane in (("u", flip.target), ("v", flip.source), ("w", flip.target))
        }

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

    def flip_columns(self, sub: ChainComplexF2) -> list[int]:
        """Columns in C{j=0} of the flip restricted to a sub-plane of C{i=0}."""
        return [self._flip_columns[lbl] for lbl in sub.basis]

    def cone(self, n: int, s: int) -> MappingCone:
        """Cone of i_n^s; the first summand maps by inclusion, the second by the flip."""
        if n not in (0, 1):
            raise ShapeMismatch(f"cone surgery coefficient must be 0 or 1, got {n!r}")
        first, second = self.first(s), self.second(n - s - 1)
        codomain = self.flip.target
        dom_dim = first.dim + second.dim
        chain_map = Gf2Matrix.from_columns(
            [self._inclusion[lbl] for lbl in first.basis] + self.flip_columns(second), codomain.dim
        )
        total = dom_dim + codomain.dim
        # boundary (d_u 0 0; 0 d_v 0; i_u i_v d_w), assembled row by row
        bits = list(first.boundary.row_bits)
        bits += [b << first.dim for b in second.boundary.row_bits]
        bits += [
            m | (b << dom_dim)
            for m, b in zip(chain_map.row_bits, codomain.boundary.row_bits)
        ]
        u, v, w = (self._tagged[tag].__getitem__ for tag in "uvw")
        labels = tuple(map(u, first.basis)) + tuple(map(v, second.basis)) + tuple(map(w, codomain.basis))
        cone = ChainComplexF2(labels, Gf2Matrix(total, total, bits))
        return MappingCone(n, s, first, second, codomain, chain_map, cone)


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
    """The total triangle maps over the window and the total dimensions of
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
    """All per-level surgery groups and triangle maps of one complex, by
    level s; the barred families carry a level shift (see ``_FAMILIES``).
    Totals are assembled over the window in increasing s.  Construction
    raises ``WindowNotStable`` if a group outside the window is nonzero, and
    ``NormalizationFailure`` naming every node where a triangle is not exact.
    """

    def __init__(self, complex_: BifilteredComplex):
        require_type(BifilteredComplex, complex_)
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
            self.H0[s] = HomologySpace(self.cones0[s].cone)
            self.H1[s] = HomologySpace(self.cones1[s].cone)
            self.Hinf[s] = HomologySpace(self.spots[s])
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
        failures = self.exactness_failures()
        if failures:
            raise NormalizationFailure("; ".join(failures))

    # -- construction helpers --------------------------------------------

    def _check_window_stability(self) -> None:
        lo, hi = self.window.start, self.window.stop - 1
        for s in (lo - 2, lo - 1, hi + 1, hi + 2):
            for n in (0, 1):
                if self.planes.cone(n, s).cone.homology_dim():
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
        included = label_columns(sub_cone, cone1, lambda lbl: lbl)
        inclusion[s] = induced_by_columns(included, h_sub, h1)
        # a chain of the n = 1 cone read in the sub-cone's basis: column p is
        # the sub-cone bit of position p, or 0 outside the sub-cone
        to_sub = [0] * cone1.dim
        for k, col in enumerate(included):
            to_sub[col.bit_length() - 1] = 1 << k
        up, d1 = label_columns(spot, cone1, lifted.get), h1.boundary_columns
        cols = []
        for rep in h_inf.reps:
            bd = xor_columns(d1, xor_columns(up, rep))
            chain = xor_columns(to_sub, bd)
            if xor_columns(included, chain) != bd:
                raise NormalizationFailure(f"s={s}: the boundary of a lifted spot cycle leaves the sub-cone")
            cols.append(h_sub.coords(chain))
        connecting[s] = Gf2Matrix.from_columns(cols, h_sub.dim)

    # -- dimensions and totals ---------------------------------------------

    def window_matrix(
        self,
        blocks: dict[tuple[int, int], Gf2Matrix],
        rows: dict[int, HomologySpace],
        cols: dict[int, HomologySpace],
    ) -> Gf2Matrix:
        """The total map from the spaces ``cols`` to the spaces ``rows`` over
        the window, with block (t, s) from level s to level t."""
        lo = self.window.start
        grid = {(t - lo, s - lo): m for (t, s), m in blocks.items()}
        row_dims, col_dims = (tuple([spaces[s].dim for s in self.window]) for spaces in (rows, cols))
        return BlockGrid(row_dims, col_dims, grid).assemble()

    @cached_property
    def totals(self) -> SurgeryTotals:
        maps = (
            self.window_matrix(
                {(s + tgt_shift, s + src_shift): m for s, m in getattr(self, name).items()},
                getattr(self, tgt),
                getattr(self, src),
            )
            for name, (src, tgt, src_shift, tgt_shift) in _FAMILIES.items()
        )
        return SurgeryTotals(*maps, *(sum(h.dim for h in spaces.values()) for spaces in (self.H0, self.H1, self.Hinf)))

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


def total_package(complex_: BifilteredComplex) -> SurgeryTriple:
    return SurgeryTriple(complex_)
