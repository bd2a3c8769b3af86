"""Mapping cones for integer surgery and the two homology exact triangles.

For each spin-c level s the comparison map

    i_n^s : C{i<=s, j=0} (+) C{i=0, j<=n-s-1}  ->  C{j=0},
    (u, v) |-> u + flip(v)

has a cone whose homology is the surgery group H_n(K, s) for n in {0, 1};
the n = infinity group is the one-spot plane C{i=0, j=-s}.

Index convention.  A knot's surgery exact triangle H0 -> H1 -> Hinf -> H0
runs its indices in the cycle 0 -> 1 -> inf -> 0.  Every per-index value,
from the triple's groups to a package's blocks, is a tuple in the order of
``CYCLE``, which gives each index k its names and the positions of prev(k)
and next(k):

- f_k and fbar_k map H_next(k) -> H_prev(k): f_inf is the inclusion
  H0 -> H1, f0 the projection H1 -> Hinf and f1 the connecting map
  Hinf -> H0;
- H_k splits as (a_prev(k), a_next(k)) and tau_k acts on it, so tau_k is cut
  into its A, B and D blocks there and B_k is a_prev(k) x a_next(k);
- in normal form f_k = (0 0; I 0) carries the identity on a_k;
- fbar_k = tau_prev(k)^-1 f_k tau_next(k), so no package stores it;
- X_k = B_next(k) B_k B_prev(k).

A ``SurgeryTriple`` keeps its groups and maps by that position: ``H[k][s]``
is H_k at level s, ``maps[0][k][s]`` is f_k and ``maps[1][k][s]`` fbar_k at
level s, and ``totals`` holds the total maps and dims as tuples in the same
order.

Both exact triangles at level s come from one short exact sequence of
cones: an n = 0 cone includes into the n = 1 cone at s, and the quotient is
the spot at s.  The unbarred triangle takes the n = 0 cone at s, whose
quotient is the part of summand v at j = -s; the barred one takes the n = 0
cone at s - 1, whose quotient is the part of summand u at i = s.  So H0 of a
triangle at level s sits at level s + shift, and H1 and Hinf at s
(``_TRIANGLES``).  One pass per level builds both triangles from the lift of
a spot label into the n = 1 cone: the projection is its inverse on the spot
basis, and the connecting map is the chain-level zig-zag through it.  The
pass reads the n = 1 cone's label index once for both.

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
made them about 0.9 MB of a 3.2 MB triple.  A cone keeps its complex and
no more: its summands are the store's planes, and its chain map is the
lower-left block of its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, NamedTuple

from .errors import NormalizationFailure, ShapeMismatch, WindowNotStable, require_type
from .gf2 import BlockGrid, Gf2Matrix, xor_columns
from .homology import ChainComplexF2, HomologySpace, induced_by_columns
from .model import BifilteredComplex, FlipMap, flip_map


class Index(NamedTuple):
    """One index of the cycle: its names and the positions of prev and next."""

    suffix: str  # of tau0, a_inf, fbar1, w_inf, ...
    label: str  # of X0, Xinf, B1, H0, ...
    prev: int
    next: int


# The index cycle 0 -> 1 -> inf -> 0, in the order of every per-index tuple.
CYCLE = (Index("0", "0", 2, 1), Index("1", "1", 0, 2), Index("_inf", "inf", 1, 0))


@dataclass(frozen=True)
class MappingCone:
    """The cone of i_n^s at level s, whose homology is the surgery group
    H_n(K, s); its fields' types are checked when built."""

    n: int
    s: int
    cone: ChainComplexF2  # labels ("u",lbl) | ("v",lbl) | ("w",lbl)

    def __post_init__(self):
        require_type(int, self.n, self.s)
        require_type(ChainComplexF2, self.cone)


def label_columns(
    source: ChainComplexF2,
    target: ChainComplexF2,
    fn: Callable[[Hashable], Hashable | None],
) -> list[int]:
    """Columns of the linear map sending each basis label through fn (None
    kills); an image that is not a label of target raises ShapeMismatch."""
    require_type(ChainComplexF2, source, target)
    at = target.index
    return _read_columns(lambda lbl: 0 if (image := fn(lbl)) is None else 1 << at[image], source)


def _read_columns(column: Callable[[Hashable], int], sub: ChainComplexF2) -> list[int]:
    """column(label) for each label of sub; a KeyError, a label missing
    from the table that column reads, raises ShapeMismatch."""
    try:
        return [column(lbl) for lbl in sub.basis]
    except KeyError as exc:
        raise ShapeMismatch(f"label {exc.args[0]!r} is not in the target basis") from None


def _inverse_columns(columns: list[int], dim: int) -> list[int]:
    """The columns of the map reading a chain of a dim-dimensional complex in
    the basis of a sub-basis whose inclusion has these columns: column p is
    the bit of the sub-basis label at position p, or 0 off the sub-basis."""
    out = [0] * dim
    for k, col in enumerate(columns):
        out[col.bit_length() - 1] = 1 << k
    return out


class PlaneStore:
    """The sub-planes of one knot's flip map, each cut once, and the cones on
    them.  Every cone's basis is built from the store's tagged labels, one
    dict per tag from a plane label to its (tag, label) tuple, so the cones
    of all levels hold one tuple per value, which dies with the store.  A
    flip that is not a ``FlipMap`` raises ``ShapeMismatch``."""

    def __init__(self, flip: FlipMap):
        require_type(FlipMap, flip)
        self.flip = flip
        self._planes: dict[tuple[str, int], ChainComplexF2] = {}
        # the column in C{j=0} of each of its labels, read by every cone
        # for its first summand and by the row side of the profile, as a
        # complex keeps no label index
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

    def first_columns(self, sub: ChainComplexF2) -> list[int]:
        """Columns in C{j=0} of the inclusion of a sub-plane of C{j=0}."""
        return _read_columns(self._inclusion.__getitem__, sub)

    def flip_columns(self, sub: ChainComplexF2) -> list[int]:
        """Columns in C{j=0} of the flip restricted to a sub-plane of C{i=0}."""
        return _read_columns(self._flip_columns.__getitem__, sub)

    def cone(self, n: int, s: int) -> MappingCone:
        """Cone of i_n^s; the first summand maps by inclusion, the second by the flip."""
        if n not in (0, 1):
            raise ShapeMismatch(f"cone surgery coefficient must be 0 or 1, got {n!r}")
        first, second = self.first(s), self.second(n - s - 1)
        codomain = self.flip.target
        dom_dim = first.dim + second.dim
        chain_map = Gf2Matrix.from_columns(self.first_columns(first) + self.flip_columns(second), codomain.dim)
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
        return MappingCone(n, s, ChainComplexF2(labels, Gf2Matrix(total, total, bits)))


# The two triangles: name, the level shift of each group H_k (H_k of the
# triangle at level s sits at level s + shifts[k]), and the lift of a spot
# label at level s into the n = 1 cone at level s.
_TRIANGLES = (
    ("unbarred", (0, 0, 0), lambda s, lbl: ("v", lbl)),
    ("barred", (-1, 0, 0), lambda s, lbl: ("u", (lbl[0], s, 0))),
)


class SurgeryTotals(NamedTuple):
    """The total triangle maps over the window and the total dimensions of
    the groups, each a tuple in ``CYCLE`` order, map k going H_next(k) ->
    H_prev(k): all that normalization reads from a triple."""

    fs: tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]
    fbars: tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]
    dims: tuple[int, int, int]


class SurgeryTriple:
    """All per-level surgery groups and triangle maps of one complex, by
    ``CYCLE`` position and level s (see the module docstring).  Totals are
    assembled over the window in increasing s.  Construction raises
    ``WindowNotStable`` if a group outside the window is nonzero, and
    ``NormalizationFailure`` naming every node where a triangle is not exact.
    """

    def __init__(self, complex_: BifilteredComplex):
        require_type(BifilteredComplex, complex_)
        self.complex = complex_
        self.flip = flip_map(complex_)
        self.planes = PlaneStore(self.flip)
        lo, hi = complex_.grading_range()
        self.window = range(lo - 1, hi + 2)

        self.cones0, self.cones1 = ({s: self.planes.cone(n, s) for s in self.window} for n in (0, 1))
        self.H = tuple(
            {s: HomologySpace(chains(s)) for s in self.window}
            for chains in (lambda s: self.cones0[s].cone, lambda s: self.cones1[s].cone, self.planes.spot)
        )
        self._check_window_stability()

        self.maps = tuple(tuple({} for _ in CYCLE) for _ in _TRIANGLES)
        for s in self.window:
            self._build_triangles(s)
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

    def _build_triangles(self, s: int) -> None:
        """Both triangles H0 -> H1 -> Hinf -> H0 at level s.  In each, the
        sub-cone (the n = 0 cone at level s + shifts[0]) includes into the
        n = 1 cone, which projects onto the spot by the inverse of the lift,
        and the connecting map lifts a spot cycle, applies the boundary and
        reads the result in the sub-cone."""
        h1, h_inf = self.H[1][s], self.H[2][s]
        cone1, d1 = h1.complex, h1.boundary_columns
        at = cone1.index
        for (_, shifts, lift), (f0, f1, f_inf) in zip(_TRIANGLES, self.maps):
            up = [1 << at[lift(s, lbl)] for lbl in h_inf.complex.basis]
            f0[s] = induced_by_columns(_inverse_columns(up, cone1.dim), h1, h_inf)

            sub = s + shifts[0]
            if sub not in self.window:
                continue
            h_sub = self.H[0][sub]
            included = [1 << at[lbl] for lbl in h_sub.complex.basis]
            f_inf[s] = induced_by_columns(included, h_sub, h1)
            to_sub = _inverse_columns(included, cone1.dim)
            cols = []
            for rep in h_inf.reps:
                bd = xor_columns(d1, xor_columns(up, rep))
                chain = xor_columns(to_sub, bd)
                if xor_columns(included, chain) != bd:
                    raise NormalizationFailure(f"s={s}: the boundary of a lifted spot cycle leaves the sub-cone")
                cols.append(h_sub.coords(chain))
            f1[s] = Gf2Matrix.from_columns(cols, h_sub.dim)

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
        fs, fbars = (
            tuple(
                self.window_matrix(
                    {(s + shifts[prev], s + shifts[nxt]): m for s, m in family.items()}, self.H[prev], self.H[nxt]
                )
                for (_, _, prev, nxt), family in zip(CYCLE, maps)
            )
            for (_, shifts, _), maps in zip(_TRIANGLES, self.maps)
        )
        return SurgeryTotals(fs, fbars, tuple(sum(h.dim for h in spaces.values()) for spaces in self.H))

    # -- verification -------------------------------------------------------

    def exactness_failures(self) -> list[str]:
        """Both triangles must be exact at every node of every level: map k
        is followed by map next(k) through H_prev(k)."""
        out = []
        for s in self.window:
            for (triangle, shifts, _), maps in zip(_TRIANGLES, self.maps):
                if s not in maps[2]:
                    continue
                for k, (_, _, prev, nxt) in enumerate(CYCLE):
                    first, second = maps[k][s], maps[nxt][s]
                    node = "H" + CYCLE[prev].label
                    if not (second @ first).is_zero():
                        out.append(f"{triangle} s={s}: composite through {node} nonzero")
                    elif first.rank() + second.rank() != self.H[prev][s + shifts[prev]].dim:
                        out.append(f"{triangle} s={s}: image/kernel gap at {node}")
        return out


def total_package(complex_: BifilteredComplex) -> SurgeryTriple:
    return SurgeryTriple(complex_)
