"""Duality maps, simultaneous normal form, block extraction and statistics.

The duality maps are built at chain level by exchanging the roles of the two
filtration directions through the basis symmetry: the cone of the comparison
map at level s is isomorphic to the cone at the reflected level with the two
domain summands swapped through the symmetry, identically on the target
plane.  After normalization every triangle map takes the block form
(0 0; I 0) and the duality maps are stored through their A, B and D blocks
per index, with the off-diagonal B blocks driving everything downstream.

Index convention.  A knot's surgery exact triangle H0 -> H1 -> Hinf -> H0
runs its indices in the cycle 0 -> 1 -> inf -> 0, and ``CYCLE`` gives each
index k its attribute suffix, prev(k) and next(k):

- H_k splits as (a_prev(k), a_next(k)) and tau_k acts on it, so tau_k is cut
  into its A, B and D blocks there and B_k is a_prev(k) x a_next(k);
- f_k and fbar_k map H_next(k) -> H_prev(k), and in normal form
  f_k = (0 0; I 0) carries the identity on a_k;
- fbar_k = tau_prev(k)^-1 f_k tau_next(k), and X_k = B_next(k) B_k B_prev(k).

A ``SurgeryPackage`` is its dims, its three tau maps and its three fbar maps;
its blocks, X products and f maps are derived from them when it is built.

``geometric_package`` keeps one entry per complex for the life of the
process: the triple's ``SurgeryTotals`` and the ``TauMaps`` that have passed
the barred-map relations.  ``normalize`` reads both, and the lemma suite
reads the totals through ``known_totals``.  The memo keeps no triple, cone,
plane or homology space.  It is a
``weakref.WeakKeyDictionary`` keyed on the complex itself, which is immutable
and hashable, so an equal complex hits the same entry and an entry dies with
its complex; nothing in an entry refers back to the complex.  ``normalize``
and ``verify_package`` run on every call, so every caller gets a freshly
normalised and verified package.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    NoFlipData,
    NormalizationFailure,
    SamplingExhausted,
    ShapeMismatch,
    StatsInconsistent,
    TauRelationFailure,
)
from .gf2 import BlockGrid, Gf2Matrix, SpanSolver, lower_triangular, span_dim
from .homology import induced_by_columns
from .model import BifilteredComplex, require_valid
from .surgery import SurgeryTotals, SurgeryTriple, label_columns, total_package


class Index(NamedTuple):
    """One index of the cycle: its names and the positions of prev and next."""

    suffix: str  # of tau0, a_inf, fbar1, blocks_inf, f_inf, ...
    label: str  # of X0, Xinf, Pinf, Qinf
    prev: int
    next: int


# The index cycle 0 -> 1 -> inf -> 0, in the order of ``SurgeryPackage.dims``.
CYCLE = (Index("0", "0", 2, 1), Index("1", "1", 0, 2), Index("_inf", "inf", 1, 0))


@cache
def _getter(stem: str) -> attrgetter:
    return attrgetter(*[stem + k.suffix for k in CYCLE])


def by_index(obj, stem: str) -> tuple:
    """obj's attributes stem0, stem1 and stem_inf, in table order."""
    return _getter(stem)(obj)


@dataclass(frozen=True)
class TauMaps:
    tau0: Gf2Matrix
    tau1: Gf2Matrix
    tau_inf: Gf2Matrix
    source: str  # "geometric" or "override"
    geometric_agrees: bool | None = None


class BlockSet(NamedTuple):
    A: Gf2Matrix
    B: Gf2Matrix
    D: Gf2Matrix


@dataclass(frozen=True)
class SurgeryPackage:
    """A normalised package: dims, tau maps and fbar maps.

    The blocks, X products and f maps are derived at construction, so
    ``dataclasses.replace`` derives them afresh; equality and hashing read
    the nine defining fields.  A tau that is not square of size
    a_prev + a_next raises ``NormalizationFailure``.
    """

    a0: int
    a1: int
    a_inf: int
    tau0: Gf2Matrix
    tau1: Gf2Matrix
    tau_inf: Gf2Matrix
    fbar_inf: Gf2Matrix
    fbar0: Gf2Matrix
    fbar1: Gf2Matrix
    blocks0: BlockSet = field(init=False, compare=False)
    blocks1: BlockSet = field(init=False, compare=False)
    blocks_inf: BlockSet = field(init=False, compare=False)
    X0: Gf2Matrix = field(init=False, compare=False)
    X1: Gf2Matrix = field(init=False, compare=False)
    Xinf: Gf2Matrix = field(init=False, compare=False)
    f_inf: Gf2Matrix = field(init=False, compare=False)
    f0: Gf2Matrix = field(init=False, compare=False)
    f1: Gf2Matrix = field(init=False, compare=False)

    def __post_init__(self):
        blocks, xs, fs = _derive(self.dims, by_index(self, "tau"))
        for (suffix, label, _, _), b, x, f in zip(CYCLE, blocks, xs, fs):
            object.__setattr__(self, "blocks" + suffix, b)
            object.__setattr__(self, "X" + label, x)
            object.__setattr__(self, "f" + suffix, f)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.a0, self.a1, self.a_inf)

    def verify(self) -> None:
        verify_package(self)


def _package(dims, taus, fbars) -> SurgeryPackage:
    """The package of dims, taus and fbars given in table order."""
    return SurgeryPackage(*dims, *taus, fbars[2], fbars[0], fbars[1])


def _split_blocks(tau: Gf2Matrix, top: int, bottom: int) -> tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]:
    """The A, B and D blocks of tau cut at (top, bottom)."""
    n = top + bottom
    return (
        tau.submatrix(range(top), range(top)),
        tau.submatrix(range(top), range(top, n)),
        tau.submatrix(range(top, n), range(top, n)),
    )


def _derive(dims, taus) -> tuple[list[BlockSet], list[Gf2Matrix], list[Gf2Matrix]]:
    """The blocks, the X products and the normal-form f maps of a package with
    these dims and taus, in table order."""
    blocks, fs = [], []
    for (suffix, _, prev, nxt), tau, a in zip(CYCLE, taus, dims):
        top, bottom = dims[prev], dims[nxt]
        n = top + bottom
        if (tau.rows, tau.cols) != (n, n):
            raise NormalizationFailure(f"tau{suffix} is {tau.rows}x{tau.cols}, expected {n}x{n}")
        blocks.append(BlockSet(*_split_blocks(tau, top, bottom)))
        # f_k maps H_next(k) = (a_k, a_prev(k)) to H_prev(k) = (a_next(k), a_k)
        ident = {(1, 0): Gf2Matrix.identity(a)} if a else {}
        fs.append(BlockGrid((bottom, a), (a, top), ident).assemble())
    xs = [blocks[nxt].B @ blocks[k].B @ blocks[prev].B for k, (_, _, prev, nxt) in enumerate(CYCLE)]
    return blocks, xs, fs


def _barred(fs, taus, tau_inverses) -> list[Gf2Matrix]:
    """fbar_k = tau_prev(k)^-1 f_k tau_next(k) for each index, in table order."""
    return [tau_inverses[prev] @ f @ taus[nxt] for f, (_, _, prev, nxt) in zip(fs, CYCLE)]


# -- geometric duality maps ---------------------------------------------------


def build_tau(complex_: BifilteredComplex, triple: SurgeryTriple) -> TauMaps:
    """Duality maps on the raw total surgery homologies.

    Prefers an explicit override from the input; otherwise requires the basis
    symmetry.  The three barred-map relations are verified in either case.
    """
    geometric = None
    if complex_.symmetry is not None:
        geometric = _geometric_tau(complex_, triple)
    if complex_.tau_override is not None:
        override = by_index(complex_.tau_override, "tau")
        for k, m in zip(CYCLE, override):
            n = triple.total_dim("H" + k.label)
            if (m.rows, m.cols) != (n, n):
                raise ShapeMismatch(f"tau override is {m.rows}x{m.cols}, expected {n}x{n}")
        agrees = None if geometric is None else geometric == override
        maps = TauMaps(*override, "override", agrees)
    elif geometric is not None:
        maps = TauMaps(*geometric, "geometric")
    else:
        raise NoFlipData(f"complex {complex_.name!r} has neither symmetry nor tau override")
    _check_tau_relations(triple.totals, maps)
    return maps


def _geometric_tau(complex_: BifilteredComplex, triple: SurgeryTriple):
    sigma = complex_.symmetry

    def swap(lbl):
        tag, (x, i, j) = lbl
        if tag == "w":
            return lbl
        return ("v" if tag == "u" else "u", (sigma[x], j, i))

    def shift(s):
        return lambda lbl: (sigma[lbl[0]], 0, lbl[2] + 2 * s)

    def tau_for(chains, which, reflect, relabel):
        """Block (t, s) is induced by relabel(s) from chains[s] to chains[t], t = reflect(s)."""
        spaces = getattr(triple, which)
        blocks = {}
        for s in triple.window:
            if spaces[s].dim == 0:
                continue
            t = reflect(s)
            if t not in triple.window:
                raise NormalizationFailure(f"duality reflects level {s} outside the window")
            chain = label_columns(chains[s], chains[t], relabel(s))
            blocks[(t, s)] = induced_by_columns(chain, spaces[s], spaces[t])
        return triple.window_matrix(blocks, which, which)

    cones0 = {s: c.cone for s, c in triple.cones0.items()}
    cones1 = {s: c.cone for s, c in triple.cones1.items()}
    return (
        tau_for(cones0, "H0", lambda s: -s - 1, lambda s: swap),
        tau_for(cones1, "H1", lambda s: -s, lambda s: swap),
        tau_for(triple.spots, "Hinf", lambda s: -s, shift),
    )


def _check_tau_relations(totals: SurgeryTotals, maps: TauMaps) -> None:
    taus = by_index(maps, "tau")
    try:
        inverses = [tau.inverse() for tau in taus]
    except ShapeMismatch as exc:
        raise TauRelationFailure(f"duality map is singular: {exc}") from exc
    expected = _barred(by_index(totals, "f"), taus, inverses)
    bad = [
        "fbar" + k.suffix
        for k, fbar, want in zip(CYCLE, by_index(totals, "fbar"), expected)
        if fbar != want
    ]
    if bad:
        raise TauRelationFailure(f"barred-map relations fail for: {', '.join(bad)}")


# -- normalization ------------------------------------------------------------


def _complement(kernel_basis: list[int], dim: int) -> list[int]:
    """Indices of the standard basis vectors that complete a subspace."""
    solver = SpanSolver(kernel_basis)
    return [i for i in range(dim) if solver.add(1 << i)]


def normalize(totals: SurgeryTotals, maps: TauMaps) -> SurgeryPackage:
    """Simultaneous bases putting all three triangle maps in the form (0 0; I 0).

    Basis recipe: pick complements W of Ker f0 in H1, U of Ker f_inf in H0 and
    Z1 of Im f0 in Hinf; then (Z1, f0 W), (U, f1 Z1), (W, f_inf U) are bases of
    Hinf, H0, H1 realizing all three normal forms at once.  Exactness of the
    unbarred triangle is exactly what makes the loop close.
    """
    f_inf, f0, f1 = totals.f_inf, totals.f0, totals.f1
    n0, n1, ninf = totals.n0, totals.n1, totals.n_inf

    # W, U and Z1 are spanned by standard basis vectors: f applied to one
    # is a column of f
    w = _complement(f0.kernel_basis(), n1)
    u = _complement(f_inf.kernel_basis(), n0)
    image_f0 = [f0.column(i) for i in w]
    z1 = _complement(image_f0, ninf)

    g_inf_cols = [1 << i for i in z1] + image_f0
    g0_cols = [1 << i for i in u] + [f1.column(i) for i in z1]
    g1_cols = [1 << i for i in w] + [f_inf.column(i) for i in u]
    try:
        g = (
            Gf2Matrix.from_columns(g0_cols, n0),
            Gf2Matrix.from_columns(g1_cols, n1),
            Gf2Matrix.from_columns(g_inf_cols, ninf),
        )
        g_inv = [m.inverse() for m in g]
    except ShapeMismatch as exc:
        raise NormalizationFailure(f"normal-form basis is not a basis: {exc}") from exc

    a_inf, a1 = len(u), n0 - len(u)
    a0 = len(w)
    if ninf - len(z1) != a0 or n1 - a0 != a_inf:
        raise NormalizationFailure("rank bookkeeping violates triangle exactness")
    return _change_bases(
        (a0, a1, a_inf),
        by_index(maps, "tau"),
        by_index(totals, "fbar"),
        by_index(totals, "f"),
        g,
        g_inv,
        "triangle maps do not reach the normal form",
    )


def _change_bases(dims, taus, fbars, fs, g, g_inv, moved: str) -> SurgeryPackage:
    """The verified package of these maps in the bases g_k of H_k.

    tau_k becomes g_k^-1 tau_k g_k, and f_k and fbar_k, which map H_next(k)
    to H_prev(k), become g_prev^-1 (.) g_next.  Each f_k must land on its
    normal form, else NormalizationFailure(moved).  Every list is in table
    order.
    """
    new_fs = tuple([g_inv[prev] @ f @ g[nxt] for f, (_, _, prev, nxt) in zip(fs, CYCLE)])
    p = _package(
        dims,
        [h_inv @ tau @ h for tau, h, h_inv in zip(taus, g, g_inv)],
        [g_inv[prev] @ fbar @ g[nxt] for fbar, (_, _, prev, nxt) in zip(fbars, CYCLE)],
    )
    if new_fs != by_index(p, "f"):
        raise NormalizationFailure(moved)
    verify_package(p)
    return p


def verify_package(p: SurgeryPackage) -> None:
    """All package axioms; raises NormalizationFailure with the first failure."""
    dims, taus, fbars = p.dims, by_index(p, "tau"), by_index(p, "fbar")
    inverses = []
    for (suffix, _, prev, nxt), tau, blocks in zip(CYCLE, taus, by_index(p, "blocks")):
        try:
            inverses.append(tau.inverse())
        except ShapeMismatch as exc:
            raise NormalizationFailure(f"tau{suffix} is singular: {exc}") from exc
        if _split_blocks(inverses[-1], dims[prev], dims[nxt]) != blocks:
            raise NormalizationFailure(f"tau{suffix} inverse does not share the A, B, D blocks")
    for k in CYCLE:
        x = getattr(p, "X" + k.label)
        if not (x @ x).is_zero():
            raise NormalizationFailure(f"X{k.label} does not square to zero")
    for k, fbar, want in zip(CYCLE, fbars, _barred(by_index(p, "f"), taus, inverses)):
        if fbar != want:
            raise NormalizationFailure(f"fbar{k.suffix} violates its duality relation")
    # fbar_prev(k) maps into H_next(k), which fbar_k maps out of
    ranks = [fbar.rank() for fbar in fbars]
    for k, (_, _, prev, nxt) in enumerate(CYCLE):
        if not (fbars[k] @ fbars[prev]).is_zero():
            raise NormalizationFailure("barred triangle composite is nonzero")
        if ranks[k] + ranks[prev] != taus[nxt].rows:
            raise NormalizationFailure("barred triangle is not exact")


_BUILT: weakref.WeakKeyDictionary[BifilteredComplex, tuple[SurgeryTotals, TauMaps]] = (
    weakref.WeakKeyDictionary()
)


def _lookup(complex_: BifilteredComplex) -> tuple[SurgeryTotals, TauMaps] | None:
    # equal complexes share an entry, and 0 == 0.0 == False, so a grading or
    # drop that is not an int has to be caught before the lookup
    require_valid(complex_)
    return _BUILT.get(complex_)


def known_totals(complex_: BifilteredComplex) -> SurgeryTotals | None:
    """The memo's totals of complex_, or None before its first package."""
    built = _lookup(complex_)
    return None if built is None else built[0]


def geometric_package(complex_: BifilteredComplex, triple: SurgeryTriple | None = None) -> SurgeryPackage:
    """Full pipeline: surgery triple, duality maps, normalized package.

    The totals and duality maps come from the memo (see the module
    docstring) or, on the first call for a complex, from ``triple`` or a
    fresh ``total_package``; a triple of another complex raises
    ``ShapeMismatch``.
    """
    if triple is not None and triple.complex != complex_:
        raise ShapeMismatch(
            f"triple of {triple.complex.name!r} handed over for {complex_.name!r}"
        )
    built = _lookup(complex_)
    if built is None:
        if triple is None:
            triple = total_package(complex_)
        built = _BUILT[complex_] = (triple.totals, build_tau(complex_, triple))
    totals, maps = built
    return normalize(totals, maps)


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class PackageStats:
    a0: int
    a1: int
    a_inf: int
    r0: int
    r1: int
    r_inf: int
    delta0: int
    delta1: int
    delta_inf: int
    k0: int
    k1: int
    k_inf: int
    l0: int
    l1: int
    l_inf: int
    c0: int
    c1: int
    c_inf: int
    d0: int
    d1: int
    d_inf: int
    y0: int
    y1: int
    y_inf: int


def _pair_dims(f: Gf2Matrix, fbar: Gf2Matrix) -> tuple[int, int, int, int]:
    """(k, l, c, d) for one map pair, straight from the definitions."""
    # Ker f ∩ Ker fbar is the kernel of f stacked on fbar, and Im f + Im fbar
    # the column space of f beside fbar: all four come from ranks.
    sum_rank = (f + fbar).rank()
    k = f.cols - span_dim(f.row_bits + fbar.row_bits)
    im_sum = span_dim(a | (b << f.cols) for a, b in zip(f.row_bits, fbar.row_bits))
    l = f.cols - sum_rank - k
    c = f.rows - im_sum
    d = im_sum - sum_rank
    return k, l, c, d


def stats(p: SurgeryPackage) -> PackageStats:
    """Direct subspace dimensions, cross-checked against the closed forms."""
    dims = p.dims
    r = [blocks.B.rank() for blocks in by_index(p, "blocks")]
    k, l, c, d = zip(*map(_pair_dims, by_index(p, "f"), by_index(p, "fbar")))

    closed = (
        ("k", k, [dims[prev] - r[nxt] for _, _, prev, nxt in CYCLE]),
        ("c", c, [dims[nxt] - r[prev] for _, _, prev, nxt in CYCLE]),
    )
    for stem, direct, formula in closed:
        for index, x, y in zip(CYCLE, direct, formula):
            if x != y:
                raise StatsInconsistent(f"{stem}{index.suffix}: direct {x} != closed form {y}")

    delta = [dims[i] - r[prev] - l[i] for i, (_, _, prev, _) in enumerate(CYCLE)]
    for i, (suffix, _, prev, nxt) in enumerate(CYCLE):
        upper = dims[i] - max(r[nxt], r[prev])
        if not 0 <= delta[i] <= upper:
            raise StatsInconsistent(f"delta{suffix} = {delta[i]} outside [0, {upper}]")
        d_formula = dims[i] - r[nxt] - delta[i]
        if d[i] != d_formula:
            raise StatsInconsistent(f"d mismatch at delta{suffix}: {d[i]} != {d_formula}")

    y = [sum(parts) for parts in zip(k, l, c, d)]
    return PackageStats(*dims, *r, *delta, *k, *l, *c, *d, *y)


# -- admissible changes of basis ----------------------------------------------


@dataclass(frozen=True)
class AdmissibleChange:
    """Block-lower-triangular base changes preserving every normal form."""

    P0: Gf2Matrix
    P1: Gf2Matrix
    Pinf: Gf2Matrix
    # Q_k is a_next(k) x a_prev(k)
    Q0: Gf2Matrix
    Q1: Gf2Matrix
    Qinf: Gf2Matrix

    def pp(self) -> tuple[Gf2Matrix, ...]:
        """The change of each H_k, in table order: (P_prev(k) 0; Q_k P_next(k))."""
        ps = [getattr(self, "P" + k.label) for k in CYCLE]
        return tuple(lower_triangular(ps[prev], getattr(self, "Q" + label), ps[nxt]) for _, label, prev, nxt in CYCLE)


def random_invertible(rng: random.Random, n: int) -> Gf2Matrix:
    while True:
        m = Gf2Matrix(n, n, [rng.getrandbits(n) for _ in range(n)]) if n else Gf2Matrix.identity(0)
        if m.rank() == n:
            return m


def random_admissible(seed: int, dims: tuple[int, int, int]) -> AdmissibleChange:
    rng = random.Random(f"splicerank-admissible-{seed}")
    ps = [random_invertible(rng, a) for a in dims]
    qs = [
        Gf2Matrix(dims[nxt], dims[prev], [rng.getrandbits(dims[prev]) for _ in range(dims[nxt])])
        for _, _, prev, nxt in CYCLE
    ]
    return AdmissibleChange(*ps, *qs)


def apply_admissible(p: SurgeryPackage, change: AdmissibleChange) -> SurgeryPackage:
    """Conjugate a package; the canonical triangle forms stay bit-identical."""
    g = change.pp()
    try:
        g_inv = [m.inverse() for m in g]
    except ShapeMismatch as exc:
        raise ShapeMismatch("admissible change is singular") from exc
    return _change_bases(
        p.dims,
        by_index(p, "tau"),
        by_index(p, "fbar"),
        by_index(p, "f"),
        g,
        g_inv,
        "admissible change moved a triangle map",
    )


# -- direct sums ----------------------------------------------------------------


def _block_sum(m: Gf2Matrix, n: Gf2Matrix, m_split: tuple[int, int], n_split: tuple[int, int]) -> Gf2Matrix:
    """m and n side by side, quarter by quarter: each summand is cut at its
    (top rows, left columns) split, and each quarter of the result is the
    diagonal sum of m's and n's quarter there."""
    row_dims, col_dims, blocks = [0] * 4, [0] * 4, {}
    for k, (x, (top, left)) in enumerate(((m, m_split), (n, n_split))):
        row_dims[k], row_dims[2 + k] = top, x.rows - top
        col_dims[k], col_dims[2 + k] = left, x.cols - left
        for i, rows in enumerate((range(0, top), range(top, x.rows))):
            for j, cols in enumerate((range(0, left), range(left, x.cols))):
                blocks[(2 * i + k, 2 * j + k)] = x.submatrix(rows, cols)
    return BlockGrid(tuple(row_dims), tuple(col_dims), blocks).assemble()


def direct_sum(p: SurgeryPackage, q: SurgeryPackage) -> SurgeryPackage:
    """The package of p and q side by side.

    Each tau and each fbar is block-summed along the splits of the f maps
    (H_k = (a_prev(k), a_next(k)), see ``CYCLE``), so the summed f maps keep
    the form (0 0; I 0) and the sum passes ``verify_package``.
    """
    dp, dq = p.dims, q.dims
    taus, fbars = [], []
    maps = zip(CYCLE, by_index(p, "tau"), by_index(q, "tau"), by_index(p, "fbar"), by_index(q, "fbar"))
    for k, ((_, _, prev, nxt), tau_p, tau_q, fbar_p, fbar_q) in enumerate(maps):
        taus.append(_block_sum(tau_p, tau_q, (dp[prev], dp[prev]), (dq[prev], dq[prev])))
        # fbar_k maps H_next(k), whose top part is a_k, to H_prev(k), whose top is a_next(k)
        fbars.append(_block_sum(fbar_p, fbar_q, (dp[nxt], dp[k]), (dq[nxt], dq[k])))
    out = _package([a + b for a, b in zip(dp, dq)], taus, fbars)
    out.verify()
    return out


# -- synthetic packages -------------------------------------------------------

SYNTHETIC_RETRY_BUDGET = 500


def _random_involution(rng: random.Random, n: int) -> Gf2Matrix:
    """I + N with N^2 = 0, conjugated by a random invertible matrix."""
    if n == 0:
        return Gf2Matrix.identity(0)
    k = rng.randint(0, n // 2)
    nil = Gf2Matrix.from_entries(n, n, [(i, n - k + i) for i in range(k)])
    g = random_invertible(rng, n)
    return (g @ (Gf2Matrix.identity(n) + nil)) @ g.inverse()


def _twist(rng: random.Random, tau: Gf2Matrix, top: int, bottom: int) -> Gf2Matrix:
    """Post-compose with (I 0; T I) where T B = 0 = B T, keeping A, B, D fixed."""
    b = _split_blocks(tau, top, bottom)[1]
    col_space = b.kernel_basis()  # subspace of F^bottom
    row_space = b.cokernel_basis()  # subspace of F^top
    if not col_space or not row_space or rng.random() < 0.5:
        return tau
    theta = Gf2Matrix.zeros(bottom, top)
    for u in col_space:
        for w in row_space:
            if rng.getrandbits(1):
                theta += Gf2Matrix.from_columns([u if (w >> i) & 1 else 0 for i in range(top)], bottom)
    return lower_triangular(Gf2Matrix.identity(top), theta, Gf2Matrix.identity(bottom)) @ tau


def synthetic_package(seed: int, dims: tuple[int, int, int]) -> SurgeryPackage:
    """Random package with the stated dims; barred maps defined by the relations.

    Rejection-samples duality maps until the three cyclic B products square to
    zero; raises SamplingExhausted after a documented retry budget.
    """
    a0, a1, a_inf = dims
    rng = random.Random(f"splicerank-synthetic-{seed}-{a0}-{a1}-{a_inf}")
    for _ in range(SYNTHETIC_RETRY_BUDGET):
        taus = []
        for _, _, prev, nxt in CYCLE:
            top, bottom = dims[prev], dims[nxt]
            taus.append(_twist(rng, _random_involution(rng, top + bottom), top, bottom))
        _, xs, fs = _derive(dims, taus)
        if not all((x @ x).is_zero() for x in xs):
            continue
        p = _package(dims, taus, _barred(fs, taus, [tau.inverse() for tau in taus]))
        p.verify()
        return p
    raise SamplingExhausted(
        f"no synthetic package at dims {dims} after {SYNTHETIC_RETRY_BUDGET} draws"
    )
