"""Duality maps, simultaneous normal form, package blocks and statistics.

The duality maps come from the basis symmetry at chain level: the cone of
the comparison map at level s is isomorphic to the cone at the reflected
level with its two domain summands swapped, identically on the target
plane.  After normalization every triangle map has the block form
(0 0; I 0), and everything downstream reads the A, B and D blocks of the
normalized taus.

Every per-index value is a tuple in the order of ``surgery.CYCLE`` (see
the index convention in ``surgery``): a package's dims, taus, blocks, X
products and f maps, like the triple's totals it is built from.

``geometric_package`` keeps one ``NormalBasis``, and with it the knot's
one package, per complex in a ``weakref.WeakKeyDictionary``: a complex is
immutable, hashable and valid by construction, so an equal complex hits the
same entry, and nothing in the entry refers back to the complex, so the
entry dies with it.

A package keeps everything read from it.  Its constructor cuts its blocks
and derives its X products and f maps, and gives it an empty store of what
is read from it later (``_from_entry``): ``stats``, the B nullities and, in
``splice``, the splice sides, the witness data and the pair values.  A pair
value is kept in the first package's store, keyed on the second package's
value (its dims and taus), not on the package, so a store keeps no other
package alive.  ``normal_basis`` builds a knot's package and runs
``verify_package`` on it once, and ``normalize`` returns that package, so a
knot's values are made once and live as long as its complex.  A package
built any other way (by hand, by ``dataclasses.replace``, copy or pickle)
starts with an empty store and computes its own values.  A computation that
raises keeps nothing, so it raises on every call.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from .errors import (
    Frozen,
    NoFlipData,
    NormalizationFailure,
    ShapeMismatch,
    StatsInconsistent,
    TauRelationFailure,
    require_type,
)
from .gf2 import Gf2Matrix, cut_blocks, high_pivots, span_dim
from .homology import induced_by_columns
from .model import BifilteredComplex, is_int
from .surgery import CYCLE, SurgeryTotals, SurgeryTriple, label_columns, total_package


class BlockSet(NamedTuple):
    A: Gf2Matrix
    B: Gf2Matrix
    D: Gf2Matrix


@dataclass(frozen=True)
class SurgeryPackage(Frozen):
    """A normalised package: its dims and its tau maps, six defining fields,
    which equality and hashing read.  Construction cuts the blocks, derives
    the X products and f maps, in table order, and starts an empty store
    (see the module docstring).  A dim that is not a nonnegative int (a bool
    would equal and hash like the int) or a tau that is not a ``Gf2Matrix``
    raises ``ShapeMismatch``, and a tau that is not square of size
    a_prev + a_next ``NormalizationFailure``."""

    a0: int
    a1: int
    a_inf: int
    tau0: Gf2Matrix
    tau1: Gf2Matrix
    tau_inf: Gf2Matrix
    blocks: tuple[BlockSet, ...] = field(init=False, compare=False, repr=False)
    xs: tuple[Gf2Matrix, ...] = field(init=False, compare=False, repr=False)
    fs: tuple[Gf2Matrix, ...] = field(init=False, compare=False, repr=False)
    _store: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dims, taus = self.dims, self.taus
        for k, a in zip(CYCLE, dims):
            if not is_int(a) or a < 0:
                raise ShapeMismatch(f"package dim a{k.suffix} = {a!r} is not a nonnegative int")
        require_type(Gf2Matrix, *taus)
        blocks, fs = [], []
        for (suffix, _, prev, nxt), tau, a in zip(CYCLE, taus, dims):
            top, bottom = dims[prev], dims[nxt]
            n = top + bottom
            if (tau.rows, tau.cols) != (n, n):
                raise NormalizationFailure(f"tau{suffix} is {tau.rows}x{tau.cols}, expected {n}x{n}")
            blocks.append(BlockSet(*cut_blocks(tau, top)))
            fs.append(_normal_form(bottom, a, top))
        xs = [blocks[nxt].B @ blocks[k].B @ blocks[prev].B for k, (_, _, prev, nxt) in enumerate(CYCLE)]
        for name, value in (("blocks", blocks), ("xs", xs), ("fs", fs)):
            object.__setattr__(self, name, tuple(value))
        object.__setattr__(self, "_store", {})

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.a0, self.a1, self.a_inf)

    @property
    def taus(self) -> tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]:
        return (self.tau0, self.tau1, self.tau_inf)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, with a new store
        return SurgeryPackage, (*self.dims, *self.taus)


def _from_entry(p: SurgeryPackage, make: Callable[..., object], *args: Hashable) -> object:
    """make(p, *args), kept in p's store under (make, *args) once it
    returns; a package first among args is keyed by its dims and taus (see
    the module docstring).  No make returns None."""
    require_type(SurgeryPackage, p)
    store, key = p._store, (make, *args)
    if args and isinstance(args[0], SurgeryPackage):
        key = (make, args[0].dims, args[0].taus, *args[1:])
    value = store.get(key)
    if value is None:
        value = store[key] = make(p, *args)
    return value


@cache
def _normal_form(bottom: int, a: int, top: int) -> Gf2Matrix:
    """f_k in normal form, (0 0; I 0) from H_next(k) = (a_k, a_prev(k)) to
    H_prev(k) = (a_next(k), a_k): one matrix per shape, which every package
    of that shape shares."""
    return Gf2Matrix(bottom + a, a + top, [0] * bottom + [1 << i for i in range(a)])


def _times_normal_form(m: Gf2Matrix, bottom: int, a: int) -> tuple[int, ...]:
    """The rows of m @ _normal_form(bottom, a, top): m's a columns from
    column bottom on, then top zero columns."""
    mask = (1 << a) - 1
    return tuple([(row >> bottom) & mask for row in m.row_bits])


# -- geometric duality maps ---------------------------------------------------


def build_tau(complex_: BifilteredComplex, triple: SurgeryTriple) -> tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]:
    """Duality maps on the raw total surgery homologies, in table order: an
    override from the input, taken as given and checked for its shape alone,
    or else the maps built from the basis symmetry.  ``normal_basis`` checks
    the three barred-map relations in either case."""
    require_type(BifilteredComplex, complex_)
    require_type(SurgeryTriple, triple)
    if complex_.tau_override is not None:
        override, totals = complex_.tau_override, triple.totals
        taus = (override.tau0, override.tau1, override.tau_inf)
        for m, n in zip(taus, totals.dims):
            if (m.rows, m.cols) != (n, n):
                raise ShapeMismatch(f"tau override is {m.rows}x{m.cols}, expected {n}x{n}")
        return taus
    if complex_.symmetry is None:
        raise NoFlipData(f"complex {complex_.name!r} has neither symmetry nor tau override")
    return _geometric_tau(complex_, triple)


def _geometric_tau(complex_: BifilteredComplex, triple: SurgeryTriple):
    sigma = complex_.symmetry

    def swap(lbl):
        tag, (x, i, j) = lbl
        if tag == "w":
            return lbl
        return ("v" if tag == "u" else "u", (sigma[x], j, i))

    def shift(s):
        return lambda lbl: (sigma[lbl[0]], 0, lbl[2] + 2 * s)

    def tau_for(spaces, reflect, relabel):
        """Block (t, s) is induced by relabel(s) from the chains of spaces[s]
        to those of spaces[t], t = reflect(s)."""
        blocks = {}
        for s in triple.window:
            if spaces[s].dim == 0:
                continue
            t = reflect(s)
            if t not in triple.window:
                raise NormalizationFailure(f"duality reflects level {s} outside the window")
            chain = label_columns(spaces[s].complex, spaces[t].complex, relabel(s))
            blocks[(t, s)] = induced_by_columns(chain, spaces[s], spaces[t])
        return triple.window_matrix(blocks, spaces, spaces)

    # by CYCLE position: H0 reflects level s to -s - 1, H1 and Hinf to -s; a
    # cone swaps its two domain summands, and a spot shifts by the symmetry
    reflections = (
        (lambda s: -s - 1, lambda s: swap),
        (lambda s: -s, lambda s: swap),
        (lambda s: -s, shift),
    )
    return tuple([tau_for(spaces, *reflection) for spaces, reflection in zip(triple.H, reflections)])


# -- normalization ------------------------------------------------------------


# What normal_basis hands NormalBasis to show where the basis was made.
_MADE_HERE = object()


class NormalBasis(Frozen):
    """One knot's package, its dims (a0, a1, a_inf) and normalized taus
    g_k^-1 tau_k g_k, the columns of g_k being the basis of H_k that puts the
    triangle maps in normal form.  Only ``normal_basis`` makes one (anywhere
    else it raises ``ShapeMismatch``), from duality maps it has checked and
    a package it has verified, and it is ``Frozen``, so ``normalize`` trusts
    one by its type.  A plain class with slots, as it is cheaper to define
    at import than a dataclass."""

    __slots__ = ("package",)

    def __init__(self, package: SurgeryPackage, _made_by: object = None) -> None:
        if _made_by is not _MADE_HERE:
            raise ShapeMismatch("a NormalBasis is made by normal_basis")
        object.__setattr__(self, "package", package)


def normal_basis(totals: SurgeryTotals, taus: tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]) -> NormalBasis:
    """Simultaneous bases putting all three triangle maps in the form (0 0; I 0).

    ``taus`` are the duality maps tau0, tau1 and tau_inf, as ``build_tau``
    returns them: anything but a tuple of three ``Gf2Matrix`` raises
    ``ShapeMismatch``.  They must meet the barred-map relations with these
    totals, and are checked here, so no basis holds taus of other totals.

    Basis recipe: pick complements W of Ker f0 in H1, U of Ker f_inf in H0 and
    Z1 of Im f0 in Hinf; then (Z1, f0 W), (U, f1 Z1), (W, f_inf U) are bases of
    Hinf, H0, H1 realizing all three normal forms at once.  Exactness of the
    unbarred triangle is exactly what makes the loop close.
    """
    require_type(SurgeryTotals, totals)
    if not (isinstance(taus, tuple) and len(taus) == 3):
        raise ShapeMismatch(f"duality maps {taus!r} are not a triple")
    require_type(Gf2Matrix, *taus)
    try:
        inverses = [tau.inverse() for tau in taus]
    except ShapeMismatch as exc:
        raise TauRelationFailure(f"duality map is singular: {exc}") from exc
    f0, f1, f_inf = fs = totals.fs
    # fbar_k = tau_prev(k)^-1 f_k tau_next(k)
    bad = [
        "fbar" + k.suffix
        for k, f, fbar in zip(CYCLE, fs, totals.fbars)
        if fbar != inverses[k.prev] @ (f @ taus[k.next])
    ]
    if bad:
        raise TauRelationFailure(f"barred-map relations fail for: {', '.join(bad)}")
    n0, n1, ninf = totals.dims

    # W, U and Z1 are spanned by standard basis vectors: f applied to one
    # is a column of f, read from the rows of its transpose.  The complement
    # of a kernel is the pivot columns: free column c's kernel vector has
    # highest bit c, so completing the kernel accepts exactly the pivots.
    w = f0.pivot_columns()
    u = f_inf.pivot_columns()
    cols_inf, cols0, cols1 = (f.transpose().row_bits for f in (f_inf, f0, f1))
    image_f0 = [cols0[i] for i in w]
    # Z1 completes Im f0 greedily, e_0 first: e_i joins exactly when no
    # vector of Im f0 has highest bit i, which is when i is not a key of the
    # highest-bit pivot dict.
    taken = high_pivots(image_f0)
    z1 = [i for i in range(ninf) if i not in taken]

    g_inf_cols = [1 << i for i in z1] + image_f0
    g0_cols = [1 << i for i in u] + [cols1[i] for i in z1]
    g1_cols = [1 << i for i in w] + [cols_inf[i] for i in u]
    try:
        g = (
            Gf2Matrix.from_columns(g0_cols, n0),
            Gf2Matrix.from_columns(g1_cols, n1),
            Gf2Matrix.from_columns(g_inf_cols, ninf),
        )
        g_inv = tuple([m.inverse() for m in g])
    except ShapeMismatch as exc:
        raise NormalizationFailure(f"normal-form basis is not a basis: {exc}") from exc

    a_inf, a1 = len(u), n0 - len(u)
    a0 = len(w)
    if ninf - len(z1) != a0 or n1 - a0 != a_inf:
        raise NormalizationFailure("rank bookkeeping violates triangle exactness")
    dims = (a0, a1, a_inf)
    _check_normal_form(dims, fs, g, "triangle maps do not reach the normal form")
    package = SurgeryPackage(*dims, *[h_inv @ tau @ h for tau, h, h_inv in zip(taus, g, g_inv)])
    verify_package(package)
    return NormalBasis(package, _MADE_HERE)


def _check_normal_form(dims, fs, g, moved: str) -> None:
    """f_k, which maps H_next(k) to H_prev(k), must become its normal form
    nf_k = g_prev^-1 f_k g_next in the bases g_k of H_k, else
    NormalizationFailure(moved).  Every g_prev is invertible, so that holds
    exactly when f_k g_next = g_prev nf_k; that is checked instead, with no
    product by g_prev^-1 and g_prev nf_k read off g_prev's columns.  Every
    list is in table order."""
    for f, a, (_, _, prev, nxt) in zip(fs, dims, CYCLE):
        if (f @ g[nxt]).row_bits != _times_normal_form(g[prev], dims[nxt], a):
            raise NormalizationFailure(moved)


def normalize(basis: NormalBasis) -> SurgeryPackage:
    """The knot's package, which ``normal_basis`` built and verified: the
    same object on every call (see the module docstring).  The package
    derives its fbar maps from its taus and normal forms, so no fbar map
    needs a base change."""
    require_type(NormalBasis, basis)
    return basis.package


def verify_package(p: SurgeryPackage) -> None:
    """All package axioms; raises NormalizationFailure with the first failure.

    Each tau_k = (A B; C D), cut at a_prev(k), must be invertible with an
    inverse (A B; C' D) that shares its A, B and D blocks.  That holds
    exactly when tau_k^2 + I is zero outside its C block (rows from
    a_prev(k) on, columns below a_prev(k)), so no inverse is formed unless
    that test fails, and then only to tell a singular tau_k from one whose
    inverse has other blocks.  Proof: if tau^-1 = tau + N with
    N = (0 0; E 0), then tau^2 + I = tau N = (B E 0; D E 0) and also
    = N tau = (0 0; E A E B), so it is (0 0; D E 0).  Conversely, let
    tau^2 + I = M = (0 0; F 0).  Then M^2 = 0, so tau^2 = I + M is its own
    inverse and tau^-1 = tau (I + M) = tau + tau M.  As tau commutes with
    tau^2, tau M = M tau, which reads (B F 0; D F 0) = (0 0; F A F B); so
    B F = 0, and tau^-1 differs from tau in the C block alone.  (The test
    B F = 0 is thus implied, not checked.)  Each X_k must square to zero.

    The barred maps need no check.  fbar_k = tau_prev(k)^-1 nf_k tau_next(k)
    is derived, so its duality relation holds by definition.  For any dims,
    nf_k nf_prev(k) = 0, as nf_prev(k) lands in the a_prev(k) rows of
    H_next(k), which nf_k sends to zero; and rank nf_k + rank nf_prev(k) =
    a_k + a_prev(k) = dim H_next(k).  As prev(prev(k)) = next(k),
    fbar_k fbar_prev(k) = tau_prev(k)^-1 nf_k nf_prev(k) tau_k, and
    conjugating by invertible taus keeps both the zero composite and the
    ranks, so the barred triangle is exact.
    """
    require_type(SurgeryPackage, p)
    dims = p.dims
    for (suffix, _, prev, _), tau in zip(CYCLE, p.taus):
        top = dims[prev]
        s = [row ^ (1 << i) for i, row in enumerate((tau @ tau).row_bits)]
        if any(s[:top]) or any(row >> top for row in s[top:]):
            try:
                tau.inverse()
            except ShapeMismatch as exc:
                raise NormalizationFailure(f"tau{suffix} is singular: {exc}") from exc
            raise NormalizationFailure(f"tau{suffix} inverse does not share the A, B, D blocks")
    for k, x in zip(CYCLE, p.xs):
        if not (x @ x).is_zero():
            raise NormalizationFailure(f"X{k.label} does not square to zero")


_BUILT: weakref.WeakKeyDictionary[BifilteredComplex, NormalBasis] = weakref.WeakKeyDictionary()


def geometric_package(complex_: BifilteredComplex, triple: SurgeryTriple | None = None) -> SurgeryPackage:
    """Full pipeline: surgery triple, duality maps, normalized package.  The
    knot's one package: its normal-form basis comes from the memo or, on a
    complex's first call, from ``triple`` or a fresh ``total_package``; a
    triple of another complex raises ``ShapeMismatch``."""
    require_type(BifilteredComplex, complex_)
    if triple is not None:
        require_type(SurgeryTriple, triple)
        if triple.complex != complex_:
            raise ShapeMismatch(f"triple of {triple.complex.name!r} handed over for {complex_.name!r}")
    built = _BUILT.get(complex_)
    if built is None:
        if triple is None:
            triple = total_package(complex_)
        built = _BUILT[complex_] = normal_basis(triple.totals, build_tau(complex_, triple))
    return normalize(built)


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class PackageStats:
    """A package's subspace dimensions, per index of the cycle: the dims a,
    the B-block ranks r, the deltas, the k, l, c and d dims of each f map
    beside its barred map, and y = k + l + c + d."""

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


def _pair_dims(f: Gf2Matrix, tau_f: tuple[int, ...], f_tau: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(k, l, c, d) for f_k and fbar_k = tau_prev^-1 f_k tau_next, given the
    rows of tau_prev f_k and of f_k tau_next."""
    # Ker f ∩ Ker fbar is the kernel of f stacked on fbar, and Im f + Im fbar
    # the column space of f beside fbar: all four come from ranks.  No rank
    # changes when fbar, f + fbar or (f | fbar) is multiplied on the left by
    # the invertible tau_prev, which makes them f tau_next,
    # tau_prev f + f tau_next and (tau_prev f | f tau_next): no inverse and
    # no dense product is needed.
    sum_rank = span_dim(a ^ b for a, b in zip(tau_f, f_tau))
    k = f.cols - span_dim(f.row_bits + f_tau)
    im_sum = span_dim(a | (b << f.cols) for a, b in zip(tau_f, f_tau))
    l = f.cols - sum_rank - k
    c = f.rows - im_sum
    d = im_sum - sum_rank
    return k, l, c, d


def stats(p: SurgeryPackage) -> PackageStats:
    """Direct subspace dimensions, cross-checked against the closed forms;
    no fbar map is formed (see ``_pair_dims``).  Kept in p's store."""
    return _from_entry(p, _stats)


def _stats(p: SurgeryPackage) -> PackageStats:
    dims, taus = p.dims, p.taus
    r = [blocks.B.rank() for blocks in p.blocks]
    k, l, c, d = zip(
        *(
            _pair_dims(f, _times_normal_form(taus[prev], dims[nxt], a), (f @ taus[nxt]).row_bits)
            for f, a, (_, _, prev, nxt) in zip(p.fs, dims, CYCLE)
        )
    )

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


def _b_nullities(p: SurgeryPackage) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The kernel and the cokernel dims of p's B blocks, then those of their
    products B_k B_prev(k), the only products of two that fit, four tuples
    in table order: the third's entry 1 is the kernel dim of
    blocks[1].B @ blocks[0].B.  B_k is a_prev(k) x a_next(k) of rank r_k,
    read from the kept ``stats``, so no B block is eliminated again; each
    product is eliminated once, and the four are kept in p's store."""
    dims, blocks, st = p.dims, p.blocks, stats(p)
    r = (st.r0, st.r1, st.r_inf)
    products = [b.B @ blocks[prev].B for (_, _, prev, _), b in zip(CYCLE, blocks)]
    ranks = [m.rank() for m in products]
    return (
        tuple([dims[nxt] - r[k] for k, (_, _, _, nxt) in enumerate(CYCLE)]),
        tuple([dims[prev] - r[k] for k, (_, _, prev, _) in enumerate(CYCLE)]),
        tuple([m.cols - rank for m, rank in zip(products, ranks)]),
        tuple([m.rows - rank for m, rank in zip(products, ranks)]),
    )
