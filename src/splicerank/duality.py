"""Duality maps, simultaneous normal form, block extraction and statistics.

The duality maps are built at chain level by exchanging the roles of the two
filtration directions through the basis symmetry: the cone of the comparison
map at level s is isomorphic to the cone at the reflected level with the two
domain summands swapped through the symmetry, identically on the target
plane.  After normalization every triangle map takes the block form
(0 0; I 0) and the duality maps are stored through their A, B and D blocks
per index, with the off-diagonal B blocks driving everything downstream.

Splitting convention (the unique one matching all stated block shapes):
H0 = (a_inf, a1), H1 = (a0, a_inf), Hinf = (a1, a0).

``geometric_package`` keeps one entry per complex for the life of the
process: the triple's ``SurgeryTotals`` and the ``TauMaps`` that have passed
the barred-map relations, the two things ``normalize`` reads.  It keeps no
triple, cone, plane or homology space.  The memo is a
``weakref.WeakKeyDictionary`` keyed on the complex itself, which is immutable
and hashable, so an equal complex hits the same entry and an entry dies with
its complex; nothing in an entry refers back to the complex.  ``normalize``
and ``verify_package`` run on every call, so every caller gets a freshly
normalised and verified package.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass

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


@dataclass(frozen=True)
class TauMaps:
    tau0: Gf2Matrix
    tau1: Gf2Matrix
    tau_inf: Gf2Matrix
    source: str  # "geometric" or "override"
    geometric_agrees: bool | None = None


@dataclass(frozen=True)
class BlockSet:
    A: Gf2Matrix
    B: Gf2Matrix
    D: Gf2Matrix


@dataclass(frozen=True)
class SurgeryPackage:
    a0: int
    a1: int
    a_inf: int
    tau0: Gf2Matrix
    tau1: Gf2Matrix
    tau_inf: Gf2Matrix
    blocks0: BlockSet
    blocks1: BlockSet
    blocks_inf: BlockSet
    X0: Gf2Matrix
    X1: Gf2Matrix
    Xinf: Gf2Matrix
    fbar_inf: Gf2Matrix
    fbar0: Gf2Matrix
    fbar1: Gf2Matrix

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.a0, self.a1, self.a_inf)

    @property
    def f_inf(self) -> Gf2Matrix:
        return _canonical_f(self.a0, self.a_inf, self.a1)

    @property
    def f0(self) -> Gf2Matrix:
        return _canonical_f(self.a1, self.a0, self.a_inf)

    @property
    def f1(self) -> Gf2Matrix:
        return _canonical_f(self.a_inf, self.a1, self.a0)

    def verify(self) -> None:
        verify_package(self)


def _canonical_f(top: int, ident: int, right: int) -> Gf2Matrix:
    """(0 0; I 0) with row split (top, ident) and column split (ident, right)."""
    blocks = {}
    if ident:
        blocks[(1, 0)] = Gf2Matrix.identity(ident)
    return BlockGrid((top, ident), (ident, right), blocks).assemble()


def _split_blocks(tau: Gf2Matrix, top: int, bottom: int) -> tuple[Gf2Matrix, ...]:
    """The A, B and D blocks of tau cut at (top, bottom)."""
    a = tau.submatrix(range(0, top), range(0, top))
    b = tau.submatrix(range(0, top), range(top, top + bottom))
    d = tau.submatrix(range(top, top + bottom), range(top, top + bottom))
    return a, b, d


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
        override = complex_.tau_override
        expected = [
            (override.tau0, triple.total_dim("H0")),
            (override.tau1, triple.total_dim("H1")),
            (override.tau_inf, triple.total_dim("Hinf")),
        ]
        for m, n in expected:
            if (m.rows, m.cols) != (n, n):
                raise ShapeMismatch(f"tau override is {m.rows}x{m.cols}, expected {n}x{n}")
        agrees = None
        if geometric is not None:
            agrees = (
                geometric[0] == override.tau0
                and geometric[1] == override.tau1
                and geometric[2] == override.tau_inf
            )
        maps = TauMaps(override.tau0, override.tau1, override.tau_inf, "override", agrees)
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
    try:
        inv_inf = maps.tau_inf.inverse()
        inv0 = maps.tau0.inverse()
        inv1 = maps.tau1.inverse()
    except ShapeMismatch as exc:
        raise TauRelationFailure(f"duality map is singular: {exc}") from exc
    checks = [
        ("fbar0", totals.fbar0, inv_inf @ totals.f0 @ maps.tau1),
        ("fbar1", totals.fbar1, inv0 @ totals.f1 @ maps.tau_inf),
        ("fbar_inf", totals.fbar_inf, inv1 @ totals.f_inf @ maps.tau0),
    ]
    bad = [name for name, lhs, rhs in checks if lhs != rhs]
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
        g0 = Gf2Matrix.from_columns(g0_cols, n0)
        g1 = Gf2Matrix.from_columns(g1_cols, n1)
        g_inf = Gf2Matrix.from_columns(g_inf_cols, ninf)
        g0_inv, g1_inv, g_inf_inv = g0.inverse(), g1.inverse(), g_inf.inverse()
    except ShapeMismatch as exc:
        raise NormalizationFailure(f"normal-form basis is not a basis: {exc}") from exc

    a_inf, a1 = len(u), n0 - len(u)
    a0 = len(w)
    if ninf - len(z1) != a0 or n1 - a0 != a_inf:
        raise NormalizationFailure("rank bookkeeping violates triangle exactness")

    nf_inf = g1_inv @ f_inf @ g0
    nf0 = g_inf_inv @ f0 @ g1
    nf1 = g0_inv @ f1 @ g_inf
    if (
        nf_inf != _canonical_f(a0, a_inf, a1)
        or nf0 != _canonical_f(a1, a0, a_inf)
        or nf1 != _canonical_f(a_inf, a1, a0)
    ):
        raise NormalizationFailure("triangle maps do not reach the normal form")

    tau0 = g0_inv @ maps.tau0 @ g0
    tau1 = g1_inv @ maps.tau1 @ g1
    tau_inf = g_inf_inv @ maps.tau_inf @ g_inf
    fbar_inf = g1_inv @ totals.fbar_inf @ g0
    fbar0 = g_inf_inv @ totals.fbar0 @ g1
    fbar1 = g0_inv @ totals.fbar1 @ g_inf

    package = _package_from_parts(a0, a1, a_inf, tau0, tau1, tau_inf, fbar_inf, fbar0, fbar1)
    package.verify()
    return package


def _package_from_parts(
    a0, a1, a_inf, tau0, tau1, tau_inf, fbar_inf, fbar0, fbar1
) -> SurgeryPackage:
    A0, B0, D0 = _split_blocks(tau0, a_inf, a1)
    A1, B1, D1 = _split_blocks(tau1, a0, a_inf)
    Ai, Bi, Di = _split_blocks(tau_inf, a1, a0)
    return SurgeryPackage(
        a0,
        a1,
        a_inf,
        tau0,
        tau1,
        tau_inf,
        BlockSet(A0, B0, D0),
        BlockSet(A1, B1, D1),
        BlockSet(Ai, Bi, Di),
        B1 @ B0 @ Bi,
        Bi @ B1 @ B0,
        B0 @ Bi @ B1,
        fbar_inf,
        fbar0,
        fbar1,
    )


def verify_package(p: SurgeryPackage) -> None:
    """All package axioms; raises NormalizationFailure with the first failure."""
    expect = [
        ("B0", p.blocks0.B, (p.a_inf, p.a1)),
        ("B1", p.blocks1.B, (p.a0, p.a_inf)),
        ("Binf", p.blocks_inf.B, (p.a1, p.a0)),
    ]
    for name, m, shape in expect:
        if (m.rows, m.cols) != shape:
            raise NormalizationFailure(f"{name} has shape {(m.rows, m.cols)}, expected {shape}")
    inverses = {}
    for name, tau, blocks, top, bottom in [
        ("tau0", p.tau0, p.blocks0, p.a_inf, p.a1),
        ("tau1", p.tau1, p.blocks1, p.a0, p.a_inf),
        ("tau_inf", p.tau_inf, p.blocks_inf, p.a1, p.a0),
    ]:
        try:
            inv = inverses[name] = tau.inverse()
        except ShapeMismatch as exc:
            raise NormalizationFailure(f"{name} is singular: {exc}") from exc
        ia, ib, id_ = _split_blocks(inv, top, bottom)
        if ia != blocks.A or ib != blocks.B or id_ != blocks.D:
            raise NormalizationFailure(f"{name} inverse does not share the A, B, D blocks")
    for name, x in [("X0", p.X0), ("X1", p.X1), ("Xinf", p.Xinf)]:
        if not (x @ x).is_zero():
            raise NormalizationFailure(f"{name} does not square to zero")
    relations = [
        ("fbar0", p.fbar0, inverses["tau_inf"] @ p.f0 @ p.tau1),
        ("fbar1", p.fbar1, inverses["tau0"] @ p.f1 @ p.tau_inf),
        ("fbar_inf", p.fbar_inf, inverses["tau1"] @ p.f_inf @ p.tau0),
    ]
    for name, lhs, rhs in relations:
        if lhs != rhs:
            raise NormalizationFailure(f"{name} violates its duality relation")
    exact = [
        (p.fbar0, p.fbar_inf, p.a0 + p.a_inf),
        (p.fbar1, p.fbar0, p.a1 + p.a0),
        (p.fbar_inf, p.fbar1, p.a_inf + p.a1),
    ]
    for second, first, middle in exact:
        if not (second @ first).is_zero():
            raise NormalizationFailure("barred triangle composite is nonzero")
        if second.rank() + first.rank() != middle:
            raise NormalizationFailure("barred triangle is not exact")


_BUILT: weakref.WeakKeyDictionary[BifilteredComplex, tuple[SurgeryTotals, TauMaps]] = (
    weakref.WeakKeyDictionary()
)


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
    # equal complexes share an entry, and 0 == 0.0 == False, so a grading or
    # drop that is not an int has to be caught before the lookup
    require_valid(complex_)
    built = _BUILT.get(complex_)
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
    r0 = p.blocks0.B.rank()
    r1 = p.blocks1.B.rank()
    r_inf = p.blocks_inf.B.rank()
    k0, l0, c0, d0 = _pair_dims(p.f0, p.fbar0)
    k1, l1, c1, d1 = _pair_dims(p.f1, p.fbar1)
    k_inf, l_inf, c_inf, d_inf = _pair_dims(p.f_inf, p.fbar_inf)

    closed = [
        ("k0", k0, p.a_inf - r1),
        ("k1", k1, p.a0 - r_inf),
        ("k_inf", k_inf, p.a1 - r0),
        ("c0", c0, p.a1 - r_inf),
        ("c1", c1, p.a_inf - r0),
        ("c_inf", c_inf, p.a0 - r1),
    ]
    for name, direct, formula in closed:
        if direct != formula:
            raise StatsInconsistent(f"{name}: direct {direct} != closed form {formula}")

    delta0 = p.a0 - r_inf - l0
    delta1 = p.a1 - r0 - l1
    delta_inf = p.a_inf - r1 - l_inf
    deltas = [
        ("delta0", delta0, p.a0 - max(r1, r_inf), d0, p.a0 - r1 - delta0),
        ("delta1", delta1, p.a1 - max(r_inf, r0), d1, p.a1 - r_inf - delta1),
        ("delta_inf", delta_inf, p.a_inf - max(r0, r1), d_inf, p.a_inf - r0 - delta_inf),
    ]
    for name, value, upper, d_direct, d_formula in deltas:
        if not 0 <= value <= upper:
            raise StatsInconsistent(f"{name} = {value} outside [0, {upper}]")
        if d_direct != d_formula:
            raise StatsInconsistent(f"d mismatch at {name}: {d_direct} != {d_formula}")

    return PackageStats(
        p.a0, p.a1, p.a_inf,
        r0, r1, r_inf,
        delta0, delta1, delta_inf,
        k0, k1, k_inf,
        l0, l1, l_inf,
        c0, c1, c_inf,
        d0, d1, d_inf,
        k0 + l0 + c0 + d0,
        k1 + l1 + c1 + d1,
        k_inf + l_inf + c_inf + d_inf,
    )


# -- admissible changes of basis ----------------------------------------------


@dataclass(frozen=True)
class AdmissibleChange:
    """Block-lower-triangular base changes preserving every normal form."""

    P0: Gf2Matrix
    P1: Gf2Matrix
    Pinf: Gf2Matrix
    Q0: Gf2Matrix  # a1 x a_inf
    Q1: Gf2Matrix  # a_inf x a0
    Qinf: Gf2Matrix  # a0 x a1

    def pp0(self) -> Gf2Matrix:
        return lower_triangular(self.Pinf, self.Q0, self.P1)

    def pp1(self) -> Gf2Matrix:
        return lower_triangular(self.P0, self.Q1, self.Pinf)

    def pp_inf(self) -> Gf2Matrix:
        return lower_triangular(self.P1, self.Qinf, self.P0)


def random_invertible(rng: random.Random, n: int) -> Gf2Matrix:
    while True:
        m = Gf2Matrix(n, n, [rng.getrandbits(n) for _ in range(n)]) if n else Gf2Matrix.identity(0)
        if m.rank() == n:
            return m


def random_admissible(seed: int, dims: tuple[int, int, int]) -> AdmissibleChange:
    a0, a1, a_inf = dims
    rng = random.Random(f"splicerank-admissible-{seed}")
    return AdmissibleChange(
        random_invertible(rng, a0),
        random_invertible(rng, a1),
        random_invertible(rng, a_inf),
        Gf2Matrix(a1, a_inf, [rng.getrandbits(a_inf) for _ in range(a1)]),
        Gf2Matrix(a_inf, a0, [rng.getrandbits(a0) for _ in range(a_inf)]),
        Gf2Matrix(a0, a1, [rng.getrandbits(a1) for _ in range(a0)]),
    )


def apply_admissible(p: SurgeryPackage, change: AdmissibleChange) -> SurgeryPackage:
    """Conjugate a package; the canonical triangle forms stay bit-identical."""
    pp0, pp1, ppi = change.pp0(), change.pp1(), change.pp_inf()
    if not (pp0.rank() == pp0.rows and pp1.rank() == pp1.rows and ppi.rank() == ppi.rows):
        raise ShapeMismatch("admissible change is singular")
    for f, left, right in [
        (p.f_inf, pp1, pp0),
        (p.f0, ppi, pp1),
        (p.f1, pp0, ppi),
    ]:
        if left.inverse() @ f @ right != f:
            raise NormalizationFailure("admissible change moved a triangle map")
    out = _package_from_parts(
        p.a0,
        p.a1,
        p.a_inf,
        pp0.inverse() @ p.tau0 @ pp0,
        pp1.inverse() @ p.tau1 @ pp1,
        ppi.inverse() @ p.tau_inf @ ppi,
        pp1.inverse() @ p.fbar_inf @ pp0,
        ppi.inverse() @ p.fbar0 @ pp1,
        pp0.inverse() @ p.fbar1 @ ppi,
    )
    out.verify()
    return out


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
    (H0 = (a_inf, a1), H1 = (a0, a_inf), Hinf = (a1, a0)), so the summed f
    maps keep the form (0 0; I 0) and the sum passes ``verify_package``.
    """
    top_p = {"H0": p.a_inf, "H1": p.a0, "Hinf": p.a1}
    top_q = {"H0": q.a_inf, "H1": q.a0, "Hinf": q.a1}

    def add(name: str, target: str, source: str) -> Gf2Matrix:
        return _block_sum(
            getattr(p, name),
            getattr(q, name),
            (top_p[target], top_p[source]),
            (top_q[target], top_q[source]),
        )

    out = _package_from_parts(
        p.a0 + q.a0,
        p.a1 + q.a1,
        p.a_inf + q.a_inf,
        add("tau0", "H0", "H0"),
        add("tau1", "H1", "H1"),
        add("tau_inf", "Hinf", "Hinf"),
        add("fbar_inf", "H1", "H0"),
        add("fbar0", "Hinf", "H1"),
        add("fbar1", "H0", "Hinf"),
    )
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
    _, b, _ = _split_blocks(tau, top, bottom)
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
        tau0 = _twist(rng, _random_involution(rng, a_inf + a1), a_inf, a1)
        tau1 = _twist(rng, _random_involution(rng, a0 + a_inf), a0, a_inf)
        tau_inf = _twist(rng, _random_involution(rng, a1 + a0), a1, a0)
        b0 = _split_blocks(tau0, a_inf, a1)[1]
        b1 = _split_blocks(tau1, a0, a_inf)[1]
        bi = _split_blocks(tau_inf, a1, a0)[1]
        x0, x1, xi = b1 @ b0 @ bi, bi @ b1 @ b0, b0 @ bi @ b1
        if not ((x0 @ x0).is_zero() and (x1 @ x1).is_zero() and (xi @ xi).is_zero()):
            continue
        f_inf = _canonical_f(a0, a_inf, a1)
        f0 = _canonical_f(a1, a0, a_inf)
        f1 = _canonical_f(a_inf, a1, a0)
        p = _package_from_parts(
            a0,
            a1,
            a_inf,
            tau0,
            tau1,
            tau_inf,
            tau1.inverse() @ f_inf @ tau0,
            tau_inf.inverse() @ f0 @ tau1,
            tau0.inverse() @ f1 @ tau_inf,
        )
        p.verify()
        return p
    raise SamplingExhausted(
        f"no synthetic package at dims {dims} after {SYNTHETIC_RETRY_BUDGET} draws"
    )
