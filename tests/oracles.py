"""Reference implementations and model sets shared by the oracle tests.

Each reference is an earlier, plainer route to the same answer: homology
from two ``SpanSolver``s, which key pivots on the highest bit and carry a
coefficient mask for every generator (the library reduces against one
lowest-bit pivot dict with tag bits); level maps, duality maps and
filtration sides through label matrices and matrix products; the normal
form from complements taken one standard vector at a time; the package
axioms with every block cut out; graded pieces from spans of the
intersections; the splice matrix block by block from written-out Kronecker
products; and kernel witnesses from every pair of basis tuples, whose
families are assembled here from the package's blocks.  The library must
match them bit for bit.

The module also keeps the API only the tests use: Gaussian ``cancel``,
the dimension of a sum of spans, single surgery groups and level maps, the
knot Floer ranks ``hfk_hat_dims``, and the calibration of the graded-piece
multiplicities.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass
from itertools import product
from typing import Callable, Hashable, Iterable

from splicerank.corpus import corpus, corpus_names
from splicerank.duality import CYCLE, SurgeryPackage, geometric_package, stats
from splicerank.errors import NormalizationFailure, ShapeMismatch, WitnessNotInKernel
from splicerank.filtration import E_TERM_MULTIPLICITY, FiltrationProfile, profile
from splicerank.gf2 import (
    BlockGrid,
    Gf2Matrix,
    echelon,
    span_dim,
    span_intersection,
    xor_columns,
)
from splicerank.homology import ChainComplexF2, HomologySpace, induced_by_columns
from splicerank.model import (
    BifilteredComplex,
    FlipMap,
    Generator,
    flip_map,
    mirror,
    plane_i0,
    random_complex,
    staircase,
)
from splicerank.splice import (
    SpliceMatrix,
    SubspaceBound,
    WitnessReport,
    build_D,
    splice_rank,
)
from splicerank.surgery import MappingCone, PlaneStore, SurgeryTotals, SurgeryTriple


def span_basis(vectors) -> list[int]:
    """Canonical basis of the span: the reduced echelon rows, by pivot."""
    pivots = echelon(vectors)
    return [pivots[p] for p in sorted(pivots)]


def span_sum_dim(*vector_sets: Iterable[int]) -> int:
    """The dimension of the sum of the spans of the vector sets."""
    return span_dim([v for vs in vector_sets for v in vs])


def reachable(obj):
    """Every object obj holds through dataclass fields, slots, tuples, lists
    and the keys and values of mappings, obj included, each once."""
    seen, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if is_dataclass(x):
            stack.extend(getattr(x, f.name) for f in fields(x))
        elif getattr(type(x), "__slots__", ()):
            stack.extend(getattr(x, name, None) for name in type(x).__slots__)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, Mapping):
            stack.extend((*x.keys(), *x.values()))


def cokernel_dim(m: Gf2Matrix) -> int:
    """dim Coker m, by rank-nullity on the rows."""
    return m.rows - m.rank()


def submatrix(m: Gf2Matrix, rows: range, cols: range) -> Gf2Matrix:
    """The block of m in the rows and the columns of two step-1 ranges inside
    it, cut by itself: the reference for ``gf2.cut_blocks``, which cuts
    three in one pass."""
    if rows.step != 1 or cols.step != 1 or not (
        0 <= rows.start <= rows.stop <= m.rows and 0 <= cols.start <= cols.stop <= m.cols
    ):
        raise ShapeMismatch(f"submatrix {rows}, {cols} leaves {m.rows}x{m.cols}")
    mask = (1 << len(cols)) - 1
    return Gf2Matrix(len(rows), len(cols), [(m.row_bits[r] >> cols.start) & mask for r in rows])


def lower_triangular(top: Gf2Matrix, lower_left: Gf2Matrix, lower_right: Gf2Matrix) -> Gf2Matrix:
    """The block matrix (top 0; lower_left lower_right)."""
    grid = BlockGrid(
        (top.rows, lower_right.rows),
        (top.cols, lower_right.cols),
        {(0, 0): top, (1, 0): lower_left, (1, 1): lower_right},
    )
    return grid.assemble()


def mul_vec(m: Gf2Matrix, v: int) -> int:
    """m times the column vector v (a bitmask of length m.cols), row by row."""
    if v >> m.cols:
        raise ShapeMismatch(f"vector has bits beyond {m.cols}")
    out = 0
    for r, b in enumerate(m.row_bits):
        out |= ((b & v).bit_count() & 1) << r
    return out


def _vec_kron(v: int, w: int, w_len: int) -> int:
    """The Kronecker product v ⊗ w of two vectors, w of length w_len: a
    copy of w at bit k * w_len for each set bit k of v."""
    out = 0
    while v:
        low = v & -v
        out |= w << ((low.bit_length() - 1) * w_len)
        v ^= low
    return out


def oracle_models() -> list[BifilteredComplex]:
    out = [corpus(name) for name in corpus_names()]
    out += [mirror(corpus(name)) for name in corpus_names()]
    out += [random_complex(seed) for seed in range(12)]
    for steps in ([], [1, 1], [1, 2, 2, 1], [2, 1, 1, 2], [3, 1, 1, 3], [1, 1, 2, 2, 1, 1]):
        out.append(staircase(steps, f"staircase{steps}"))
    # gradings not symmetric about 0, so the two filtration windows differ
    out.append(BifilteredComplex("shifted", (Generator("e", 1),), (), None, Gf2Matrix.identity(1)))
    return out


class SpanSolver:
    """Online span with coordinate solving over the accepted generators.

    ``add`` inserts a vector and reports whether it was outside the span so
    far; only an accepted vector becomes a generator, and generators are
    indexed 0, 1, ... in the order they were accepted.  ``solve`` expresses a
    vector as a combination of the generators (a mask over their indices) or
    returns None if the vector is outside the span.
    """

    def __init__(self, vectors: Iterable[int] = ()):
        self._pivots: dict[int, tuple[int, int]] = {}
        for v in vectors:
            self.add(v)

    def add(self, v: int) -> bool:
        v, coeff = self._reduce_with_coeffs(v)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = (v, coeff | (1 << len(self._pivots)))
        return True

    def _reduce_with_coeffs(self, v: int) -> tuple[int, int]:
        coeff = 0
        while v:
            p = v.bit_length() - 1
            if p not in self._pivots:
                return v, coeff
            pv, pc = self._pivots[p]
            v ^= pv
            coeff ^= pc
        return 0, coeff

    def solve(self, v: int) -> int | None:
        v, coeff = self._reduce_with_coeffs(v)
        return coeff if v == 0 else None

    @property
    def dim(self) -> int:
        return len(self._pivots)


def cancel(m: Gf2Matrix, r: int, c: int) -> Gf2Matrix:
    """Gaussian cancellation at a unit pivot, deleting row r and column c.

    The result is equivalent to the input: both kernel and cokernel
    dimensions are preserved.
    """
    if not (0 <= r < m.rows and 0 <= c < m.cols):
        raise ShapeMismatch(f"pivot ({r},{c}) outside {m.rows}x{m.cols}")
    if not (m.row_bits[r] >> c) & 1:
        raise ValueError(f"entry ({r},{c}) is zero")
    pivot_row = m.row_bits[r]
    low = (1 << c) - 1
    bits = []
    for i, b in enumerate(m.row_bits):
        if i == r:
            continue
        if (b >> c) & 1:
            b ^= pivot_row
        bits.append((b & low) | ((b >> (c + 1)) << c))
    return Gf2Matrix(m.rows - 1, m.cols - 1, bits)


class ReferenceHomology:
    """Homology with a probe solver over an echelon basis of the boundaries,
    then a second solver over that basis and the representatives."""

    def __init__(self, complex_: ChainComplexF2):
        self.complex = complex_
        boundary = complex_.boundary
        image = span_basis(boundary.transpose().row_bits)
        probe = SpanSolver(image)
        self.reps = [z for z in boundary.kernel_basis() if probe.add(z)]
        self._n_boundaries = len(image)
        self._solver = SpanSolver(image + self.reps)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, cycle: int) -> int:
        coeffs = self._solver.solve(cycle)
        if coeffs is None:
            raise ValueError("not a cycle of this complex")
        return coeffs >> self._n_boundaries


def reference_label_matrix(
    source: ChainComplexF2,
    target: ChainComplexF2,
    fn: Callable[[Hashable], Hashable | None],
) -> Gf2Matrix:
    entries = []
    for col, lbl in enumerate(source.basis):
        image = fn(lbl)
        if image is not None:
            entries.append((target.basis.index(image), col))
    return Gf2Matrix.from_entries(target.dim, source.dim, entries)


def reference_map_vector(
    vec: int,
    source: ChainComplexF2,
    target: ChainComplexF2,
    fn: Callable[[Hashable], Hashable | None],
) -> int:
    out = 0
    for idx in range(source.dim):
        if (vec >> idx) & 1:
            image = fn(source.basis[idx])
            if image is not None:
                out ^= 1 << target.basis.index(image)
    return out


def reference_induced(chain_map: Gf2Matrix, source, target) -> Gf2Matrix:
    cols = [target.coords(mul_vec(chain_map, rep)) for rep in source.reps]
    return Gf2Matrix.from_columns(cols, target.dim)


def reference_level_maps(triple: SurgeryTriple) -> tuple[tuple[dict[int, Gf2Matrix], ...], ...]:
    """The maps of both triangles of a triple, (f0, f1, f_inf) and (fbar0,
    fbar1, fbar_inf) in ``CYCLE`` order as ``SurgeryTriple.maps`` holds
    them, from its cones and spots alone."""
    cones0 = {s: triple.cones0[s].cone for s in triple.window}
    cones1 = {s: triple.cones1[s].cone for s in triple.window}
    spots = {s: triple.H[2][s].complex for s in triple.window}
    H0 = {s: ReferenceHomology(cones0[s]) for s in triple.window}
    H1 = {s: ReferenceHomology(cones1[s]) for s in triple.window}
    Hinf = {s: ReferenceHomology(spots[s]) for s in triple.window}
    (f0, f1, f_inf), (fbar0, fbar1, fbar_inf) = maps = tuple(tuple({} for _ in CYCLE) for _ in range(2))

    def same(lbl):
        return lbl

    def zig_zag(s, low, lift):
        cols = []
        for rep in Hinf[s].reps:
            lifted = reference_map_vector(rep, spots[s], cones1[s], lift)
            back = reference_map_vector(mul_vec(cones1[s].boundary, lifted), cones1[s], cones0[low], same)
            cols.append(H0[low].coords(back))
        return Gf2Matrix.from_columns(cols, H0[low].dim)

    for s in triple.window:
        cone0, cone1, spot = cones0[s], cones1[s], spots[s]
        inc = reference_label_matrix(cone0, cone1, same)
        f_inf[s] = reference_induced(inc, H0[s], H1[s])
        proj = reference_label_matrix(
            cone1, spot, lambda lbl: lbl[1] if lbl[0] == "v" and lbl[1][2] == -s else None
        )
        f0[s] = reference_induced(proj, H1[s], Hinf[s])
        f1[s] = zig_zag(s, s, lambda lbl: ("v", lbl))
        proj_bar = reference_label_matrix(
            cone1,
            spot,
            lambda lbl: (lbl[1][0], 0, -s) if lbl[0] == "u" and lbl[1][1] == s else None,
        )
        fbar0[s] = reference_induced(proj_bar, H1[s], Hinf[s])
        if s - 1 in triple.window:
            inc_bar = reference_label_matrix(cones0[s - 1], cone1, same)
            fbar_inf[s] = reference_induced(inc_bar, H0[s - 1], H1[s])
            fbar1[s] = zig_zag(s, s - 1, lambda lbl: ("u", (lbl[0], s, 0)))
    return maps


def reference_totals(triple: SurgeryTriple) -> SurgeryTotals:
    """A triple's totals entry by entry from its level maps: H_k stacks its
    levels in increasing s, and f_k or fbar_k at level s goes from H_next(k)
    to H_prev(k) of the triangle at s, whose H0 the barred one reads at
    level s - 1."""
    offsets, dims = [], []
    for spaces in triple.H:
        offsets.append({})
        at = 0
        for s in triple.window:
            offsets[-1][s], at = at, at + spaces[s].dim
        dims.append(at)
    families = []
    for maps, shifts in zip(triple.maps, ((0, 0, 0), (-1, 0, 0))):
        totals = []
        for (_, _, prev, nxt), family in zip(CYCLE, maps):
            entries = []
            for s, m in family.items():
                top, left = offsets[prev][s + shifts[prev]], offsets[nxt][s + shifts[nxt]]
                entries += [(top + r, left + c) for r, row in enumerate(m.dense()) for c, x in enumerate(row) if x]
            totals.append(Gf2Matrix.from_entries(dims[prev], dims[nxt], entries))
        families.append(tuple(totals))
    return SurgeryTotals(*families, tuple(dims))


def reference_geometric_tau(complex_: BifilteredComplex, triple: SurgeryTriple):
    """tau0, tau1, tau_inf of ``duality._geometric_tau``, each block the
    induced map of a label matrix."""
    sigma = complex_.symmetry
    index = {s: k for k, s in enumerate(triple.window)}

    def swap(lbl):
        tag, (x, i, j) = lbl
        if tag == "w":
            return lbl
        return ("v" if tag == "u" else "u", (sigma[x], j, i))

    def total(planes, spaces, reflect, fn):
        dims = tuple(spaces[s].dim for s in triple.window)
        blocks = {}
        for s in triple.window:
            if spaces[s].dim:
                t = reflect(s)
                chain = reference_label_matrix(planes[s], planes[t], fn(s))
                blocks[(index[t], index[s])] = induced_by_columns(chain.transpose().row_bits, spaces[s], spaces[t])
        return BlockGrid(dims, dims, blocks).assemble()

    planes = [{s: spaces[s].complex for s in triple.window} for spaces in triple.H]
    tau0 = total(planes[0], triple.H[0], lambda s: -s - 1, lambda s: swap)
    tau1 = total(planes[1], triple.H[1], lambda s: -s, lambda s: swap)
    tau_inf = total(
        planes[2],
        triple.H[2],
        lambda s: -s,
        lambda s: lambda lbl: (sigma[lbl[0]], 0, lbl[2] + 2 * s),
    )
    return tau0, tau1, tau_inf


def reference_normalize(
    totals: SurgeryTotals, taus: tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]
) -> tuple[SurgeryPackage, tuple[Gf2Matrix, ...]]:
    """``normalize(normal_basis(totals, taus))`` with each complement taken
    greedily by a ``SpanSolver``: W of Ker f0 in H1, U of Ker f_inf in H0
    and Z1 of Im f0 in Hinf, and every map conjugated by the inverse of a
    basis change.

    Returns the package and, beside it, the totals' fbar maps conjugated as
    g_prev^-1 fbar_k g_next, in table order (fbar0, fbar1, fbar_inf), which
    the package's derived fbar maps must equal."""

    def complement(vectors: list[int], dim: int) -> list[int]:
        solver = SpanSolver(vectors)
        return [i for i in range(dim) if solver.add(1 << i)]

    f0, f1, f_inf = totals.fs
    fbar0, fbar1, fbar_inf = totals.fbars
    n0, n1, n_inf = totals.dims
    w = complement(f0.kernel_basis(), n1)
    u = complement(f_inf.kernel_basis(), n0)
    image_f0 = [mul_vec(f0, 1 << i) for i in w]
    z1 = complement(image_f0, n_inf)
    g0 = Gf2Matrix.from_columns([1 << i for i in u] + [mul_vec(f1, 1 << i) for i in z1], n0)
    g1 = Gf2Matrix.from_columns([1 << i for i in w] + [mul_vec(f_inf, 1 << i) for i in u], n1)
    g_inf = Gf2Matrix.from_columns([1 << i for i in z1] + image_f0, n_inf)
    i0, i1, i_inf = g0.inverse(), g1.inverse(), g_inf.inverse()
    package = SurgeryPackage(
        len(w),
        n0 - len(u),
        len(u),
        i0 @ taus[0] @ g0,
        i1 @ taus[1] @ g1,
        i_inf @ taus[2] @ g_inf,
    )
    return package, (i_inf @ fbar0 @ g1, i0 @ fbar1 @ g_inf, i1 @ fbar_inf @ g0)


def reference_package_parts(p: SurgeryPackage) -> dict[str, object]:
    """A package's blocks, X products and normal-form f maps, written out per
    index: H0 = (a_inf, a1), H1 = (a0, a_inf), Hinf = (a1, a0)."""

    def split(tau: Gf2Matrix, top: int, bottom: int) -> tuple[Gf2Matrix, ...]:
        a = submatrix(tau, range(0, top), range(0, top))
        b = submatrix(tau, range(0, top), range(top, top + bottom))
        d = submatrix(tau, range(top, top + bottom), range(top, top + bottom))
        return a, b, d

    def canonical_f(top: int, ident: int, right: int) -> Gf2Matrix:
        """(0 0; I 0) with row split (top, ident) and column split (ident, right)."""
        blocks = {(1, 0): Gf2Matrix.identity(ident)} if ident else {}
        return BlockGrid((top, ident), (ident, right), blocks).assemble()

    A0, B0, D0 = split(p.tau0, p.a_inf, p.a1)
    A1, B1, D1 = split(p.tau1, p.a0, p.a_inf)
    Ai, Bi, Di = split(p.tau_inf, p.a1, p.a0)
    return {
        "blocks": ((A0, B0, D0), (A1, B1, D1), (Ai, Bi, Di)),
        "xs": (B1 @ B0 @ Bi, Bi @ B1 @ B0, B0 @ Bi @ B1),
        "fs": (canonical_f(p.a1, p.a0, p.a_inf), canonical_f(p.a_inf, p.a1, p.a0), canonical_f(p.a0, p.a_inf, p.a1)),
    }


def reference_verify_package(p: SurgeryPackage) -> None:
    """``duality.verify_package`` as it first was: the inverse's A, B and D
    blocks cut out and compared with tau's."""
    dims = p.dims
    for (suffix, _, prev, nxt), tau, blocks in zip(CYCLE, p.taus, p.blocks):
        try:
            inverse = tau.inverse()
        except ShapeMismatch as exc:
            raise NormalizationFailure(f"tau{suffix} is singular: {exc}") from exc
        top, n = dims[prev], dims[prev] + dims[nxt]
        cut = (
            submatrix(inverse, range(top), range(top)),
            submatrix(inverse, range(top), range(top, n)),
            submatrix(inverse, range(top, n), range(top, n)),
        )
        if cut != blocks:
            raise NormalizationFailure(f"tau{suffix} inverse does not share the A, B, D blocks")
    for k, x in zip(CYCLE, p.xs):
        if not (x @ x).is_zero():
            raise NormalizationFailure(f"X{k.label} does not square to zero")


def reference_pair_dims(f: Gf2Matrix, fbar: Gf2Matrix) -> tuple[int, int, int, int]:
    """(k, l, c, d) of ``duality.stats`` for one map pair, straight from the
    definitions on fbar itself: k = dim(Ker f ∩ Ker fbar), l = dim Ker(f + fbar)
    - k, c = codim(Im f + Im fbar) and d = dim(Im f + Im fbar) - rank(f + fbar)."""
    sum_rank = (f + fbar).rank()
    k = len(BlockGrid((f.rows, fbar.rows), (f.cols,), {(0, 0): f, (1, 0): fbar}).assemble().kernel_basis())
    im_sum = BlockGrid((f.rows,), (f.cols, fbar.cols), {(0, 0): f, (0, 1): fbar}).assemble().rank()
    return k, f.cols - sum_rank - k, f.rows - im_sum, im_sum - sum_rank


def kron(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Kronecker product, row (i, p) = row i of a spread over copies of row p of b."""
    bits = []
    for ra in a.row_bits:
        for rb in b.row_bits:
            bits.append(sum(rb << (c * b.cols) for c in range(a.cols) if (ra >> c) & 1))
    return Gf2Matrix(a.rows * b.rows, a.cols * b.cols, bits)


def reference_build_D(p1: SurgeryPackage, p2: SurgeryPackage) -> SpliceMatrix:
    """The splice matrix block by block: every product and Kronecker product
    written out, the blocks summed and placed by ``BlockGrid``."""
    (A0_1, B0_1, D0_1), (A1_1, B1_1, D1_1), (Ai_1, Bi_1, Di_1) = p1.blocks
    (A0_2, B0_2, D0_2), (A1_2, B1_2, D1_2), (Ai_2, Bi_2, Di_2) = p2.blocks
    X1_1, X1_2 = p1.xs[1], p2.xs[1]
    a0_1, a1_1, ai_1 = p1.a0, p1.a1, p1.a_inf
    a0_2, a1_2, ai_2 = p2.a0, p2.a1, p2.a_inf

    col_dims = (ai_1 * ai_2, ai_1 * a0_2, a1_1 * a0_2, a0_1 * ai_2, a0_1 * a1_2, a1_1 * a1_2)
    row_dims = (a0_1 * a0_2, ai_1 * a1_2, ai_1 * a0_2, a1_1 * ai_2, a0_1 * ai_2, a1_1 * a1_2)
    ident = Gf2Matrix.identity
    x1a_1 = X1_1 @ Ai_1
    d0x_2 = D0_2 @ X1_2
    x1b_1 = X1_1 @ Bi_1
    b0x_2 = B0_2 @ X1_2
    entries = {
        (0, 0): kron(Di_1 @ B1_1, B1_2 @ A0_2),
        (0, 1): kron(B1_1 @ A0_1, ident(a0_2)),
        (0, 2): kron(B1_1 @ B0_1, ident(a0_2)),
        (0, 3): kron(Di_1 @ A1_1, B1_2 @ A0_2),
        (0, 4): kron(ident(a0_1), B1_2 @ B0_2),
        (1, 0): kron(ident(ai_1), Bi_2 @ B1_2),
        (1, 1): kron(D1_1 @ A0_1, Bi_2 @ A1_2),
        (1, 2): kron(D1_1 @ B0_1, Bi_2 @ A1_2),
        (1, 4): kron(B0_1 @ Bi_1, ident(a1_2)),
        (1, 5): kron(B0_1 @ Ai_1, ident(a1_2)),
        (2, 0): kron(ident(ai_1), Di_2 @ B1_2),
        (2, 1): kron(ident(ai_1), ident(a0_2)) + kron(D1_1 @ A0_1, Di_2 @ A1_2),
        (2, 2): kron(D1_1 @ B0_1, Di_2 @ A1_2),
        (3, 0): kron(Bi_1 @ B1_1, ident(ai_2)),
        (3, 2): kron(ident(a1_1), B0_2 @ Bi_2),
        (3, 3): kron(Bi_1 @ A1_1, ident(ai_2)),
        (3, 4): kron(D0_1 @ Bi_1, B0_2 @ Ai_2) + kron(x1b_1, b0x_2),
        (3, 5): kron(D0_1 @ Ai_1, B0_2 @ Ai_2) + kron(x1a_1, b0x_2),
        (4, 0): kron(Di_1 @ B1_1, D1_2 @ A0_2),
        (4, 3): kron(ident(a0_1), ident(ai_2)) + kron(Di_1 @ A1_1, D1_2 @ A0_2),
        (4, 4): kron(ident(a0_1), D1_2 @ B0_2),
        (5, 2): kron(ident(a1_1), D0_2 @ Bi_2),
        (5, 4): kron(D0_1 @ Bi_1, D0_2 @ Ai_2) + kron(x1b_1, d0x_2),
        (5, 5): kron(ident(a1_1), ident(a1_2))
        + kron(D0_1 @ Ai_1, D0_2 @ Ai_2)
        + kron(x1a_1, d0x_2),
    }
    return SpliceMatrix(BlockGrid(row_dims, col_dims, entries).assemble())


def reference_build_side(
    window: range,
    level: Callable[[tuple[str, int, int]], int],
    own_plane: ChainComplexF2,
    to_ambient_chain: Gf2Matrix,
    ambient_h: ReferenceHomology,
) -> tuple:
    """One filtration side, each sub-plane cut from own_plane and mapped by
    label matrices and products; the fields of ``filtration.SideData``."""
    image, kernels, spaces, incs = {}, {}, {}, {}
    prev_sub = None
    for s in window:
        sub = own_plane.restrict(lambda lbl: level(lbl) <= s)
        h = ReferenceHomology(sub)
        to_plane = reference_label_matrix(sub, own_plane, lambda lbl: lbl)
        iota = reference_induced(to_ambient_chain @ to_plane, h, ambient_h)
        image[s] = [mul_vec(iota, 1 << i) for i in range(h.dim)]
        kernels[s] = iota.kernel_basis()
        spaces[s] = h
        if prev_sub is not None:
            step = reference_label_matrix(prev_sub, sub, lambda lbl: lbl)
            incs[s] = reference_induced(step, spaces[s - 1], h)
        prev_sub = sub

    def combine(basis, coeffs):
        out = 0
        for i, b in enumerate(basis):
            if (coeffs >> i) & 1:
                out ^= b
        return out

    bracket_sub, bracket_img, img_vectors, sub_vectors = {}, {}, {}, {}
    for s in window:
        basis = kernels[s]
        if s + 1 in incs:
            solver = SpanSolver(kernels[s + 1])
            cols = [solver.solve(mul_vec(incs[s + 1], k)) for k in basis]
            step_matrix = Gf2Matrix.from_columns(cols, len(kernels[s + 1]))
            ker_coeff = step_matrix.kernel_basis()
            sub_vectors[s] = [combine(basis, c) for c in ker_coeff]
            bracket_sub[s] = len(ker_coeff)
            bracket_img[s] = step_matrix.rank()
            img_vectors[s + 1] = [mul_vec(incs[s + 1], k) for k in basis]
        else:
            sub_vectors[s] = list(basis)
            bracket_sub[s] = len(basis)
            bracket_img[s] = 0
    inter, quot = {}, {}
    for s in window:
        incoming = img_vectors.get(s, [])
        inter[s] = len(span_intersection(sub_vectors[s], incoming, spaces[s].dim))
        quot[s] = len(kernels[s]) - span_sum_dim(incoming, sub_vectors[s])
    kernel_dim = {s: len(kernels[s]) for s in window}
    return (window, image, kernel_dim, bracket_sub, bracket_img, inter, quot)


def torus_staircase(p: int, q: int) -> BifilteredComplex:
    """The staircase of the torus knot T(p, q).

    Its Alexander polynomial is (1 - t) times the series of the semigroup
    <p, q>, so its exponents are where membership in the semigroup changes,
    up to the degree (p-1)(q-1); the steps are the gaps between them.
    """
    top = (p - 1) * (q - 1)
    semigroup = {a * p + b * q for a in range(q) for b in range(p)}
    exponents = [k for k in range(top + 1) if (k in semigroup) != (k - 1 in semigroup)]
    return staircase([b - a for a, b in zip(exponents, exponents[1:])], f"T({p},{q})")


def reference_graded_pieces(prof: FiltrationProfile):
    """A, e and the diagonal-sum E pieces of a profile's two sides, from a
    basis of every R_p ∩ C_q and a span of the two pieces below it."""
    row, col, hf_dim = prof.row, prof.col, prof.hf_dim

    def stable_image(side, s):
        if s < side.window.start:
            return []
        return side.image[min(s, side.window.stop - 1)]

    def hpq(p, q):
        return span_intersection(stable_image(row, p), stable_image(col, q), hf_dim)

    a_dims = {}
    for p in row.window:
        for q in col.window:
            d = len(hpq(p, q)) - span_sum_dim(hpq(p - 1, q), hpq(p, q - 1))
            if d:
                a_dims[(p, q)] = d
    e_dims = {}
    for (p, q), d in a_dims.items():
        e_dims[p + q] = e_dims.get(p + q, 0) + d

    def u(t):
        return span_sum_dim(*[hpq(p, t - p) for p in row.window if t - p in col.window] or [[]])

    diagonal = {t: u(t) - u(t - 1) for t in range(min(e_dims), max(e_dims) + 1)} if e_dims else {}
    return a_dims, e_dims, diagonal


@dataclass(frozen=True)
class PairTuple:
    """One choice of witness ingredients for a single knot."""

    x0: int = 0
    y0: int = 0
    x1: int = 0
    y1: int = 0
    x_inf: int = 0
    y_inf: int = 0
    z0: int = 0
    z1: int = 0
    z_inf: int = 0


# Each index k of the cycle 0 -> 1 -> inf -> 0, by the suffix of its
# package dim (a0, a1, a_inf), with the positions of prev(k) and next(k) in
# the package's per-index tuples (blocks, xs, fs).
_NEIGHBOURS = {"0": (2, 1), "1": (0, 2), "_inf": (1, 0)}


def reference_witness_families(p: SurgeryPackage) -> dict[str, list[int]]:
    """One knot's witness families from its blocks, written out per index k:
    z_k = Ker B_next(k), and w_k = Ker (B_prev(k) 0; D_prev(k) + A_next(k)
    B_next(k)), assembled by ``BlockGrid``."""
    out = {}
    for k, (prev, nxt) in _NEIGHBOURS.items():
        before, after = p.blocks[prev], p.blocks[nxt]
        out["z" + k] = after.B.kernel_basis()
        out["w" + k] = lower_triangular(before.B, before.D + after.A, after.B).kernel_basis()
    return out


def _family_tuples(p: SurgeryPackage) -> dict[str, list[PairTuple]]:
    """The basis tuples of one knot, by family, in pair-numbering order: a
    vector of w_k split into (x, y) at a_k."""
    families = reference_witness_families(p)
    out = {}
    for k in _NEIGHBOURS:
        a = getattr(p, "a" + k)
        out["w" + k] = [PairTuple(**{"x" + k: w & ((1 << a) - 1), "y" + k: w >> a}) for w in families["w" + k]]
    for k in _NEIGHBOURS:
        out["z" + k] = [PairTuple(**{"z" + k: z}) for z in families["z" + k]]
    return out


def assemble_witness(t1: PairTuple, t2: PairTuple, p1: SurgeryPackage, p2: SurgeryPackage) -> int:
    """Six-component kernel vector from one ingredient choice per knot: the
    generic route that ``splice._WITNESS_TERMS`` condenses."""
    a0_2, a1_2, ai_2 = p2.a0, p2.a1, p2.a_inf
    comps = [
        _vec_kron(t1.y0, t2.x_inf, ai_2)
        ^ _vec_kron(t1.x_inf, t2.y0, ai_2)
        ^ _vec_kron(t1.z0, t2.z0, ai_2),
        _vec_kron(t1.x_inf, t2.x0, a0_2),
        _vec_kron(t1.y_inf, t2.x0, a0_2)
        ^ _vec_kron(t1.x1, t2.y1, a0_2)
        ^ _vec_kron(t1.z_inf, t2.z1, a0_2),
        _vec_kron(t1.x0, t2.x_inf, ai_2),
        _vec_kron(t1.y1, t2.x1, a1_2)
        ^ _vec_kron(t1.x0, t2.y_inf, a1_2)
        ^ _vec_kron(t1.z1, t2.z_inf, a1_2),
        _vec_kron(t1.x1, t2.x1, a1_2),
    ]
    widths = [p1.a_inf * ai_2, p1.a_inf * a0_2, p1.a1 * a0_2, p1.a0 * ai_2, p1.a0 * a1_2, p1.a1 * a1_2]
    out = offset = 0
    for comp, width in zip(comps, widths):
        out |= comp << offset
        offset += width
    return out


def basis_tuples(p: SurgeryPackage) -> list[PairTuple]:
    """The basis tuples of one knot, families concatenated: the order that
    numbers the witness pairs."""
    return [t for family in _family_tuples(p).values() for t in family]


def reference_kernel_witnesses(p1: SurgeryPackage, p2: SurgeryPackage):
    """``splice.kernel_witnesses`` by assembling the witness of every pair of
    basis tuples; also the nonzero witnesses with their 1-based pair numbers."""
    st1, st2 = stats(p1), stats(p2)
    d = build_D(p1, p2).matrix
    d_columns = d.transpose().row_bits
    tuples1 = basis_tuples(p1)
    tuples2 = basis_tuples(p2)
    found = []
    for k, (t1, t2) in enumerate(product(tuples1, tuples2), 1):
        v = assemble_witness(t1, t2, p1, p2)
        if v:
            found.append((k, v))
            if xor_columns(d_columns, v):
                raise WitnessNotInKernel(f"witness from pair #{k} not annihilated by the splice matrix")
    ker_bound = (
        st1.k0 * st2.k0 + st1.k_inf * st2.k1 + st1.k1 * st2.k_inf
        + st1.l_inf * st2.l0 + st1.l0 * st2.l_inf + st1.l1 * st2.l1
    )
    coker_bound = (
        st1.c_inf * st2.c_inf + st1.c0 * st2.c1 + st1.c1 * st2.c0
        + st1.d_inf * st2.d0 + st1.d0 * st2.d_inf + st1.d1 * st2.d1
    )
    rank = d.rank()
    report = WitnessReport(
        len(tuples1) * len(tuples2),
        len(found),
        ker_bound,
        coker_bound,
        d.cols - rank,
        d.rows - rank,
        span_dim(v for _, v in found),
    )
    return report, found


# -- API only the tests use -----------------------------------------------------


def h_number(m: Gf2Matrix) -> int:
    """dim Ker + dim Coker = rows + cols - 2*rank."""
    return m.rows + m.cols - 2 * m.rank()


INF = "inf"


def build_cone(complex_: BifilteredComplex, n: int, s: int) -> MappingCone:
    """Cone of i_n^s (``PlaneStore.cone`` on a store of its own)."""
    return PlaneStore(flip_map(complex_)).cone(n, s)


def summand_dims(cone: MappingCone) -> tuple[int, int, int]:
    """The dims of a cone's summands u, v and w, counted on its tagged basis."""
    tags = [tag for tag, _ in cone.cone.basis]
    return tags.count("u"), tags.count("v"), tags.count("w")


def cone_chain_map(cone: MappingCone) -> Gf2Matrix:
    """The chain map i_n^s of a cone: the lower-left block of its boundary,
    rows on the codomain summand w, columns on the domain u (+) v."""
    u, v, w = summand_dims(cone)
    return submatrix(cone.cone.boundary, range(u + v, u + v + w), range(u + v))


def spot_plane(flip: FlipMap, s: int) -> ChainComplexF2:
    """C{i=0, j=-s} (``PlaneStore.spot`` on a store of its own)."""
    return PlaneStore(flip).spot(s)


def surgery_homology(complex_: BifilteredComplex, n, s: int) -> HomologySpace:
    """H_n(K, s) for n in {0, 1, "inf"}."""
    if n == INF:
        return HomologySpace(spot_plane(flip_map(complex_), s))
    return HomologySpace(build_cone(complex_, n, s).cone)


def hfk_hat_dims(complex_: BifilteredComplex) -> dict[int, int]:
    """Knot Floer ranks per Alexander grading (homology of one-spot planes)."""
    plane = plane_i0(complex_)
    lo, hi = complex_.grading_range()
    out = {}
    for s in range(lo, hi + 1):
        h = HomologySpace(plane.restrict(lambda lbl: lbl[2] == -s))
        if h.dim:
            out[s] = h.dim
    return out


def triangle_maps(complex_: BifilteredComplex, s: int) -> dict[str, Gf2Matrix]:
    """The six maps at level s (barred maps shift the level by one)."""
    triple = SurgeryTriple(complex_)

    def dim(k: int, level: int) -> int:
        return triple.H[k][level].dim if level in triple.window else 0

    # H0 of the barred triangle at level s sits at level s - 1
    out = {}
    for prefix, maps, shifts in (("f", triple.maps[0], (0, 0, 0)), ("fbar", triple.maps[1], (-1, 0, 0))):
        for (suffix, _, prev, nxt), family in zip(CYCLE, maps):
            zero = Gf2Matrix(dim(prev, s + shifts[prev]), dim(nxt, s + shifts[nxt]))
            out[prefix + suffix] = family.get(s, zero)
    return out


# Calibration of the graded-piece multiplicities: every candidate reading of
# the printed exponents against the independently computed left-hand sides.

PRINTED_EXPONENTS: dict[str, Callable[[int], int]] = {
    "ker_b1": lambda s: max(0, abs(s) - 1),
    "coker_b0": lambda s: max(0, -s),
    "ker_b1b0": lambda s: max(0, s),
    "coker_b1b0": lambda s: max(0, 1 - s),
}


def candidate_readings(which: str) -> dict[str, Callable[[int, int], int]]:
    """Candidate interpretations of an E_s power for calibration runs."""
    exp = PRINTED_EXPONENTS[which]
    frozen = E_TERM_MULTIPLICITY[which]
    return {
        "printed-multiplicity": lambda s, e: exp(s) * e,
        "printed-truncation": lambda s, e: min(e, exp(s)),
        "printed-indicator": lambda s, e: e if exp(s) > 0 else 0,
        "frozen": lambda s, e: frozen(s) * e,
    }


def calibrate_e_readings(complexes) -> dict[str, dict[str, int]]:
    """Mismatch counts of every candidate reading over the given complexes."""
    counts: dict[str, dict[str, int]] = {
        which: {name: 0 for name in candidate_readings(which)}
        for which in PRINTED_EXPONENTS
    }
    for complex_ in complexes:
        prof = profile(complex_)
        package = geometric_package(complex_)
        b0, b1 = package.blocks[0].B, package.blocks[1].B
        prod = b1 @ b0
        brackets = sum(prof.row.bracket_img.values()) + sum(prof.col.bracket_img.values())
        lhs = {
            "ker_b1": b1.kernel_dim() - brackets,
            "coker_b0": cokernel_dim(b0) - brackets,
            "ker_b1b0": prod.kernel_dim() - sum(prof.col.inter.values()),
            "coker_b1b0": cokernel_dim(prod) - sum(prof.col.quot.values()),
        }
        for which, readings in counts.items():
            for name in readings:
                reading = candidate_readings(which)[name]
                rhs = sum(reading(s, e) for s, e in prof.e.items())
                if rhs != lhs[which]:
                    readings[name] += 1
    return counts


def _injective(b: Gf2Matrix) -> bool:
    return b.rank() == b.cols


def _surjective(b: Gf2Matrix) -> bool:
    return b.rank() == b.rows


def reference_subspace_bounds(p1: SurgeryPackage, p2: SurgeryPackage) -> list[SubspaceBound]:
    """``splice.subspace_bounds`` as it was before it read the B ranks from
    ``stats``: every B block's injectivity, surjectivity, kernel and
    cokernel found by eliminating it."""
    b_1, b_2 = ([blocks.B for blocks in p.blocks] for p in (p1, p2))
    rank = splice_rank(p1, p2)
    out = []
    for circ, bullet, star in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        label = "({},{},{})".format(*(CYCLE[k].label for k in (circ, bullet, star)))
        # the first knot is read through the involution 0 <-> inf
        circ_1, bullet_1, star_1 = 2 - circ, 2 - bullet, 2 - star
        if _injective(b_2[circ]) and _surjective(b_2[bullet]):
            left = b_1[circ_1] @ b_1[bullet_1]
            right = b_2[bullet] @ b_2[circ]
            kb = left.kernel_dim() * right.kernel_dim()
            cb = cokernel_dim(left) * cokernel_dim(right)
            out.append(
                SubspaceBound(
                    f"case1 {label}", True, kb, cb, rank.ker >= kb, rank.coker >= cb
                )
            )
        else:
            out.append(SubspaceBound(f"case1 {label}", False))
        if _surjective(b_2[circ]) and _injective(b_2[bullet]):
            left_k = b_1[bullet_1] @ b_1[star_1]
            right_k = b_2[star] @ b_2[bullet]
            kb = left_k.kernel_dim() * right_k.kernel_dim()
            left_c = b_1[star_1] @ b_1[circ_1]
            right_c = b_2[circ] @ b_2[star]
            cb = cokernel_dim(left_c) * cokernel_dim(right_c)
            out.append(
                SubspaceBound(
                    f"case2 {label}", True, kb, cb, rank.ker >= kb, rank.coker >= cb
                )
            )
        else:
            out.append(SubspaceBound(f"case2 {label}", False))

    # combined variant when B0 of the right knot is injective and Binf surjective;
    # the joined pair of overlapping subspaces is counted by the larger one
    if _injective(b_2[0]) and _surjective(b_2[2]):
        k_pair = (b_1[2] @ b_1[1]).kernel_dim() * (b_2[1] @ b_2[0]).kernel_dim()
        k_prime = b_1[1].kernel_dim() * b_2[1].kernel_dim()
        kb = (
            b_1[0].kernel_dim() * b_2[2].kernel_dim()
            + b_1[2].kernel_dim() * b_2[0].kernel_dim()
            + max(k_pair, k_prime)
        )
        c_pair = cokernel_dim(b_1[1] @ b_1[0]) * cokernel_dim(b_2[2] @ b_2[1])
        c_prime = cokernel_dim(b_1[1]) * cokernel_dim(b_2[1])
        cb = (
            cokernel_dim(b_1[0]) * cokernel_dim(b_2[2])
            + cokernel_dim(b_1[2]) * cokernel_dim(b_2[0])
            + max(c_pair, c_prime)
        )
        out.append(
            SubspaceBound("remark", True, kb, cb, rank.ker >= kb, rank.coker >= cb)
        )
    else:
        out.append(SubspaceBound("remark", False))
    return out
