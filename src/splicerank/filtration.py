"""Double-filtration invariants of the ambient homology and the lemma suite.

Both filtration directions of the ambient invariant are realized inside the
homology of the j = 0 plane: the row side by its sub-planes C{i<=s, j=0}
directly, the column side by the sub-planes C{i=0, j<=s} of the i = 0 plane
mapped through the flip.  Both come from one ``surgery.PlaneStore``:
``profile`` makes its own, unless ``check_all_lemmas`` has just built a
``SurgeryTriple`` and hands it that triple's store.  All comparisons with the
surgery and duality pipelines are made at the level of dimensions.

The lemma suite reads a knot's surgery side from its ``SurgeryTotals``: the
per-level dimensions of H0 and H1, and the per-level maps f_inf(s), which
are the diagonal blocks of the total f_inf because f_inf keeps the level.
``check_all_lemmas`` builds a triple only for a knot the ``duality`` memo
does not hold yet; its exactness, window stability and duality relations
are checked then, once per knot.  The profile and every lemma entry are
computed on every call.

Graded pieces by a diagonal sweep
---------------------------------
With R_p the image of the row-side sub-plane p and C_q that of the
column-side sub-plane q, ``profile`` sweeps the diagonals t = p + q once.  It
cuts each R_p ∩ C_q once, keeps its dimension h(p, q), and keeps u(t), the
dimension of the sum of the diagonal's intersections; no basis outlives its
diagonal.  The graded pieces are then

    A(p, q) = h(p, q) - h(p-1, q) - h(p, q-1) + h(p-1, q-1),

which is exact because both filtrations are nested (R_{p-1} ⊆ R_p and
C_{q-1} ⊆ C_q): the two subspaces below (p, q) meet in R_{p-1} ∩ C_{q-1}.
Two checks remain.  The pieces must fill the ambient rank, and the E pieces
summed from A must equal u(t) - u(t-1), which comes from real spans.

Graded-piece multiplicities
---------------------------
The structural formulas for Ker/Coker of the B blocks and their double
products carry direct-sum powers of the graded pieces E_s; the contribution
of each is sum_s m(s) * e_s with m from ``E_TERM_MULTIPLICITY``.  These
readings are frozen: the calibration that singled them out among literal
readings of the printed exponents lives in the test suite
(``tests/oracles.py``), which re-runs it over the corpus and random models.
Two of the four differ from a literal reading: the double-product formulas
take each E_s at most once (exponents act as indicators), and the Coker(B0)
formula needs an extra max(0, s-2) on the positive side, as the staircase
models with top grading >= 2 show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import StatsInconsistent
from .gf2 import Gf2Matrix, span_dim, span_intersection, span_sum_dim, xor_columns
from .homology import (
    ChainComplexF2,
    HomologySpace,
    homology,
    inclusion_columns,
    induced_by_columns,
)
from .model import BifilteredComplex, flip_map, require_valid
from .surgery import PlaneStore, SurgeryTotals, total_package
from .duality import SurgeryPackage, geometric_package, known_totals

E_TERM_MULTIPLICITY: dict[str, Callable[[int], int]] = {
    "ker_b1": lambda s: max(0, abs(s) - 1),
    "coker_b0": lambda s: max(0, -s) + max(0, s - 2),
    "ker_b1b0": lambda s: min(1, max(0, s)),
    "coker_b1b0": lambda s: min(1, max(0, 1 - s)),
}


@dataclass(frozen=True)
class SideData:
    """One filtration direction: kernels of the maps into the ambient rank."""

    window: range
    image: dict[int, list[int]]  # basis of Im(iota_s) in ambient coordinates
    kernel_dim: dict[int, int]
    bracket_sub: dict[int, int]  # dim Ker(K_s -> K_{s+1})
    bracket_img: dict[int, int]  # dim Im(K_s -> K_{s+1})
    inter: dict[int, int]  # dim ([K_s]_{s+1} cap [K_{s-1}]^s)
    quot: dict[int, int]  # dim K_s / ([K_{s-1}]^s + [K_s]_{s+1})


@dataclass(frozen=True)
class FiltrationProfile:
    name: str
    hf_dim: int
    e: dict[int, int]
    A: dict[tuple[int, int], int]
    row: SideData  # first filtration index
    col: SideData  # second filtration index

    def e_total(self) -> int:
        return sum(self.e.values())

    def a_sum(self, keep: Callable[[int, int], bool]) -> int:
        return sum(d for (p, q), d in self.A.items() if keep(p, q))


def _build_side(
    window: range,
    cut: Callable[[int], ChainComplexF2],
    to_ambient: Callable[[ChainComplexF2], list[int]],
    ambient_h: HomologySpace,
) -> SideData:
    """Kernels of the sub-planes cut(s) into the ambient homology.

    ``to_ambient`` gives the columns of a sub-plane's chain map into the
    ambient plane; consecutive sub-planes include by their labels.
    """
    image: dict[int, list[int]] = {}
    kernels: dict[int, list[int]] = {}
    spaces: dict[int, HomologySpace] = {}
    incs: dict[int, list[int]] = {}  # columns of F_{s-1} -> F_s
    prev_sub = None
    for s in window:
        sub = cut(s)
        h = homology(sub)
        iota = induced_by_columns(to_ambient(sub), h, ambient_h)
        image[s] = list(iota.transpose().row_bits)
        kernels[s] = iota.kernel_basis()
        spaces[s] = h
        if prev_sub is not None:
            inc = induced_by_columns(inclusion_columns(prev_sub, sub), spaces[s - 1], h)
            incs[s] = inc.transpose().row_bits
        prev_sub = sub

    bracket_sub: dict[int, int] = {}
    bracket_img: dict[int, int] = {}
    img_vectors: dict[int, list[int]] = {}  # [K_{s-1}]^s inside F_s coordinates
    sub_vectors: dict[int, list[int]] = {}  # [K_s]_{s+1} inside F_s coordinates
    for s in window:
        basis = kernels[s]
        if s + 1 in incs:
            # K_s -> K_{s+1} in F_{s+1} coordinates: its kernel and rank are
            # those of the map into K_{s+1}'s own coordinates, which differ
            # from these by an injective map
            step = [xor_columns(incs[s + 1], k) for k in basis]
            if any(xor_columns(image[s + 1], v) for v in step):
                raise StatsInconsistent(f"kernel at level {s} escaped the next kernel")
            step_matrix = Gf2Matrix.from_columns(step, spaces[s + 1].dim)
            ker_coeff = step_matrix.kernel_basis()
            sub_vectors[s] = [xor_columns(basis, c) for c in ker_coeff]
            bracket_sub[s] = len(ker_coeff)
            bracket_img[s] = step_matrix.rank()
            img_vectors[s + 1] = step
        else:
            sub_vectors[s] = list(basis)
            bracket_sub[s] = len(basis)
            bracket_img[s] = 0

    inter: dict[int, int] = {}
    quot: dict[int, int] = {}
    for s in window:
        ambient_dim = spaces[s].dim
        incoming = img_vectors.get(s, [])
        inter[s] = len(span_intersection(sub_vectors[s], incoming, ambient_dim))
        quot[s] = len(kernels[s]) - span_sum_dim(incoming, sub_vectors[s])

    return SideData(
        window,
        image,
        {s: len(kernels[s]) for s in window},
        bracket_sub,
        bracket_img,
        inter,
        quot,
    )


def profile(complex_: BifilteredComplex, *, _planes: PlaneStore | None = None) -> FiltrationProfile:
    """All double-filtration invariants of one complex.

    ``_planes`` is the plane store of a ``SurgeryTriple`` already built on
    this complex, which has validated it and checked its flip map; only
    ``check_all_lemmas`` passes one.
    """
    if _planes is None:
        require_valid(complex_)
        _planes = PlaneStore(flip_map(complex_))
    ambient_h = homology(_planes.flip.target)

    lo, hi = complex_.grading_range()
    row = _build_side(range(lo - 1, hi + 2), _planes.first, _planes.include, ambient_h)
    col = _build_side(range(-hi - 1, -lo + 2), _planes.second, _planes.flip_columns, ambient_h)
    hf_dim = ambient_h.dim

    # One sweep over the diagonals t = p + q cuts each R_p ∩ C_q once:
    # h[p, q] is its dimension and u[t] the dimension of the diagonal's sum.
    r_lo, r_hi = row.window.start, row.window.stop - 1
    c_lo, c_hi = col.window.start, col.window.stop - 1
    h: dict[tuple[int, int], int] = {}
    u: dict[int, int] = {}
    for t in range(r_lo + c_lo, r_hi + c_hi + 1):
        diagonal: list[int] = []
        for p in range(max(r_lo, t - c_hi), min(r_hi, t - c_lo) + 1):
            meet = span_intersection(row.image[p], col.image[t - p], hf_dim)
            h[p, t - p] = len(meet)
            diagonal += meet
        u[t] = span_dim(diagonal)

    # A(p, q) = H(p, q) / (H(p-1, q) + H(p, q-1)) with H(p, q) = R_p ∩ C_q.
    # Both filtrations are nested (R_{p-1} ⊆ R_p, C_{q-1} ⊆ C_q), so the two
    # subspaces below meet in H(p-1, q) ∩ H(p, q-1) = H(p-1, q-1), and
    # inclusion-exclusion of dimensions is exact; h is 0 below either window.
    a_dims: dict[tuple[int, int], int] = {}
    for p in row.window:
        for q in col.window:
            d = h[p, q] - h.get((p - 1, q), 0) - h.get((p, q - 1), 0) + h.get((p - 1, q - 1), 0)
            if d:
                a_dims[(p, q)] = d
    if sum(a_dims.values()) != hf_dim:
        raise StatsInconsistent("graded pieces must fill the ambient rank")

    e_dims: dict[int, int] = {}
    for (p, q), d in a_dims.items():
        e_dims[p + q] = e_dims.get(p + q, 0) + d
    # cross-check against the diagonal-sum definition of the E pieces, read
    # from the spans of the sweep rather than from A
    if e_dims:
        for t in range(min(e_dims), max(e_dims) + 1):
            if u.get(t, 0) - u.get(t - 1, 0) != e_dims.get(t, 0):
                raise StatsInconsistent(f"E pieces disagree with A pieces at level {t}")

    return FiltrationProfile(complex_.name, hf_dim, e_dims, a_dims, row, col)


# -- lemma suite --------------------------------------------------------------


@dataclass(frozen=True)
class LemmaEntry:
    label: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class LemmaReport:
    name: str
    entries: tuple[LemmaEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def mismatches(self) -> list[LemmaEntry]:
        return [e for e in self.entries if not e.ok]


def lemma31_check(totals: SurgeryTotals, prof: FiltrationProfile) -> LemmaReport:
    """Surgery group dimensions against the four-part filtration decomposition."""
    entries = []
    for n, dims in enumerate((totals.h0_dims, totals.h1_dims)):
        for s, dim in zip(totals.window, dims):
            rhs = (
                prof.row.kernel_dim.get(s, 0)
                + prof.col.kernel_dim.get(n - s - 1, 0)
                + prof.a_sum(lambda p, q: p <= s < n - q)
                + prof.a_sum(lambda p, q: p > s >= n - q)
            )
            entries.append(LemmaEntry(f"H_{n}({s})", dim, rhs))
    return LemmaReport("surgery-group decomposition", tuple(entries))


def lemma32_check(totals: SurgeryTotals, prof: FiltrationProfile) -> LemmaReport:
    """Kernel and image of the per-level inclusion maps, structurally."""
    entries = []
    row = col = 0
    for s, d0, d1 in zip(totals.window, totals.h0_dims, totals.h1_dims):
        # f_inf(s): H0(s) -> H1(s) is the diagonal block of the total at (s, s)
        f = totals.f_inf.submatrix(range(row, row + d1), range(col, col + d0))
        row, col = row + d1, col + d0
        ker_rhs = prof.col.bracket_sub.get(-s - 1, 0) + prof.a_sum(
            lambda p, q: p > s and q == -s
        )
        entries.append(LemmaEntry(f"ker f_inf({s})", f.kernel_dim(), ker_rhs))
        im_rhs = (
            prof.row.kernel_dim.get(s, 0)
            + prof.col.bracket_img.get(-s - 1, 0)
            + prof.a_sum(lambda p, q: p <= s < -q)
            + prof.a_sum(lambda p, q: p > s > -q)
        )
        entries.append(LemmaEntry(f"im f_inf({s})", f.rank(), im_rhs))
    return LemmaReport("inclusion-map kernel/image", tuple(entries))


def _e_term(prof: FiltrationProfile, which: str) -> int:
    m = E_TERM_MULTIPLICITY[which]
    return sum(m(s) * d for s, d in prof.e.items())


def _brackets_img_total(prof: FiltrationProfile) -> int:
    return sum(prof.row.bracket_img.values()) + sum(prof.col.bracket_img.values())


def lemma33_check(package: SurgeryPackage, prof: FiltrationProfile) -> LemmaReport:
    """The four B-block kernel/cokernel formulas at dimension level."""
    b0, b1 = package.blocks0.B, package.blocks1.B
    entries = [
        LemmaEntry("ker B0 = e_1", b0.kernel_dim(), prof.e.get(1, 0)),
        LemmaEntry("coker B1 = e_0", b1.cokernel_dim(), prof.e.get(0, 0)),
        LemmaEntry(
            "ker B1",
            b1.kernel_dim(),
            _brackets_img_total(prof) + _e_term(prof, "ker_b1"),
        ),
        LemmaEntry(
            "coker B0",
            b0.cokernel_dim(),
            _brackets_img_total(prof) + _e_term(prof, "coker_b0"),
        ),
    ]
    return LemmaReport("B-block kernels/cokernels", tuple(entries))


def lemma37_check(package: SurgeryPackage, prof: FiltrationProfile) -> LemmaReport:
    """Kernel and cokernel of B1 B0 against the column-side bracket spaces."""
    prod = package.blocks1.B @ package.blocks0.B
    entries = [
        LemmaEntry(
            "ker B1B0",
            prod.kernel_dim(),
            sum(prof.col.inter.values()) + _e_term(prof, "ker_b1b0"),
        ),
        LemmaEntry(
            "coker B1B0",
            prod.cokernel_dim(),
            sum(prof.col.quot.values()) + _e_term(prof, "coker_b1b0"),
        ),
    ]
    return LemmaReport("double-product kernels/cokernels", tuple(entries))


def check_all_lemmas(complex_: BifilteredComplex) -> dict[str, LemmaReport]:
    """Run the full lemma suite on one complex (shared intermediate data).

    A knot the ``duality`` memo already holds is read from its totals; any
    other is built once, as a triple whose plane store ``profile`` shares.
    """
    totals = known_totals(complex_)
    if totals is None:
        triple = total_package(complex_)
        prof = profile(complex_, _planes=triple.planes)
        package = geometric_package(complex_, triple)
        totals = triple.totals
    else:
        prof = profile(complex_)
        package = geometric_package(complex_)
    return {
        "lemma31": lemma31_check(totals, prof),
        "lemma32": lemma32_check(totals, prof),
        "lemma33": lemma33_check(package, prof),
        "lemma37": lemma37_check(package, prof),
    }
