"""Reference implementations and model sets shared by the oracle tests.

Each reference is an earlier, plainer route to the same answer: homology
from two solvers, level maps, duality maps and filtration sides through
label matrices and matrix products, graded pieces from spans of the
intersections, and kernel witnesses from every pair of basis tuples.  The
library must match them bit for bit.

The module also keeps the API only the tests use: single surgery groups and
level maps, and the calibration of the graded-piece multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Hashable

from splicerank.corpus import corpus, corpus_names
from splicerank.duality import SurgeryPackage, geometric_package, stats
from splicerank.errors import ShapeMismatch, WitnessNotInKernel
from splicerank.filtration import E_TERM_MULTIPLICITY, FiltrationProfile, profile
from splicerank.gf2 import (
    BlockGrid,
    Gf2Matrix,
    SpanSolver,
    echelon,
    span_dim,
    span_intersection,
    span_sum_dim,
    xor_columns,
)
from splicerank.homology import ChainComplexF2, HomologySpace, homology, induced_matrix
from splicerank.model import (
    BifilteredComplex,
    FlipMap,
    Generator,
    flip_map,
    mirror,
    random_complex,
    staircase,
)
from splicerank.splice import (
    WitnessData,
    WitnessReport,
    _split,
    _vec_kron,
    build_D,
    witness_data,
)
from splicerank.surgery import MappingCone, PlaneStore, SurgeryTriple


def span_basis(vectors) -> list[int]:
    """Canonical basis of the span: the reduced echelon rows, by pivot."""
    pivots = echelon(vectors)
    return [pivots[p] for p in sorted(pivots)]


def mul_vec(m: Gf2Matrix, v: int) -> int:
    """m times the column vector v (a bitmask of length m.cols), row by row."""
    if v >> m.cols:
        raise ShapeMismatch(f"vector has bits beyond {m.cols}")
    out = 0
    for r, b in enumerate(m.row_bits):
        out |= ((b & v).bit_count() & 1) << r
    return out


def oracle_models() -> list[BifilteredComplex]:
    out = [corpus(name) for name in corpus_names()]
    out += [mirror(corpus(name)) for name in corpus_names()]
    out += [random_complex(seed, 8) for seed in range(12)]
    for steps in ([], [1, 1], [1, 2, 2, 1], [2, 1, 1, 2], [3, 1, 1, 3], [1, 1, 2, 2, 1, 1]):
        out.append(staircase(steps, f"staircase{steps}"))
    # gradings not symmetric about 0, so the two filtration windows differ
    out.append(BifilteredComplex("shifted", (Generator("e", 1),), (), None, Gf2Matrix.identity(1)))
    return out


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


def reference_relabel_vector(
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


def reference_level_maps(triple: SurgeryTriple) -> dict[str, dict[int, Gf2Matrix]]:
    """The six map families of a triple, from its cones and spots alone."""
    H0 = {s: ReferenceHomology(triple.cones0[s].cone) for s in triple.window}
    H1 = {s: ReferenceHomology(triple.cones1[s].cone) for s in triple.window}
    Hinf = {s: ReferenceHomology(triple.spots[s]) for s in triple.window}
    maps: dict[str, dict[int, Gf2Matrix]] = {
        name: {} for name in ("f_inf", "f0", "f1", "fbar_inf", "fbar0", "fbar1")
    }

    def same(lbl):
        return lbl

    def zig_zag(s, low, lift):
        cone1, spot = triple.cones1[s].cone, triple.spots[s]
        cols = []
        for rep in Hinf[s].reps:
            lifted = reference_relabel_vector(rep, spot, cone1, lift)
            back = reference_relabel_vector(
                mul_vec(cone1.boundary, lifted), cone1, triple.cones0[low].cone, same
            )
            cols.append(H0[low].coords(back))
        return Gf2Matrix.from_columns(cols, H0[low].dim)

    for s in triple.window:
        cone0, cone1, spot = triple.cones0[s].cone, triple.cones1[s].cone, triple.spots[s]
        inc = reference_label_matrix(cone0, cone1, same)
        maps["f_inf"][s] = reference_induced(inc, H0[s], H1[s])
        proj = reference_label_matrix(
            cone1, spot, lambda lbl: lbl[1] if lbl[0] == "v" and lbl[1][2] == -s else None
        )
        maps["f0"][s] = reference_induced(proj, H1[s], Hinf[s])
        maps["f1"][s] = zig_zag(s, s, lambda lbl: ("v", lbl))
        proj_bar = reference_label_matrix(
            cone1,
            spot,
            lambda lbl: (lbl[1][0], 0, -s) if lbl[0] == "u" and lbl[1][1] == s else None,
        )
        maps["fbar0"][s] = reference_induced(proj_bar, H1[s], Hinf[s])
        if s - 1 in triple.window:
            inc_bar = reference_label_matrix(triple.cones0[s - 1].cone, cone1, same)
            maps["fbar_inf"][s] = reference_induced(inc_bar, H0[s - 1], H1[s])
            maps["fbar1"][s] = zig_zag(s, s - 1, lambda lbl: ("u", (lbl[0], s, 0)))
    return maps


def reference_geometric_tau(complex_: BifilteredComplex, triple: SurgeryTriple):
    """tau0, tau1, tau_inf of ``duality._geometric_tau``, each block the
    induced map of a label matrix (``homology.induced_matrix``)."""
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
                blocks[(index[t], index[s])] = induced_matrix(chain, spaces[s], spaces[t])
        return BlockGrid(dims, dims, blocks).assemble()

    cones0 = {s: c.cone for s, c in triple.cones0.items()}
    cones1 = {s: c.cone for s, c in triple.cones1.items()}
    tau0 = total(cones0, triple.H0, lambda s: -s - 1, lambda s: swap)
    tau1 = total(cones1, triple.H1, lambda s: -s, lambda s: swap)
    tau_inf = total(
        triple.spots,
        triple.Hinf,
        lambda s: -s,
        lambda s: lambda lbl: (sigma[lbl[0]], 0, lbl[2] + 2 * s),
    )
    return tau0, tau1, tau_inf


def reference_package_parts(p: SurgeryPackage) -> dict[str, object]:
    """A package's blocks, X products and normal-form f maps, written out per
    index: H0 = (a_inf, a1), H1 = (a0, a_inf), Hinf = (a1, a0)."""

    def split(tau: Gf2Matrix, top: int, bottom: int) -> tuple[Gf2Matrix, ...]:
        a = tau.submatrix(range(0, top), range(0, top))
        b = tau.submatrix(range(0, top), range(top, top + bottom))
        d = tau.submatrix(range(top, top + bottom), range(top, top + bottom))
        return a, b, d

    def canonical_f(top: int, ident: int, right: int) -> Gf2Matrix:
        """(0 0; I 0) with row split (top, ident) and column split (ident, right)."""
        blocks = {(1, 0): Gf2Matrix.identity(ident)} if ident else {}
        return BlockGrid((top, ident), (ident, right), blocks).assemble()

    A0, B0, D0 = split(p.tau0, p.a_inf, p.a1)
    A1, B1, D1 = split(p.tau1, p.a0, p.a_inf)
    Ai, Bi, Di = split(p.tau_inf, p.a1, p.a0)
    return {
        "blocks0": (A0, B0, D0),
        "blocks1": (A1, B1, D1),
        "blocks_inf": (Ai, Bi, Di),
        "X0": B1 @ B0 @ Bi,
        "X1": Bi @ B1 @ B0,
        "Xinf": B0 @ Bi @ B1,
        "f_inf": canonical_f(p.a0, p.a_inf, p.a1),
        "f0": canonical_f(p.a1, p.a0, p.a_inf),
        "f1": canonical_f(p.a_inf, p.a1, p.a0),
    }


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


def _family_tuples(data: WitnessData, p: SurgeryPackage) -> dict[str, list[PairTuple]]:
    """The basis tuples of one knot, by family, in pair-numbering order."""
    return {
        "w0": [PairTuple(x0=x, y0=y) for x, y in (_split(w, p.a0) for w in data.w0)],
        "w1": [PairTuple(x1=x, y1=y) for x, y in (_split(w, p.a1) for w in data.w1)],
        "w_inf": [PairTuple(x_inf=x, y_inf=y) for x, y in (_split(w, p.a_inf) for w in data.w_inf)],
        "z0": [PairTuple(z0=z) for z in data.z0],
        "z1": [PairTuple(z1=z) for z in data.z1],
        "z_inf": [PairTuple(z_inf=z) for z in data.z_inf],
    }


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


def basis_tuples(data: WitnessData, p: SurgeryPackage) -> list[PairTuple]:
    """The basis tuples of one knot, families concatenated: the order that
    numbers the witness pairs."""
    return [t for family in _family_tuples(data, p).values() for t in family]


def reference_kernel_witnesses(p1: SurgeryPackage, p2: SurgeryPackage):
    """``splice.kernel_witnesses`` by assembling the witness of every pair of
    basis tuples; also the nonzero witnesses with their 1-based pair numbers."""
    st1, st2 = stats(p1), stats(p2)
    d = build_D(p1, p2).matrix
    d_columns = d.transpose().row_bits
    tuples1 = basis_tuples(witness_data(p1), p1)
    tuples2 = basis_tuples(witness_data(p2), p2)
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


def build_cone(complex_: BifilteredComplex, n: int, s: int, flip: FlipMap | None = None) -> MappingCone:
    """Cone of i_n^s (``PlaneStore.cone`` on a store of its own)."""
    return PlaneStore(flip_map(complex_) if flip is None else flip).cone(n, s)


def spot_plane(flip: FlipMap, s: int) -> ChainComplexF2:
    """C{i=0, j=-s} (``PlaneStore.spot`` on a store of its own)."""
    return PlaneStore(flip).spot(s)


def surgery_homology(complex_: BifilteredComplex, n, s: int) -> HomologySpace:
    """H_n(K, s) for n in {0, 1, "inf"}."""
    if n == INF:
        return homology(spot_plane(flip_map(complex_), s))
    return homology(build_cone(complex_, n, s).cone)


def triangle_maps(complex_: BifilteredComplex, s: int) -> dict[str, Gf2Matrix]:
    """The six maps at level s (barred maps shift the level by one)."""
    triple = SurgeryTriple(complex_)

    def dim(spaces: dict[int, HomologySpace], level: int) -> int:
        return spaces[level].dim if level in triple.window else 0

    def get(fam: dict[int, Gf2Matrix], rows: int, cols: int) -> Gf2Matrix:
        return fam.get(s, Gf2Matrix.zeros(rows, cols))

    return {
        "f_inf": get(triple.f_inf, dim(triple.H1, s), dim(triple.H0, s)),
        "f0": get(triple.f0, dim(triple.Hinf, s), dim(triple.H1, s)),
        "f1": get(triple.f1, dim(triple.H0, s), dim(triple.Hinf, s)),
        "fbar_inf": get(triple.fbar_inf, dim(triple.H1, s), dim(triple.H0, s - 1)),
        "fbar0": get(triple.fbar0, dim(triple.Hinf, s), dim(triple.H1, s)),
        "fbar1": get(triple.fbar1, dim(triple.H0, s - 1), dim(triple.Hinf, s)),
    }


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
        b0, b1 = package.blocks0.B, package.blocks1.B
        prod = b1 @ b0
        brackets = sum(prof.row.bracket_img.values()) + sum(prof.col.bracket_img.values())
        lhs = {
            "ker_b1": b1.kernel_dim() - brackets,
            "coker_b0": b0.cokernel_dim() - brackets,
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
