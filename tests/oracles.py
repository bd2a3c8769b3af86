"""Reference implementations and model sets shared by the oracle tests.

Each reference is an earlier, plainer route to the same answer: homology
from two solvers, level maps, duality maps and filtration sides through
label matrices and matrix products.  The library must match them bit for
bit.
"""

from __future__ import annotations

from typing import Callable, Hashable

from splicerank.corpus import corpus, corpus_names
from splicerank.gf2 import (
    BlockGrid,
    Gf2Matrix,
    SpanSolver,
    echelon,
    span_intersection,
    span_sum_dim,
)
from splicerank.homology import ChainComplexF2, induced_matrix
from splicerank.model import BifilteredComplex, Generator, mirror, random_complex, staircase
from splicerank.surgery import SurgeryTriple


def span_basis(vectors) -> list[int]:
    """Canonical basis of the span: the reduced echelon rows, by pivot."""
    pivots = echelon(vectors)
    return [pivots[p] for p in sorted(pivots)]


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
    cols = [target.coords(chain_map.mul_vec(rep)) for rep in source.reps]
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
                cone1.boundary.mul_vec(lifted), cone1, triple.cones0[low].cone, same
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
        image[s] = [iota.mul_vec(1 << i) for i in range(h.dim)]
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
            cols = [solver.solve(incs[s + 1].mul_vec(k)) for k in basis]
            step_matrix = Gf2Matrix.from_columns(cols, len(kernels[s + 1]))
            ker_coeff = step_matrix.kernel_basis()
            sub_vectors[s] = [combine(basis, c) for c in ker_coeff]
            bracket_sub[s] = len(ker_coeff)
            bracket_img[s] = step_matrix.rank()
            img_vectors[s + 1] = [incs[s + 1].mul_vec(k) for k in basis]
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
