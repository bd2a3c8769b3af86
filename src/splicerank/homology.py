"""Finite chain complexes over GF(2) and homology with cycle representatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import NotAComplex
from .gf2 import Gf2Matrix, SpanSolver, bits_of, span_basis


@dataclass(frozen=True)
class ChainComplexF2:
    """Ungraded chain complex: square boundary with boundary @ boundary = 0.

    Column c of ``boundary`` is the boundary of basis element c.
    """

    basis: tuple[Hashable, ...]
    boundary: Gf2Matrix

    def __post_init__(self):
        n = len(self.basis)
        if (self.boundary.rows, self.boundary.cols) != (n, n):
            raise NotAComplex(
                f"boundary is {self.boundary.rows}x{self.boundary.cols} on {n} generators"
            )
        if not (self.boundary @ self.boundary).is_zero():
            raise NotAComplex("boundary does not square to zero")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, label: Hashable) -> int:
        return self.basis.index(label)

    def restrict(self, keep: Callable[[Hashable], bool]) -> ChainComplexF2:
        """The span of the basis labels that keep accepts, in basis order.

        The boundary is read off this one on the kept labels, so keep must cut
        an interval of a filtration (a sub-plane or a one-spot plane) for the
        result to be a complex; the constructor checks that it is.
        """
        kept = [k for k, label in enumerate(self.basis) if keep(label)]
        index = {old: new for new, old in enumerate(kept)}
        rows = self.boundary.row_bits
        bits = [sum(1 << index[c] for c in bits_of(rows[r]) if c in index) for r in kept]
        basis = tuple(self.basis[k] for k in kept)
        return ChainComplexF2(basis, Gf2Matrix(len(kept), len(kept), bits))


class HomologySpace:
    """Homology of a ChainComplexF2 with a distinguished cycle-representative basis.

    ``coords`` rewrites any cycle as a combination of the representatives
    modulo boundaries, as a bitmask over the representative indices.
    """

    def __init__(self, complex_: ChainComplexF2):
        self.complex = complex_
        boundary = complex_.boundary
        image = span_basis(boundary.transpose().row_bits)
        cycles = boundary.kernel_basis()
        probe = SpanSolver(image)
        reps = [z for z in cycles if probe.add(z)]
        # solver indices: boundaries first, then exactly the representatives
        self._n_boundaries = len(image)
        self._solver = SpanSolver(image + reps)
        self.reps: list[int] = reps

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, cycle: int) -> int:
        """Class of a cycle in the representative basis (a dim-bit mask)."""
        if self.complex.boundary.mul_vec(cycle):
            raise NotAComplex("coords() called on a non-cycle")
        coeffs = self._solver.solve(cycle)
        if coeffs is None:
            raise NotAComplex("cycle escaped its own homology; internal error")
        return coeffs >> self._n_boundaries

    def class_vectors(self, chains: Sequence[int]) -> list[int]:
        return [self.coords(z) for z in chains]


def homology(complex_: ChainComplexF2) -> HomologySpace:
    return HomologySpace(complex_)


def induced_matrix(chain_map: Gf2Matrix, source: HomologySpace, target: HomologySpace) -> Gf2Matrix:
    """Matrix of the map induced on homology by a chain map.

    The chain map is not re-verified here; callers check commutation where
    the map is not one by construction.
    """
    cols = []
    for rep in source.reps:
        cols.append(target.coords(chain_map.mul_vec(rep)))
    return Gf2Matrix.from_columns(cols, target.dim)


def chain_map_commutes(chain_map: Gf2Matrix, source: ChainComplexF2, target: ChainComplexF2) -> bool:
    return (chain_map @ source.boundary) == (target.boundary @ chain_map)
