"""Finite chain complexes over GF(2) and homology with cycle representatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import NotAComplex, ShapeMismatch, require_type
from .gf2 import Gf2Matrix, bits_of, low_pivots, reduce, xor_columns


@dataclass(frozen=True)
class ChainComplexF2:
    """Ungraded chain complex: square boundary with boundary @ boundary = 0.

    Column c of ``boundary`` is the boundary of basis element c.  A basis
    that is not a tuple or a boundary that is not a ``Gf2Matrix`` raises
    ``ShapeMismatch``, one that is not square on the basis or does not
    square to zero ``NotAComplex``.
    """

    basis: tuple[Hashable, ...]
    boundary: Gf2Matrix

    def __post_init__(self):
        require_type(tuple, self.basis)
        require_type(Gf2Matrix, self.boundary)
        n = len(self.basis)
        if (self.boundary.rows, self.boundary.cols) != (n, n):
            raise NotAComplex(
                f"boundary is {self.boundary.rows}x{self.boundary.cols} on {n} generators"
            )
        # one row at a time: row r of d @ d is the XOR of the rows of d at
        # the bits of row r
        rows = self.boundary.row_bits
        for b in rows:
            if xor_columns(rows, b):
                raise NotAComplex("boundary does not square to zero")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> dict[Hashable, int]:
        """Position of each basis label, in a dict built on each call and
        kept by no one: no caller can change a complex's index, and no cone
        or plane carries a dict as long as its basis.  Callers read it once
        per map."""
        return {label: k for k, label in enumerate(self.basis)}

    def homology_dim(self) -> int:
        """dim Ker - dim Im = dim - 2 rank(boundary), with no representatives."""
        return self.dim - 2 * self.boundary.rank()

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

    One ``gf2.low_pivots`` dict holds the boundary columns, and then the
    representatives: the kernel basis vectors, in kernel-basis order, that
    are not in the span of the boundaries and the representatives before
    them.  A vector of the n-dimensional complex carries tag bits above bit
    n: candidate k is the kernel vector with tag bit n + k, where k counts
    the representatives accepted so far, and the boundaries carry none.
    ``gf2.reduce`` XORs pivot rows into the candidate, tags and all, and it
    becomes representative k if any of its low n bits survive.  So the low
    n bits of every row in the dict are, modulo boundaries, the sum of the
    representatives its tag bits name, and no coefficients are kept for the
    boundaries.  ``coords`` reduces a cycle the same way: its low n bits
    vanish, and the bits above n that are left are its class, as a bitmask
    over the representative indices.

    ``boundary_columns`` keeps the boundary's columns: ``coords`` tests "is
    a cycle" on them, and callers apply the boundary to a chain with
    ``xor_columns``.  A complex that is not a ``ChainComplexF2`` raises
    ``ShapeMismatch``.
    """

    def __init__(self, complex_: ChainComplexF2):
        require_type(ChainComplexF2, complex_)
        self.complex = complex_
        boundary = complex_.boundary
        n = complex_.dim
        low = (1 << n) - 1
        self.boundary_columns: tuple[int, ...] = boundary.transpose().row_bits
        self._pivots = low_pivots(self.boundary_columns)
        self.reps: list[int] = []
        for z in boundary.kernel_basis():
            v = reduce(self._pivots, z | (1 << (n + len(self.reps))))
            if v & low:
                self._pivots[(v & -v).bit_length() - 1] = v
                self.reps.append(z)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, cycle: int) -> int:
        """Class of a cycle in the representative basis (a dim-bit mask)."""
        n = self.complex.dim
        if cycle >> n:
            raise ShapeMismatch(f"vector has bits beyond {n}")
        if xor_columns(self.boundary_columns, cycle):
            raise NotAComplex("coords() called on a non-cycle")
        v = reduce(self._pivots, cycle)
        if v & ((1 << n) - 1):
            raise NotAComplex("cycle escaped its own homology; internal error")
        return v >> n


def induced_by_columns(columns: Sequence[int], source: HomologySpace, target: HomologySpace) -> Gf2Matrix:
    """Matrix of the map induced on homology by the chain map whose column c
    is columns[c].

    The chain map is not re-verified here; callers check commutation where
    the map is not one by construction.
    """
    require_type(HomologySpace, source, target)
    cols = [target.coords(xor_columns(columns, rep)) for rep in source.reps]
    return Gf2Matrix.from_columns(cols, target.dim)
