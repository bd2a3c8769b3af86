"""Exact linear algebra over GF(2) with int-bitset rows.

A matrix stores one Python int per row; bit ``c`` of row ``r`` is the entry
at ``(r, c)``.  Column vectors are plain ints with bit ``i`` holding
coordinate ``i``.  Zero-dimensional matrices are legal values throughout.

Who validates what: rows from outside this module enter through the public
constructors (``Gf2Matrix(...)``, ``from_entries``, ``from_dense``,
``from_columns``), which reject a shape that does not fit and any bit beyond
it.  A result of this module's own operations (``@``, ``+``, ``transpose``,
``kron``, ``inverse``, ``submatrix``, ``from_columns`` after its range check
and ``BlockGrid.assemble``) is in range by construction, so it is built by
``Gf2Matrix._trusted``, with no scan and no copy; nothing outside this
module calls that.

Elimination has one core, ``echelon``: a dict from pivot column (the lowest
set bit of a row) to its row, reduced so that no row has a bit at another
row's pivot.  That is the reduced row echelon form, which is unique, so
``kernel_basis``, ``cokernel_basis`` and ``inverse`` return the same vectors
however the rows are ordered.  ``span_intersection`` needs only its forward
pass.  Dimensions come from ``rank`` (``span_dim``), a forward pass keyed on
the highest bit, which is cheaper to find: this is why ``kernel_dim`` and
``cokernel_dim`` never build a basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import PivotZero, ShapeMismatch


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def xor_columns(columns: Sequence[int], mask: int) -> int:
    """The XOR of columns[k] over the set bits k of mask: a matrix given by
    its columns, applied to the vector mask."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= columns[low.bit_length() - 1]
        mask ^= low
    return out


class Gf2Matrix:
    """Immutable dense GF(2) matrix."""

    __slots__ = ("rows", "cols", "row_bits")

    def __init__(self, rows: int, cols: int, row_bits: Iterable[int] = ()):
        bits = tuple(row_bits) if row_bits else (0,) * rows
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        if len(bits) != rows:
            raise ShapeMismatch(f"{len(bits)} rows given for a {rows}x{cols} matrix")
        mask = (1 << cols) - 1
        for r, b in enumerate(bits):
            if b & ~mask:
                raise ShapeMismatch(f"row {r} has bits beyond column {cols}")
        self.rows = rows
        self.cols = cols
        self.row_bits = bits

    @classmethod
    def _trusted(cls, rows: int, cols: int, row_bits: tuple[int, ...]) -> Gf2Matrix:
        """A matrix on rows already known to fit rows x cols: no scan, no copy.

        Only this module's own operations call it, on results they build in
        range; input from outside goes through the public constructors.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.row_bits = row_bits
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Gf2Matrix:
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]) -> Gf2Matrix:
        bits = [0] * rows
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
            bits[r] ^= 1 << c
        return cls(rows, cols, bits)

    @classmethod
    def from_dense(cls, dense: list[list[int]], cols: int | None = None) -> Gf2Matrix:
        rows = len(dense)
        if cols is None:
            cols = len(dense[0]) if dense else 0
        bits = []
        for row in dense:
            if len(row) != cols:
                raise ShapeMismatch("ragged dense matrix")
            m = 0
            for c, v in enumerate(row):
                if v & 1:
                    m |= 1 << c
            bits.append(m)
        return cls(rows, cols, bits)

    @classmethod
    def from_columns(cls, columns: list[int], rows: int) -> Gf2Matrix:
        """Matrix whose c-th column is the bitmask columns[c]."""
        bits = [0] * rows
        for c, col in enumerate(columns):
            high = col >> rows
            if high:
                r = rows + (high & -high).bit_length() - 1
                raise ShapeMismatch(f"column {c} has bit {r} beyond row {rows}")
            cbit = 1 << c
            while col:
                low = col & -col
                bits[low.bit_length() - 1] |= cbit
                col ^= low
        return cls._trusted(rows, len(columns), tuple(bits))

    # -- access -----------------------------------------------------------

    def entry(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ShapeMismatch(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        return (self.row_bits[r] >> c) & 1

    def column(self, c: int) -> int:
        if not 0 <= c < self.cols:
            raise ShapeMismatch(f"column {c} outside {self.rows}x{self.cols}")
        out = 0
        for r, b in enumerate(self.row_bits):
            out |= ((b >> c) & 1) << r
        return out

    def dense(self) -> list[list[int]]:
        return [[(b >> c) & 1 for c in range(self.cols)] for b in self.row_bits]

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.row_bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_bits == other.row_bits
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_bits))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Gf2Matrix) -> Gf2Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"add {self.rows}x{self.cols} to {other.rows}x{other.cols}")
        return Gf2Matrix._trusted(
            self.rows, self.cols, tuple([a ^ b for a, b in zip(self.row_bits, other.row_bits)])
        )

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.cols != other.rows:
            raise ShapeMismatch(f"mul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = other.row_bits
        out = []
        for b in self.row_bits:
            acc = 0
            while b:
                low = b & -b
                acc ^= rows[low.bit_length() - 1]
                b ^= low
            out.append(acc)
        return Gf2Matrix._trusted(self.rows, other.cols, tuple(out))

    def transpose(self) -> Gf2Matrix:
        bits = [0] * self.cols
        for r, b in enumerate(self.row_bits):
            rbit = 1 << r
            while b:
                low = b & -b
                bits[low.bit_length() - 1] |= rbit
                b ^= low
        return Gf2Matrix._trusted(self.cols, self.rows, tuple(bits))

    def kron(self, other: Gf2Matrix) -> Gf2Matrix:
        """Kronecker product; rank is multiplicative."""
        width = other.cols
        bits = []
        for a in self.row_bits:
            shifts = []
            while a:
                low = a & -a
                shifts.append((low.bit_length() - 1) * width)
                a ^= low
            for b in other.row_bits:
                acc = 0
                for shift in shifts:
                    acc |= b << shift
                bits.append(acc)
        return Gf2Matrix._trusted(self.rows * other.rows, self.cols * other.cols, tuple(bits))

    # -- elimination --------------------------------------------------------

    def rank(self) -> int:
        return span_dim(self.row_bits)

    def kernel_basis(self) -> list[int]:
        """Basis of {v : Mv = 0}, each vector a cols-bit mask.

        One vector per free column c, in increasing c: bit c plus the pivot
        columns whose reduced row has a 1 in column c.
        """
        pivots = echelon(self.row_bits)
        free = ((1 << self.cols) - 1) ^ _mask(pivots)
        basis = {c: 1 << c for c in bits_of(free)}
        for p, row in pivots.items():
            for c in bits_of(row & free):
                basis[c] |= 1 << p
        return list(basis.values())

    def kernel_dim(self) -> int:
        return self.cols - self.rank()

    def cokernel_dim(self) -> int:
        return self.rows - self.rank()

    def cokernel_basis(self) -> list[int]:
        """Basis of the left kernel {w : wM = 0}, each a rows-bit mask."""
        return self.transpose().kernel_basis()

    def cancel(self, r: int, c: int) -> Gf2Matrix:
        """Gaussian cancellation at a unit pivot, deleting row r and column c.

        The result is equivalent to the input: both kernel and cokernel
        dimensions are preserved.
        """
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ShapeMismatch(f"pivot ({r},{c}) outside {self.rows}x{self.cols}")
        if not (self.row_bits[r] >> c) & 1:
            raise PivotZero(f"entry ({r},{c}) is zero")
        pivot_row = self.row_bits[r]
        low = (1 << c) - 1
        bits = []
        for i, b in enumerate(self.row_bits):
            if i == r:
                continue
            if (b >> c) & 1:
                b ^= pivot_row
            bits.append((b & low) | ((b >> (c + 1)) << c))
        return Gf2Matrix(self.rows - 1, self.cols - 1, bits)

    def inverse(self) -> Gf2Matrix:
        """Inverse of a square invertible matrix: reduce (M | I) to (I | M^-1)."""
        if self.rows != self.cols:
            raise ShapeMismatch(f"inverse of non-square {self.rows}x{self.cols}")
        n = self.rows
        pivots = echelon(b | (1 << (n + r)) for r, b in enumerate(self.row_bits))
        if any(p >= n for p in pivots):
            raise ShapeMismatch("matrix is singular")
        return Gf2Matrix._trusted(n, n, tuple([pivots[c] >> n for c in range(n)]))

    def submatrix(self, row_range: range, col_range: range) -> Gf2Matrix:
        """The rows in row_range and the columns in col_range, both step 1 and
        inside the matrix (0 <= start <= stop <= rows or cols)."""
        # a stepped column range would keep bits between its columns
        if row_range.step != 1 or col_range.step != 1:
            raise ShapeMismatch(f"submatrix ranges must have step 1, got {row_range}, {col_range}")
        r0, r1, c0, c1 = row_range.start, row_range.stop, col_range.start, col_range.stop
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ShapeMismatch(f"submatrix {row_range}, {col_range} leaves {self.rows}x{self.cols}")
        mask = (1 << (c1 - c0)) - 1
        bits = tuple([(b >> c0) & mask for b in self.row_bits[r0:r1]])
        return Gf2Matrix._trusted(r1 - r0, c1 - c0, bits)


# -- spans of bitmask vectors ---------------------------------------------


def echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon form of the vectors, keyed on each row's lowest bit.

    A forward pass keys every new row on its lowest bit that is not already
    a pivot; back-substitution, from the highest pivot down, then clears
    every other pivot bit from each row.
    """
    pivots = _forward(vectors)
    mask = _mask(pivots)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in bits_of(row & mask ^ (1 << p)):
            row ^= pivots[q]
        pivots[p] = row
    return pivots


def _forward(vectors: Iterable[int]) -> dict[int, int]:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = (v & -v).bit_length() - 1
            row = pivots.get(p)
            if row is None:
                pivots[p] = v
                break
            v ^= row
    return pivots


def _mask(pivots: dict[int, int]) -> int:
    out = 0
    for p in pivots:
        out |= 1 << p
    return out


def span_dim(vectors: Iterable[int]) -> int:
    """Dimension of the span: a forward pass keyed on the highest bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            row = basis.get(p)
            if row is None:
                basis[p] = v
                break
            v ^= row
    return len(basis)


def span_sum_dim(*vector_sets: Iterable[int]) -> int:
    all_vecs: list[int] = []
    for vs in vector_sets:
        all_vecs.extend(vs)
    return span_dim(all_vecs)


def span_intersection(u_vectors: list[int], v_vectors: list[int], ambient: int) -> list[int]:
    """Basis of span(U) ∩ span(V) inside F_2^ambient (Zassenhaus).

    Rows (u | u) and (v | 0) with the sum part in the low bits: the echelon
    rows whose low part vanishes carry a basis of the intersection above it.
    """
    rows = [u | (u << ambient) for u in u_vectors] + list(v_vectors)
    pivots = _forward(rows)
    return [pivots[p] >> ambient for p in sorted(pivots) if p >= ambient]


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


# -- block assembly ---------------------------------------------------------


@dataclass(frozen=True)
class BlockGrid:
    """Sparse grid of blocks; absent entries are zero blocks."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]
    blocks: dict[tuple[int, int], Gf2Matrix] = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), b in self.blocks.items():
            if not (0 <= i < len(self.row_dims) and 0 <= j < len(self.col_dims)):
                raise ShapeMismatch(f"block ({i},{j}) outside grid")
            if (b.rows, b.cols) != (self.row_dims[i], self.col_dims[j]):
                raise ShapeMismatch(
                    f"block ({i},{j}) is {b.rows}x{b.cols}, slot needs "
                    f"{self.row_dims[i]}x{self.col_dims[j]}"
                )

    def assemble(self) -> Gf2Matrix:
        row_off = _offsets(self.row_dims)
        col_off = _offsets(self.col_dims)
        total_rows = row_off[-1]
        total_cols = col_off[-1]
        bits = [0] * total_rows
        for (i, j), b in self.blocks.items():
            r0, c0 = row_off[i], col_off[j]
            for r, rb in enumerate(b.row_bits):
                bits[r0 + r] |= rb << c0
        return Gf2Matrix._trusted(total_rows, total_cols, tuple(bits))


def lower_triangular(top: Gf2Matrix, lower_left: Gf2Matrix, lower_right: Gf2Matrix) -> Gf2Matrix:
    """The block matrix (top 0; lower_left lower_right)."""
    grid = BlockGrid(
        (top.rows, lower_right.rows),
        (top.cols, lower_right.cols),
        {(0, 0): top, (1, 0): lower_left, (1, 1): lower_right},
    )
    return grid.assemble()


def _offsets(dims: tuple[int, ...]) -> list[int]:
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out

