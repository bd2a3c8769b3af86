"""Exact linear algebra over GF(2) with int-bitset rows.

A matrix stores one Python int per row; bit ``c`` of row ``r`` is the entry
at ``(r, c)``.  Column vectors are plain ints with bit ``i`` holding
coordinate ``i``; a negative int, which has infinitely many set bits, is no
vector.  Zero-dimensional matrices are legal values throughout.

Who validates what: rows from outside this module enter through the public
constructors (``Gf2Matrix(...)``, ``from_entries``, ``from_dense``,
``from_columns``), which reject a negative shape, a container or value of
the wrong kind and any bit beyond the shape; ``BlockGrid`` and
``kron_side`` reject a block or factor that does not fit its slot.  A result
of this module's own operations is in range by construction, so it is built
by ``Gf2Matrix._trusted``, with no scan and no copy; nothing outside this
module calls that.  A matrix, a ``KronFactor`` and a ``KronSide`` are
``errors.Frozen`` records: the memos downstream hand one value to every
caller, so none may change it for the next.

``kron_side`` checks every factor's shape once, when a side is made, so
``kron_blocks`` checks none however often a side is reused, and costs one
XOR per set bit of a left factor and nonzero row of its right factor: a
sparse ``D`` costs its number of nonzeros, not its rows times its terms.

Elimination has one core, the dict of ``low_pivots``: each row keyed on its
lowest set bit, no two rows on the same bit.  ``echelon`` reduces it to the
reduced row echelon form, which is unique, so ``kernel_basis`` and
``inverse`` return the same vectors however the rows are ordered.

``high_pivots`` runs the same forward pass keyed on the highest bit, for the
two questions whose answer is the set of keys.  A dimension (``rank``,
``span_dim``) is their number, and the highest bit costs one
``bit_length`` where the lowest costs a ``v & -v`` more, so ``kernel_dim``
never builds a basis.  The keys are also the highest bits of the span's
vectors, so e_i completes a span (added in increasing i) exactly when i is
not a key; a lowest-bit dict would have to be fully reduced to tell.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul

from .errors import Frozen, ShapeMismatch


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    if mask < 0:
        raise _negative(mask)
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def xor_columns(columns: Sequence[int], mask: int) -> int:
    """The XOR of columns[k] over the set bits k of mask: a matrix given by
    its columns, applied to the vector mask; a set bit past the columns
    raises ``ShapeMismatch``."""
    if mask < 0:
        raise _negative(mask)
    out = 0
    try:
        while mask:
            low = mask & -mask
            out ^= columns[low.bit_length() - 1]
            mask ^= low
    except IndexError as exc:
        raise ShapeMismatch(f"bit {low.bit_length() - 1} of the vector is past its {len(columns)} columns") from exc
    return out


def spread(u: int, n: int) -> int:
    """u with its bit a moved to bit a * n.  For v < 2**n, v * spread(u, n)
    is the Kronecker product u ⊗ v, with bit a * n + b for each set bit a
    of u and b of v: the shifted copies of v lie in disjoint n-bit slots,
    so the product carries nothing."""
    if u < 0:
        raise _negative(u)
    if n < 0:
        raise ShapeMismatch(f"slot width {n!r} is negative")
    out = 0
    while u:
        low = u & -u
        out |= 1 << ((low.bit_length() - 1) * n)
        u ^= low
    return out


def outer_sum_rows(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The nonzero rows of the sum of the outer products p qᵀ over the
    pairs (p, q), by row: row r is the XOR of the qs whose p has bit r."""
    rows: dict[int, int] = {}
    for p, q in pairs:
        for r in bits_of(p):
            rows[r] = rows.get(r, 0) ^ q
    return {r: q for r, q in rows.items() if q}


# Sets a slot of an immutable record, past the __setattr__ that refuses it.
_set = object.__setattr__


class Gf2Matrix(Frozen):
    """Immutable dense GF(2) matrix."""

    # _hash is set on the first hash (see __hash__)
    __slots__ = ("rows", "cols", "row_bits", "_hash")

    def __init__(self, rows: int, cols: int, row_bits: Iterable[int] | None = None):
        """The rows x cols matrix on row_bits, or the zero matrix without them."""
        _check_dims(rows, cols)
        if row_bits is None:
            row_bits = (0,) * rows
        _check_iterable(row_bits, "row bits")
        bits = tuple(row_bits)
        if len(bits) != rows:
            raise ShapeMismatch(f"{len(bits)} rows given for a {rows}x{cols} matrix")
        mask = (1 << cols) - 1
        for r, b in enumerate(bits):
            if not isinstance(b, int):
                raise ShapeMismatch(f"row {r} is {b!r}, not an int")
            if b & ~mask:
                raise ShapeMismatch(f"row {r} has bits beyond column {cols}")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "row_bits", bits)

    @classmethod
    def _trusted(cls, rows: int, cols: int, row_bits: tuple[int, ...]) -> Gf2Matrix:
        """A matrix on rows already known to fit rows x cols: no scan, no copy.

        Only this module's own operations call it, on results they build in
        range; input from outside goes through the public constructors.
        """
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "row_bits", row_bits)
        return m

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment
        return Gf2Matrix, (self.rows, self.cols, self.row_bits)

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        _check_dims(n)
        return cls._trusted(n, n, tuple([1 << i for i in range(n)]))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]) -> Gf2Matrix:
        _check_dims(rows, cols)
        _check_iterable(entries, "entries")
        bits = [0] * rows
        for entry in entries:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise ShapeMismatch(f"entry {entry!r} is not a (row, col) pair")
            r, c = entry
            if not (isinstance(r, int) and isinstance(c, int)):
                raise ShapeMismatch(f"entry ({r!r},{c!r}) is not at int indices")
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
            bits[r] ^= 1 << c
        return cls(rows, cols, bits)

    @classmethod
    def from_dense(cls, dense: list[list[int]], cols: int | None = None) -> Gf2Matrix:
        if not isinstance(dense, (list, tuple)):
            raise ShapeMismatch(f"dense matrix {dense!r} is not a list of rows")
        rows = len(dense)
        bits = []
        for r, row in enumerate(dense):
            if not isinstance(row, (list, tuple)):
                raise ShapeMismatch(f"row {r} is {row!r}, not a list of entries")
            if cols is None:
                cols = len(row)
            if len(row) != cols:
                raise ShapeMismatch("ragged dense matrix")
            m = 0
            for c, v in enumerate(row):
                if not isinstance(v, int):
                    raise ShapeMismatch(f"entry ({r},{c}) is {v!r}, not an int")
                if v & 1:
                    m |= 1 << c
            bits.append(m)
        return cls(rows, 0 if cols is None else cols, bits)

    @classmethod
    def from_columns(cls, columns: list[int], rows: int) -> Gf2Matrix:
        """Matrix whose c-th column is the bitmask columns[c]."""
        _check_dims(rows)
        if not isinstance(columns, (list, tuple)):
            raise ShapeMismatch(f"columns {columns!r} are not a list")
        bits = [0] * rows
        for c, col in enumerate(columns):
            if not isinstance(col, int):
                raise ShapeMismatch(f"column {c} is {col!r}, not an int")
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
        # computed once per matrix; __reduce__ does not carry it
        try:
            return self._hash
        except AttributeError:
            h = hash((self.rows, self.cols, self.row_bits))
            _set(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Gf2Matrix) -> Gf2Matrix:
        if not (isinstance(other, Gf2Matrix) and (self.rows, self.cols) == (other.rows, other.cols)):
            raise _operand_error("add", self, "to", other)
        return Gf2Matrix._trusted(
            self.rows, self.cols, tuple([a ^ b for a, b in zip(self.row_bits, other.row_bits)])
        )

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        if not (isinstance(other, Gf2Matrix) and self.cols == other.rows):
            raise _operand_error("mul", self, "by", other)
        rows = other.row_bits
        out = []
        for b in self.row_bits:
            if not b & (b - 1):  # no set bit or one: 0, or one row of other
                out.append(rows[b.bit_length() - 1] if b else 0)
                continue
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

    def pivot_columns(self) -> list[int]:
        """The pivot columns of the echelon form, in increasing order."""
        return sorted(low_pivots(self.row_bits))

    def kernel_dim(self) -> int:
        return self.cols - self.rank()

    def inverse(self) -> Gf2Matrix:
        """Inverse of a square invertible matrix: reduce (M | I) to (I | M^-1)."""
        if self.rows != self.cols:
            raise ShapeMismatch(f"inverse of non-square {self.rows}x{self.cols}")
        n = self.rows
        pivots = echelon(b | (1 << (n + r)) for r, b in enumerate(self.row_bits))
        if any(p >= n for p in pivots):
            raise ShapeMismatch("matrix is singular")
        return Gf2Matrix._trusted(n, n, tuple([pivots[c] >> n for c in range(n)]))


# -- spans of bitmask vectors ---------------------------------------------


def echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon form of the vectors, keyed on each row's lowest bit.

    A forward pass keys every new row on its lowest bit that is not already
    a pivot; back-substitution, from the highest pivot down, then clears
    every other pivot bit from each row.
    """
    pivots = low_pivots(vectors)
    mask = _mask(pivots)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in bits_of(row & mask ^ (1 << p)):
            row ^= pivots[q]
        pivots[p] = row
    return pivots


def low_pivots(vectors: Iterable[int]) -> dict[int, int]:
    """The forward pass: each vector is reduced until its lowest bit is not a
    pivot and kept under that bit; one in the span so far reduces to zero
    and is dropped."""
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


def reduce(pivots: dict[int, int], v: int) -> int:
    """v with pivot rows of a ``low_pivots`` dict XORed in until it is zero or
    its lowest bit is not a pivot: zero exactly when v is in their span."""
    while v:
        row = pivots.get((v & -v).bit_length() - 1)
        if row is None:
            break
        v ^= row
    return v


def high_pivots(vectors: Iterable[int]) -> dict[int, int]:
    """The forward pass keyed on each vector's highest bit.  Its keys are the
    highest bits of the span's nonzero vectors."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            row = pivots.get(p)
            if row is None:
                pivots[p] = v
                break
            v ^= row
    return pivots


def span_dim(vectors: Iterable[int]) -> int:
    return len(high_pivots(vectors))


def span_intersection(u_vectors: list[int], v_vectors: list[int], ambient: int) -> list[int]:
    """Basis of span(U) ∩ span(V) inside F_2^ambient (Zassenhaus).

    Rows (u | u) and (v | 0) with the sum part in the low bits: the echelon
    rows whose low part vanishes carry a basis of the intersection above it.
    """
    rows = [u | (u << ambient) for u in u_vectors] + list(v_vectors)
    pivots = low_pivots(rows)
    return [pivots[p] >> ambient for p in sorted(pivots) if p >= ambient]


# -- block assembly ---------------------------------------------------------


@dataclass(frozen=True)
class BlockGrid:
    """Sparse grid of blocks; absent entries are zero blocks."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]
    blocks: dict[tuple[int, int], Gf2Matrix] = field(default_factory=dict)

    def __post_init__(self):
        _check_iterable(self.row_dims, "row dims")
        _check_iterable(self.col_dims, "column dims")
        _check_dims(*self.row_dims, *self.col_dims)
        if not isinstance(self.blocks, dict):
            raise ShapeMismatch(f"blocks {self.blocks!r} are not a dict")
        for (i, j), b in self.blocks.items():
            if not (0 <= i < len(self.row_dims) and 0 <= j < len(self.col_dims)):
                raise ShapeMismatch(f"block ({i},{j}) outside grid")
            if not isinstance(b, Gf2Matrix):
                raise ShapeMismatch(f"block ({i},{j}) is {b!r}, not a Gf2Matrix")
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


def cut_blocks(m: Gf2Matrix, top: int) -> tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]:
    """The blocks A, B and D of a square m = (A B; C D) whose A is top x top,
    cut in one pass over m's rows; C is not cut."""
    if not (isinstance(m, Gf2Matrix) and isinstance(top, int) and m.rows == m.cols and 0 <= top <= m.rows):
        raise ShapeMismatch(f"cannot cut {m!r} at {top!r}: it must be a square matrix of size at least {top!r}")
    mask = (1 << top) - 1
    a, b, d = [], [], []
    for r, row in enumerate(m.row_bits):
        if r < top:
            a.append(row & mask)
            b.append(row >> top)
        else:
            d.append(row >> top)
    bottom = m.rows - top
    return (
        Gf2Matrix._trusted(top, top, tuple(a)),
        Gf2Matrix._trusted(top, bottom, tuple(b)),
        Gf2Matrix._trusted(bottom, bottom, tuple(d)),
    )


class _Plan(Frozen):
    """An immutable record of this module laid out for ``kron_blocks``, made
    by one function alone (its ``_maker``)."""

    __slots__ = ()
    _maker = ""

    def __new__(cls, *args, **kwargs):
        raise ShapeMismatch(f"a {cls.__name__} is made by {cls._maker}")


class KronFactor(_Plan):
    """A matrix laid out by ``kron_factor``: its shape, its nonzero rows each
    with its set-bit positions (read when it is a left factor), and its
    nonzero rows each as an int (read when it is a right factor), both as
    (row index, ...) pairs in row order.  Two are equal when their matrices
    are."""

    __slots__ = ("rows", "cols", "set_bits", "nonzero_rows")
    _maker = "kron_factor"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KronFactor)
            and (self.rows, self.cols, self.nonzero_rows) == (other.rows, other.cols, other.nonzero_rows)
        )

    def __repr__(self) -> str:
        return f"KronFactor({self.rows}x{self.cols})"


def kron_factor(m: Gf2Matrix) -> KronFactor:
    """m laid out for ``kron_blocks`` (see ``KronFactor``)."""
    if not isinstance(m, Gf2Matrix):
        raise ShapeMismatch(f"kron factor {m!r} is not a Gf2Matrix")
    nonzero = tuple([(r, b) for r, b in enumerate(m.row_bits) if b])
    f = object.__new__(KronFactor)
    _set(f, "rows", m.rows)
    _set(f, "cols", m.cols)
    _set(f, "set_bits", tuple([(r, tuple(bits_of(b))) for r, b in nonzero]))
    _set(f, "nonzero_rows", nonzero)
    return f


class KronSide(_Plan):
    """One side of a Kronecker sum, made by ``kron_side``: the side's dims of
    each row block and each column block, the block (i, j) of each term, the
    side's factor of each term, a ``KronFactor`` of shape row_dims[i] x
    col_dims[j], and the mask of the terms whose factor is nonzero (bit t
    for term t).  Two are equal when their dims, blocks and factors are."""

    __slots__ = ("row_dims", "col_dims", "blocks", "factors", "mask")
    _maker = "kron_side"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KronSide)
            and (self.row_dims, self.col_dims, self.blocks, self.factors)
            == (other.row_dims, other.col_dims, other.blocks, other.factors)
        )

    def __repr__(self) -> str:
        return f"KronSide({len(self.row_dims)}x{len(self.col_dims)} blocks, {len(self.blocks)} terms)"


def kron_side(
    row_dims: Sequence[int],
    col_dims: Sequence[int],
    blocks: Sequence[tuple[int, int]],
    factors: Sequence[KronFactor],
) -> KronSide:
    """One side of a Kronecker sum laid out for ``kron_blocks`` (see
    ``KronSide``): factors[t] is the side's factor of term t, which sits in
    block blocks[t].  Every factor's shape is checked here, once, so
    ``kron_blocks`` checks none.  A negative dim, a block outside the grid,
    a factor that is not a ``KronFactor`` or one that does not fit its
    block raises ShapeMismatch naming the block."""
    for value, what in ((row_dims, "row dims"), (col_dims, "column dims"), (blocks, "blocks"), (factors, "factors")):
        _check_iterable(value, what)
    row_dims, col_dims, blocks, factors = tuple(row_dims), tuple(col_dims), tuple(blocks), tuple(factors)
    _check_dims(*row_dims, *col_dims)
    if len(blocks) != len(factors):
        raise ShapeMismatch(f"{len(factors)} factors given for {len(blocks)} terms")
    mask = 0
    for t, (block, f) in enumerate(zip(blocks, factors)):
        if not (isinstance(block, tuple) and len(block) == 2 and all(isinstance(x, int) for x in block)):
            raise ShapeMismatch(f"term {t} has the block {block!r}, not a pair of ints")
        i, j = block
        if not (0 <= i < len(row_dims) and 0 <= j < len(col_dims)):
            raise ShapeMismatch(f"block ({i},{j}) outside grid")
        if not isinstance(f, KronFactor):
            raise ShapeMismatch(f"block ({i},{j}) has a factor {f!r}, not a KronFactor")
        if (f.rows, f.cols) != (row_dims[i], col_dims[j]):
            raise ShapeMismatch(
                f"block ({i},{j}) has a factor {f.rows}x{f.cols}, slot needs {row_dims[i]}x{col_dims[j]}"
            )
        if f.nonzero_rows:
            mask |= 1 << t
    side = object.__new__(KronSide)
    _set(side, "row_dims", row_dims)
    _set(side, "col_dims", col_dims)
    _set(side, "blocks", blocks)
    _set(side, "factors", factors)
    _set(side, "mask", mask)
    return side


def kron_blocks(left: KronSide, right: KronSide) -> Gf2Matrix:
    """The block matrix whose block (i, j) is the sum of L ⊗ R over its
    terms, L the left side's factor and R the right side's; row block i has
    left.row_dims[i] * right.row_dims[i] rows, and column blocks likewise.

    Only the terms nonzero on both sides are visited: for each set bit c of
    L's row r1 and each nonzero row r2 of R, R's row r2, shifted to the
    column block's offset plus c * R.cols, is XORed into row (r1, r2) of the
    row block.  Sides of different terms or grids, or an argument that is
    not a ``KronSide``, raise ShapeMismatch.
    """
    if not (isinstance(left, KronSide) and isinstance(right, KronSide)):
        raise ShapeMismatch(f"kron_blocks of {left!r} and {right!r}: both must be KronSides")
    row_r, col_r = right.row_dims, right.col_dims
    if left.blocks != right.blocks or len(left.row_dims) != len(row_r) or len(left.col_dims) != len(col_r):
        raise ShapeMismatch(f"{left!r} and {right!r} lay out different terms")
    row_off = _offsets(map(mul, left.row_dims, row_r))
    col_off = _offsets(map(mul, left.col_dims, col_r))
    bits = [0] * row_off[-1]
    blocks, lefts, rights = left.blocks, left.factors, right.factors
    mask = left.mask & right.mask
    while mask:
        low = mask & -mask
        mask ^= low
        t = low.bit_length() - 1
        i, j = blocks[t]
        rr, rc = row_r[i], col_r[j]
        row0, col0 = row_off[i], col_off[j]
        nonzero = rights[t].nonzero_rows
        for r1, positions in lefts[t].set_bits:
            base = row0 + r1 * rr
            for c in positions:
                shift = col0 + c * rc
                for r2, b in nonzero:
                    bits[base + r2] ^= b << shift
    return Gf2Matrix._trusted(len(bits), col_off[-1], tuple(bits))


def _check_iterable(value: object, what: str) -> None:
    if not isinstance(value, Iterable):
        raise ShapeMismatch(f"{what} {value!r} are not iterable")


def _operand_error(op: str, m: Gf2Matrix, joiner: str, other: object) -> ShapeMismatch:
    if not isinstance(other, Gf2Matrix):
        return ShapeMismatch(f"{op} {m.rows}x{m.cols} {joiner} {other!r}, not a Gf2Matrix")
    return ShapeMismatch(f"{op} {m.rows}x{m.cols} {joiner} {other.rows}x{other.cols}")


def _negative(v: int) -> ShapeMismatch:
    # a negative int has infinitely many set bits, so no loop over them ends
    return ShapeMismatch(f"{v!r} is negative, not a vector of bits")


def _check_dims(*dims: int) -> None:
    for d in dims:
        if not isinstance(d, int) or d < 0:
            raise ShapeMismatch(f"dims {dims!r}: {d!r} is not a nonnegative int")


def _offsets(dims: Iterable[int]) -> list[int]:
    return list(accumulate(dims, initial=0))
