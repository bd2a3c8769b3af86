"""Core GF(2) linear algebra tests, checked against brute-force oracles."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splicerank
from splicerank.errors import ShapeMismatch, SpliceRankError
from splicerank.gf2 import (
    BlockGrid,
    Gf2Matrix,
    bits_of,
    cut_blocks,
    high_pivots,
    kron_blocks,
    kron_factor,
    kron_side,
    outer_sum_rows,
    span_dim,
    span_intersection,
    spread,
    xor_columns,
)

from oracles import SpanSolver, _vec_kron, cancel, h_number, kron, mul_vec, span_basis, span_sum_dim, submatrix


def brute_kernel_dim(m: Gf2Matrix) -> int:
    """Oracle: enumerate all 2^cols inputs and count kernel elements."""
    count = sum(1 for v in range(1 << m.cols) if mul_vec(m, v) == 0)
    assert count & (count - 1) == 0
    return count.bit_length() - 1


def brute_rank(m: Gf2Matrix) -> int:
    """Oracle: rank = log2 of the number of distinct row combinations."""
    span = {0}
    for b in m.row_bits:
        span |= {x ^ b for x in span}
    return len(span).bit_length() - 1


def reference_kernel_basis(m: Gf2Matrix) -> list[int]:
    """Reference: dense Gauss-Jordan over the columns in increasing order."""
    work = list(m.row_bits)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(m.cols):
        p = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        pivot_of_col[c] = r
        r += 1
    basis = []
    for c in range(m.cols):
        if c in pivot_of_col:
            continue
        v = 1 << c
        for pc, pr in pivot_of_col.items():
            if (work[pr] >> c) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def reference_inverse(m: Gf2Matrix) -> Gf2Matrix | None:
    """Reference: Gauss-Jordan on (M | I); None when M is singular."""
    n = m.rows
    work = [b | (1 << (n + r)) for r, b in enumerate(m.row_bits)]
    for c in range(n):
        p = next((i for i in range(c, n) if (work[i] >> c) & 1), None)
        if p is None:
            return None
        work[c], work[p] = work[p], work[c]
        for i in range(n):
            if i != c and (work[i] >> c) & 1:
                work[i] ^= work[c]
    return Gf2Matrix(n, n, [b >> n for b in work])


def random_matrix(rng: random.Random, rows: int, cols: int) -> Gf2Matrix:
    return Gf2Matrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.integers(0, (1 << c) - 1 if c else 0), min_size=r, max_size=r
        ).map(lambda bits: Gf2Matrix(r, c, bits))
    )
)


# sparse and dense rows up to 10x10, so that pivots collide and rows vanish
sparse_matrices = st.tuples(st.integers(0, 10), st.integers(0, 10)).flatmap(
    lambda rc: st.lists(
        st.lists(st.integers(0, rc[1] - 1), max_size=3).map(
            lambda cols: sum({1 << c for c in cols})
        )
        | st.integers(0, (1 << rc[1]) - 1),
        min_size=rc[0],
        max_size=rc[0],
    ).map(lambda bits: Gf2Matrix(rc[0], rc[1], bits))
    if rc[1]
    else st.just(Gf2Matrix(rc[0], 0))
)


@settings(max_examples=400, deadline=None)
@given(matrices | sparse_matrices)
def test_echelon_core_matches_dense_gauss_jordan(m):
    assert m.kernel_basis() == reference_kernel_basis(m)
    assert m.transpose().kernel_basis() == reference_kernel_basis(m.transpose())
    assert m.kernel_dim() == len(m.kernel_basis())
    assert m.rows - m.rank() == len(m.transpose().kernel_basis())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_inverse_matches_dense_gauss_jordan(bits):
    m = Gf2Matrix(len(bits), len(bits), bits)
    want = reference_inverse(m)
    if want is None:
        with pytest.raises(ShapeMismatch):
            m.inverse()
    else:
        assert m.inverse() == want
        assert m @ want == Gf2Matrix.identity(m.rows)


def test_inverse_rejects_singular_and_non_square():
    with pytest.raises(ShapeMismatch):
        Gf2Matrix.from_dense([[1, 1], [1, 1]]).inverse()
    with pytest.raises(ShapeMismatch):
        Gf2Matrix(2, 3).inverse()
    assert Gf2Matrix(0, 0).inverse() == Gf2Matrix(0, 0)


@settings(max_examples=150, deadline=None)
@given(matrices, matrices)
def test_span_intersection_dimension_and_membership(a, b):
    n = min(a.cols, b.cols)
    low = (1 << n) - 1
    u = [x & low for x in a.row_bits]
    v = [x & low for x in b.row_bits]
    inter = span_intersection(u, v, n)
    assert span_dim(inter) == len(inter)
    assert len(inter) == span_dim(u) + span_dim(v) - span_sum_dim(u, v)
    for w in inter:
        assert span_dim(u + [w]) == span_dim(u)
        assert span_dim(v + [w]) == span_dim(v)


def test_rank_identity():
    assert Gf2Matrix.identity(3).rank() == 3


def test_rank_zero_matrix():
    assert Gf2Matrix(2, 3).rank() == 0


@pytest.mark.parametrize("a", [1, 2, 3])
def test_rank_of_normalized_triangle_map_block(a):
    # (0 0; I 0) with I of size a has rank a
    grid = BlockGrid((a, a), (a, a), {(1, 0): Gf2Matrix.identity(a)})
    assert grid.assemble().rank() == a


def test_kernel_cokernel_degenerate_shapes():
    m = Gf2Matrix(1, 0)
    assert m.kernel_basis() == []
    assert len(m.transpose().kernel_basis()) == 1
    square = BlockGrid((1, 1), (1, 1), {(1, 0): Gf2Matrix.identity(1)}).assemble()
    assert len(square.kernel_basis()) == 1
    assert len(square.transpose().kernel_basis()) == 1
    for rows, cols in ((0, 0), (0, 4), (4, 0)):
        m = Gf2Matrix(rows, cols)
        assert m.kernel_basis() == reference_kernel_basis(m) == [1 << c for c in range(cols)]
        assert m.transpose().kernel_basis() == [1 << r for r in range(rows)]


def test_kernel_cokernel_rank4_5x7_frozen():
    # rank-4 5x7 matrix; expected dims frozen from the enumeration oracle
    rng = random.Random(20240513)
    while True:
        m = random_matrix(rng, 5, 7)
        if brute_rank(m) == 4:
            break
    assert brute_kernel_dim(m) == 3
    assert len(m.kernel_basis()) == 3
    assert len(m.transpose().kernel_basis()) == 1


def test_h_number_cases():
    assert h_number(Gf2Matrix(1, 0)) == 1
    assert h_number(Gf2Matrix.identity(4)) == 0
    m = Gf2Matrix.from_dense([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert m.rank() == 1
    assert h_number(m) == 4


def _sides(row_dims, col_dims, terms: dict) -> tuple:
    """The left and the right ``kron_side`` of a grid of Kronecker sums:
    row_dims[i] and col_dims[j] are (left, right) pairs of dims, and
    terms[i, j] lists the (left, right) matrix pairs of block (i, j)."""
    blocks = [key for key, pairs in terms.items() for _ in pairs]
    return tuple(
        kron_side(
            [dims[s] for dims in row_dims],
            [dims[s] for dims in col_dims],
            blocks,
            [kron_factor(pair[s]) for pairs in terms.values() for pair in pairs],
        )
        for s in (0, 1)
    )


def _kron_blocks(row_dims, col_dims, terms: dict) -> Gf2Matrix:
    """kron_blocks of the two sides of a grid (see ``_sides``)."""
    return kron_blocks(*_sides(row_dims, col_dims, terms))


def _one_kron(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """a ⊗ b as kron_blocks' only block."""
    return _kron_blocks([(a.rows, b.rows)], [(a.cols, b.cols)], {(0, 0): [(a, b)]})


def test_kron_identity_and_empty():
    assert kron(Gf2Matrix.identity(2), Gf2Matrix.identity(3)) == Gf2Matrix.identity(6)
    assert _one_kron(Gf2Matrix.identity(2), Gf2Matrix.identity(3)) == Gf2Matrix.identity(6)
    empty = Gf2Matrix(0, 0)
    a = random_matrix(random.Random(5), 3, 2)
    for prod in (kron(a, empty), _one_kron(a, empty), _one_kron(empty, a)):
        assert (prod.rows, prod.cols) == (0, 0)
    assert _one_kron(a, Gf2Matrix(2, 0)) == Gf2Matrix(6, 0)


def test_kron_rank_multiplicative_against_oracle():
    rng = random.Random(7)
    for _ in range(25):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        k = kron(a, b)
        assert brute_rank(k) == brute_rank(a) * brute_rank(b)
        assert k.rank() == a.rank() * b.rank()
        assert _one_kron(a, b) == k


def test_kron_entries():
    a = Gf2Matrix.from_dense([[1, 0], [1, 1]])
    b = Gf2Matrix.from_dense([[0, 1], [1, 0]])
    da, db = a.dense(), b.dense()
    for k in (kron(a, b), _one_kron(a, b)):
        dk = k.dense()
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        assert dk[2 * i + p][2 * j + q] == da[i][j] * db[p][q]


@st.composite
def kron_block_grids(draw):
    """(row_dims, col_dims, terms) of a random grid of Kronecker sums: up to
    three factor pairs per block, dims 0 to 3."""
    dims = st.tuples(st.integers(0, 3), st.integers(0, 3))
    row_dims = draw(st.lists(dims, max_size=3))
    col_dims = draw(st.lists(dims, max_size=3))
    terms = {}
    for i, (lr, rr) in enumerate(row_dims):
        for j, (lc, rc) in enumerate(col_dims):
            pairs = [
                (Gf2Matrix(lr, lc, _bits(draw, lr, lc)), Gf2Matrix(rr, rc, _bits(draw, rr, rc)))
                for _ in range(draw(st.integers(0, 3)))
            ]
            if pairs:
                terms[i, j] = pairs
    return row_dims, col_dims, terms


@settings(max_examples=300)
@given(kron_block_grids())
def test_kron_blocks_is_the_grid_of_summed_kron_products(grid):
    row_dims, col_dims, terms = grid
    blocks = {}
    for (i, j), pairs in terms.items():
        block = Gf2Matrix(row_dims[i][0] * row_dims[i][1], col_dims[j][0] * col_dims[j][1])
        for a, b in pairs:
            block = block + kron(a, b)
        blocks[i, j] = block
    want = BlockGrid(
        tuple(a * b for a, b in row_dims), tuple(a * b for a, b in col_dims), blocks
    ).assemble()
    assert _kron_blocks(row_dims, col_dims, terms) == want


def test_kron_blocks_edge_cases():
    one, z22 = Gf2Matrix.identity(1), Gf2Matrix(2, 2)
    m = Gf2Matrix.from_dense([[1, 1], [0, 1]])
    # zero factors, and a block whose two equal terms cancel bit for bit
    assert _kron_blocks([(2, 2)], [(2, 2)], {(0, 0): [(z22, m), (m, z22)]}) == Gf2Matrix(4, 4)
    assert _kron_blocks([(2, 2)], [(2, 2)], {(0, 0): [(m, m), (m, m)]}) == Gf2Matrix(4, 4)
    # factors with zero rows: the row block is empty, the column block stays
    terms = {(0, 0): [(Gf2Matrix(0, 2), m)], (1, 1): [(one, one)]}
    assert _kron_blocks([(0, 2), (1, 1)], [(2, 2), (1, 1)], terms) == Gf2Matrix.from_entries(1, 5, [(0, 4)])
    assert _kron_blocks([(2, 0)], [(2, 3)], {(0, 0): [(m, Gf2Matrix(0, 3))]}) == Gf2Matrix(0, 6)
    # all-zero blocks beside a nonzero one, and a term cancelling part of another
    terms = {
        (0, 0): [(one, m), (one, Gf2Matrix.from_dense([[0, 1], [0, 1]]))],
        (0, 1): [(one, Gf2Matrix(2, 1))],
        (1, 1): [],
    }
    got = _kron_blocks([(1, 2), (1, 1)], [(1, 2), (1, 1)], terms)
    assert got == Gf2Matrix.from_dense([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    # nothing at all
    assert _kron_blocks([], [], {}) == Gf2Matrix(0, 0)
    assert _kron_blocks([(2, 1)], [(1, 3)], {}) == Gf2Matrix(2, 3)


def test_a_side_masks_exactly_its_nonzero_factors():
    one, z22 = Gf2Matrix.identity(1), Gf2Matrix(2, 2)
    m = Gf2Matrix.from_dense([[1, 1], [0, 1]])
    row = Gf2Matrix.from_dense([[0, 1]])
    # a zero factor, a 1 x 0 matrix and a zero row are all zero
    terms = {(0, 0): [(z22, m), (m, m), (m, z22)], (1, 1): [(one, Gf2Matrix(1, 0))], (1, 0): [(Gf2Matrix(1, 2), row)]}
    left, right = _sides([(2, 2), (1, 1)], [(2, 2), (1, 0)], terms)
    assert (left.mask, right.mask) == (0b01110, 0b10011)
    assert left.factors[1] == right.factors[1] == kron_factor(m)
    # a side whose mask is 0, against any other, writes nothing
    empty, _ = _sides([(2, 2)], [(2, 2)], {(0, 0): [(z22, m)]})
    _, full = _sides([(2, 2)], [(2, 2)], {(0, 0): [(m, m)]})
    assert empty.mask == 0 and full.mask == 1
    assert kron_blocks(empty, full) == Gf2Matrix(4, 4)


def test_kron_blocks_shape_mismatch_names_the_block():
    i1, i2, i3 = (kron_factor(Gf2Matrix.identity(n)) for n in (1, 2, 3))
    # the products fit a 6x6 slot, but the factors do not fit (3, 2) x (3, 2):
    # each side fails when it is made, naming the block
    with pytest.raises(ShapeMismatch, match=r"block \(1,0\) has a factor 2x2, slot needs 3x3"):
        kron_side([1, 3], [3], [(1, 0)], [i2])
    with pytest.raises(ShapeMismatch, match=r"block \(1,0\) has a factor 3x3, slot needs 2x2"):
        kron_side([1, 2], [2], [(1, 0)], [i3])
    with pytest.raises(ShapeMismatch, match=r"block \(0,2\) outside grid"):
        kron_side([1], [1], [(0, 2)], [i1])
    with pytest.raises(ShapeMismatch, match="not a pair of ints"):
        kron_side([1], [1], [(0, 0.0)], [i1])
    with pytest.raises(ShapeMismatch, match="2 factors given for 1 terms"):
        kron_side([1], [1], [(0, 0)], [i1, i1])
    # sides that lay out other terms, or other grids, do not pair
    one = kron_side([1], [1], [(0, 0)], [i1])
    for other in (kron_side([1], [1], [], []), kron_side([1, 1], [1], [(0, 0)], [i1])):
        with pytest.raises(ShapeMismatch, match="lay out different terms"):
            kron_blocks(one, other)
    with pytest.raises(ShapeMismatch, match="both must be KronSides"):
        kron_blocks(one, i1)


@pytest.mark.parametrize(
    "row_dims, col_dims",
    [([(-1, 1)], [(1, 1)]), ([(1, 1)], [(1, -2)]), ([(1.0, 1)], [(1, 1)])],
    ids=["negative-row", "negative-col", "float"],
)
def test_kron_blocks_rejects_a_bad_dim(row_dims, col_dims):
    with pytest.raises(ShapeMismatch, match="not a nonnegative int"):
        _sides(row_dims, col_dims, {})


@pytest.mark.parametrize(
    "row_dims, col_dims",
    [((-1,), (1,)), ((1,), (-1,)), ((2, -1), (1,)), ((1,), (1.5,))],
    ids=["negative-row", "negative-col", "second-row", "float"],
)
def test_block_grid_rejects_a_bad_dim(row_dims, col_dims):
    with pytest.raises(ShapeMismatch, match="not a nonnegative int"):
        BlockGrid(row_dims, col_dims).assemble()


@settings(max_examples=200)
@given(st.integers(0, 2**12 - 1), st.integers(0, 6))
@example(0, 3)
@example(0b1011, 0)
@example(2**12 - 1, 6)
def test_a_product_with_a_spread_vector_is_the_kronecker_product(u, n):
    # v < 2**n fills at most one n-bit slot per set bit of u: no carries
    s = spread(u, n)
    assert [v * s for v in range(2**n)] == [_vec_kron(u, v, n) for v in range(2**n)]


def _dense_outer_sum(pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Σ p qᵀ written out entry by entry."""
    rows = max((p.bit_length() for p, _ in pairs), default=0)
    cols = max((q.bit_length() for _, q in pairs), default=0)
    return [[sum((p >> r) & (q >> c) & 1 for p, q in pairs) % 2 for c in range(cols)] for r in range(rows)]


@st.composite
def outer_sums(draw) -> list[tuple[int, int]]:
    """Pairs (p, q); half the time joined by pairs that cancel them, (p, q ^ x)
    and (p, x) for each, and shuffled, so that zero and nonzero sums occur."""
    small = st.integers(0, 63)
    pairs = draw(st.lists(st.tuples(small, small), max_size=6))
    if draw(st.booleans()):
        xs = draw(st.lists(small, min_size=len(pairs), max_size=len(pairs)))
        pairs = draw(st.permutations(pairs + [pair for (p, q), x in zip(pairs, xs) for pair in ((p, q ^ x), (p, x))]))
    return pairs


@settings(max_examples=300)
@given(outer_sums())
@example([])  # empty
@example([(5, 0)])  # a zero q
@example([(0, 5)])  # a zero p
@example([(3, 5), (3, 5)])  # a pair and its copy cancel
@example([(1, 6), (2, 6), (3, 6)])  # a duplicated q whose ps cancel
@example([(1, 6), (2, 6)])  # a duplicated q whose ps do not: 3 6ᵀ
@example([(1, 3), (1, 5), (1, 6)])  # dependent qs that cancel
@example([(1, 3), (2, 5), (3, 6)])  # dependent qs that do not
def test_outer_sum_rows_are_the_dense_sum(pairs):
    # every row of the sum: a zero row is left out, a nonzero one given as
    # an int whose bit c is entry (r, c)
    dense = _dense_outer_sum(pairs)
    rows = {r: sum(bit << c for c, bit in enumerate(row)) for r, row in enumerate(dense)}
    assert outer_sum_rows(iter(pairs)) == {r: q for r, q in rows.items() if q}


def test_cancel_identity():
    out = cancel(Gf2Matrix.identity(2), 0, 0)
    assert out == Gf2Matrix.identity(1)
    assert h_number(out) == 0


def test_cancel_all_ones_2x2():
    m = Gf2Matrix.from_dense([[1, 1], [1, 1]])
    out = cancel(m, 0, 0)
    assert out == Gf2Matrix(1, 1)
    assert h_number(m) == 2 and h_number(out) == 2


def test_cancel_requires_unit_pivot():
    with pytest.raises(ValueError, match=r"entry \(0,0\) is zero"):
        cancel(Gf2Matrix(2, 2), 0, 0)


def test_cancel_preserves_h_on_random_6x6():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, 6, 6)
        bits = list(m.row_bits)
        bits[2] |= 1 << 3
        m = Gf2Matrix(6, 6, bits)
        out = cancel(m, 2, 3)
        assert brute_kernel_dim(out) == brute_kernel_dim(m)
        assert h_number(out) == h_number(m)


@settings(max_examples=120, deadline=None)
@given(matrices, st.data())
def test_cancel_preserves_kernel_and_cokernel_dims(m, data):
    pivots = [(r, c) for r in range(m.rows) for c in range(m.cols) if m.row_bits[r] >> c & 1]
    if not pivots:
        return
    r, c = data.draw(st.sampled_from(pivots))
    out = cancel(m, r, c)
    assert len(out.kernel_basis()) == len(m.kernel_basis())
    assert len(out.transpose().kernel_basis()) == len(m.transpose().kernel_basis())


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_rank_nullity_bookkeeping(m):
    r = m.rank()
    assert r <= min(m.rows, m.cols)
    assert r + len(m.kernel_basis()) == m.cols
    assert r + len(m.transpose().kernel_basis()) == m.rows
    assert h_number(m) == m.rows + m.cols - 2 * r


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_pivot_columns_complete_the_kernel(m):
    # free column c's kernel vector has highest bit c, so completing the
    # kernel with standard basis vectors in increasing order takes the pivots
    solver = SpanSolver(m.kernel_basis())
    assert m.pivot_columns() == [i for i in range(m.cols) if solver.add(1 << i)]
    assert len(m.pivot_columns()) == m.rank()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=10))))
@example((0, []))
@example((5, []))
@example((4, [0b0001, 0b0011, 0b0111, 0b1111]))
@example((4, [0b1000, 0b0100, 0b0010, 0b0001, 0b1111]))
@example((3, [0b110, 0b110, 0, 0b011]))
def test_high_pivots_complete_a_span_as_the_greedy_solver_does(case):
    # normalize takes Z1 as the i that are not keys of high_pivots(image)
    n, vectors = case
    solver = SpanSolver(vectors)
    taken = high_pivots(vectors)
    assert [i for i in range(n) if i not in taken] == [i for i in range(n) if solver.add(1 << i)]
    assert len(taken) == span_dim(vectors)
    assert solver.dim == n


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(m):
    for v in m.kernel_basis():
        assert mul_vec(m, v) == 0
    for w in m.transpose().kernel_basis():
        assert mul_vec(m.transpose(), w) == 0


def test_assemble_degenerate_and_diagonal():
    assert BlockGrid((1,), ()).assemble() == Gf2Matrix(1, 0)
    diag = BlockGrid(
        (2, 3), (2, 3), {(0, 0): Gf2Matrix.identity(2), (1, 1): Gf2Matrix.identity(3)}
    )
    assert diag.assemble() == Gf2Matrix.identity(5)


def test_assemble_shape_mismatch_names_block():
    with pytest.raises(ShapeMismatch, match=r"\(0,1\)"):
        BlockGrid((1, 2), (1, 2), {(0, 1): Gf2Matrix.identity(1)})


def test_assemble_then_slice_roundtrip():
    rng = random.Random(3)
    row_dims = (2, 0, 3)
    col_dims = (1, 4)
    blocks = {
        (i, j): random_matrix(rng, row_dims[i], col_dims[j])
        for i in range(3)
        for j in range(2)
    }
    m = BlockGrid(row_dims, col_dims, blocks).assemble()
    row_off, col_off = [0, 2, 2, 5], [0, 1, 5]
    for (i, j), b in blocks.items():
        rows = range(row_off[i], row_off[i + 1])
        cols = range(col_off[j], col_off[j + 1])
        assert submatrix(m, rows, cols) == b


def test_matmul_and_transpose_consistency():
    rng = random.Random(13)
    a = random_matrix(rng, 4, 3)
    b = random_matrix(rng, 3, 5)
    ab = a @ b
    assert ab.transpose() == b.transpose() @ a.transpose()
    v = rng.getrandbits(5)
    assert mul_vec(ab, v) == mul_vec(a, mul_vec(b, v))


def test_span_helpers():
    vecs = [0b101, 0b011, 0b110, 0b101]
    assert span_dim(vecs) == 2
    basis = span_basis(vecs)
    assert len(basis) == 2
    assert span_sum_dim(vecs, [0b100]) == 3
    # U = span{101,011} = {0,101,011,110}, V = span{110,001} = {0,110,001,111}
    inter = span_intersection([0b101, 0b011], [0b110, 0b001], 3)
    assert span_basis(inter) == [0b110]


def test_span_solver_coordinates():
    solver = SpanSolver([0b01, 0b10])
    assert solver.solve(0b11) == 0b11
    assert solver.solve(0b10) == 0b10
    s2 = SpanSolver([0b11])
    assert s2.solve(0b01) is None
    assert list(bits_of(0b1010)) == [1, 3]


def test_span_solver_rejected_add_takes_no_index():
    solver = SpanSolver([0b011])
    assert not solver.add(0b011)
    assert solver.add(0b100)  # the second generator: index 1, not 2
    assert solver.dim == 2
    assert solver.solve(0b111) == 0b11
    assert solver.solve(0b100) == 0b10
    assert solver.solve(0b001) is None


# -- results built on the trusted path ----------------------------------------


def _bits(draw, rows: int, cols: int) -> list[int]:
    return draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))


@st.composite
def trusted_results(draw):
    """(name, result) for one of gf2's own operations on random shapes,
    0 x n and n x 0 included."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a = Gf2Matrix(r, k, _bits(draw, r, k))
    b = Gf2Matrix(k, c, _bits(draw, k, c))
    name = draw(
        st.sampled_from(
            ["matmul", "add", "transpose", "kron_blocks", "inverse", "cut_blocks", "from_columns", "assemble"]
        )
    )
    if name == "matmul":
        return name, a @ b
    if name == "add":
        return name, a + Gf2Matrix(r, k, _bits(draw, r, k))
    if name == "transpose":
        return name, a.transpose()
    if name == "kron_blocks":
        a2 = Gf2Matrix(r, k, _bits(draw, r, k))
        # a sum of two products in one block, beside a block with no terms
        return name, _kron_blocks([(r, k)], [(1, 1), (k, c)], {(0, 1): [(a, b), (a2, b)]})
    if name == "inverse":
        square = Gf2Matrix(r, r, _bits(draw, r, r))
        if reference_inverse(square) is None:
            square = Gf2Matrix.identity(r)
        return name, square.inverse()
    if name == "cut_blocks":
        blocks = cut_blocks(Gf2Matrix(c, c, _bits(draw, c, c)), draw(st.integers(0, c)))
        return name, blocks[draw(st.integers(0, 2))]
    if name == "from_columns":
        return name, Gf2Matrix.from_columns(_bits(draw, c, r), r)
    row_dims = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    col_dims = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    blocks = {
        (i, j): Gf2Matrix(row_dims[i], col_dims[j], _bits(draw, row_dims[i], col_dims[j]))
        for i in range(len(row_dims))
        for j in range(len(col_dims))
        if draw(st.booleans())
    }
    return name, BlockGrid(row_dims, col_dims, blocks).assemble()


@settings(max_examples=400)
@given(trusted_results())
def test_trusted_results_pass_the_public_constructor(case):
    name, m = case
    assert type(m.row_bits) is tuple, name
    assert Gf2Matrix(m.rows, m.cols, m.row_bits) == m, name


@pytest.mark.parametrize("name", ["rows", "cols", "row_bits", "_hash", "other"])
def test_a_matrix_refuses_assignment_and_deletion(name):
    # memos and packages hand one matrix to every caller, so none may change it
    for m in (Gf2Matrix.identity(2), Gf2Matrix.identity(2) @ Gf2Matrix.identity(2)):
        with pytest.raises(ShapeMismatch, match=f"immutable: cannot set {name}"):
            setattr(m, name, (0, 0))
        with pytest.raises(ShapeMismatch, match=f"immutable: cannot delete {name}"):
            delattr(m, name)
        assert m == Gf2Matrix.identity(2) and m.row_bits == (1, 2)


def test_a_matrix_survives_copy_and_pickle():
    # they rebuild a matrix through its constructor, as assignment is refused
    m = Gf2Matrix.from_dense([[1, 0, 1], [0, 1, 1]])
    for again in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert again == m and type(again.row_bits) is tuple


def test_a_matrix_keeps_its_hash_and_a_copy_does_not():
    # a matrix is hashed once; copy and pickle rebuild it unhashed, so a
    # hash never outlives the process that computed it
    m = Gf2Matrix.from_dense([[1, 0, 1], [0, 1, 1]])
    assert not hasattr(m, "_hash")
    h = hash(m)
    assert m._hash == h == hash(m) == hash(Gf2Matrix(2, 3, m.row_bits))
    for again in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert not hasattr(again, "_hash") and hash(again) == h


def test_public_constructors_still_reject_bits_out_of_range():
    with pytest.raises(ShapeMismatch, match="row 1 has bits beyond column 2"):
        Gf2Matrix(2, 2, [0b01, 0b100])
    with pytest.raises(ShapeMismatch):
        Gf2Matrix(2, 2, [0b01])
    # an empty row list is a matrix with no rows, not the zero matrix
    with pytest.raises(ShapeMismatch, match="0 rows given for a 2x2 matrix"):
        Gf2Matrix(2, 2, [])
    assert Gf2Matrix(2, 2).row_bits == (0, 0)
    with pytest.raises(ShapeMismatch, match=r"entry \(0,3\) outside 2x3"):
        Gf2Matrix.from_entries(2, 3, [(0, 3)])
    with pytest.raises(ShapeMismatch, match=r"entry \(2,0\) outside 2x3"):
        Gf2Matrix.from_entries(2, 3, [(2, 0)])
    with pytest.raises(ShapeMismatch, match="column 1 has bit 2 beyond row 2"):
        Gf2Matrix.from_columns([0b01, 0b1110], 2)
    with pytest.raises(ShapeMismatch, match="column 0 has bit 0 beyond row 0"):
        Gf2Matrix.from_columns([0b1], 0)


# a value that is not an int is bad input: a typed error, never a TypeError
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gf2Matrix(1, 2, [1.0]), "row 0 is 1.0, not an int"),
        (lambda: Gf2Matrix(2, 2, [1, None]), "row 1 is None, not an int"),
        (lambda: Gf2Matrix(1.0, 2), r"dims \(1.0, 2\): 1.0 is not a nonnegative int"),
        (lambda: Gf2Matrix.from_columns([1.0], 2), "column 0 is 1.0, not an int"),
        (lambda: Gf2Matrix.from_columns([1], 2.0), "not a nonnegative int"),
        (lambda: Gf2Matrix.from_dense([[None]]), r"entry \(0,0\) is None, not an int"),
        (lambda: Gf2Matrix.from_dense([[0, 1], [1, "1"]]), r"entry \(1,1\) is '1', not an int"),
        (lambda: Gf2Matrix.from_entries(2, 2, [(0, 1.0)]), "not at int indices"),
        (lambda: Gf2Matrix.identity(2.0), "not a nonnegative int"),
        (lambda: Gf2Matrix.identity(-1), "-1 is not a nonnegative int"),
        # the zero matrix, a shape with no rows given
        (lambda: Gf2Matrix(0, -2), r"dims \(0, -2\): -2 is not a nonnegative int"),
        (lambda: Gf2Matrix(None, 0), "not a nonnegative int"),
        (lambda: Gf2Matrix.from_dense([None]), "row 0 is None, not a list of entries"),
        (lambda: Gf2Matrix.from_dense([[1], 3]), "row 1 is 3, not a list of entries"),
        (lambda: Gf2Matrix(2, 2, 5), "row bits 5 are not iterable"),
        (lambda: Gf2Matrix.from_columns(None, 2), "columns None are not a list"),
        (lambda: Gf2Matrix.from_entries(2, 2, [(0,)]), r"entry \(0,\) is not a \(row, col\) pair"),
        (lambda: BlockGrid((1,), (1,), {(0, 0): "x"}), r"block \(0,0\) is 'x', not a Gf2Matrix"),
        (
            lambda: kron_side([1], [1], [(0, 0)], ["x"]),
            r"block \(0,0\) has a factor 'x', not a KronFactor",
        ),
        (lambda: Gf2Matrix.from_dense(None), "dense matrix None is not a list of rows"),
        (lambda: Gf2Matrix.from_entries(2, 2, None), "entries None are not iterable"),
        (lambda: BlockGrid(None, (1,)), "row dims None are not iterable"),
        (lambda: BlockGrid((1,), (1,), None), "blocks None are not a dict"),
    ],
    ids=[
        "row-float",
        "row-none",
        "shape-float",
        "column-float",
        "columns-rows-float",
        "dense-none",
        "dense-str",
        "entries-float",
        "identity-float",
        "identity-negative",
        "zeros-negative",
        "zeros-none",
        "dense-row-none",
        "dense-row-int",
        "rows-int",
        "columns-none",
        "entry-short",
        "block-str",
        "kron-factor-str",
        "dense-matrix-none",
        "entries-none",
        "grid-dims-none",
        "grid-blocks-none",
    ],
)
def test_public_constructors_reject_a_value_that_is_not_an_int(build, message):
    with pytest.raises(ShapeMismatch, match=message):
        build()


def test_cut_blocks_is_the_three_blocks_cut_one_by_one():
    rng = random.Random(11)
    for n in range(6):
        for _ in range(4):
            m = random_matrix(rng, n, n)
            for top in range(n + 1):
                want = (
                    submatrix(m, range(top), range(top)),
                    submatrix(m, range(top), range(top, n)),
                    submatrix(m, range(top, n), range(top, n)),
                )
                assert cut_blocks(m, top) == want, (n, top)
    # empty blocks at either edge
    assert cut_blocks(Gf2Matrix.identity(2), 0) == (Gf2Matrix(0, 0), Gf2Matrix(0, 2), Gf2Matrix.identity(2))
    assert cut_blocks(Gf2Matrix.identity(2), 2) == (Gf2Matrix.identity(2), Gf2Matrix(2, 0), Gf2Matrix(0, 0))


@pytest.mark.parametrize(
    "m, top",
    [
        (Gf2Matrix.identity(2), 3),
        (Gf2Matrix.identity(2), -1),
        (Gf2Matrix(2, 3), 1),
        (Gf2Matrix(3, 2), 1),
        (Gf2Matrix.identity(2), 1.0),
        ("x", 0),
    ],
    ids=["past-the-last-row", "negative", "wide", "tall", "float", "not-a-matrix"],
)
def test_cut_blocks_rejects_a_cut_outside_a_square(m, top):
    with pytest.raises(ShapeMismatch, match="cannot cut") as info:
        cut_blocks(m, top)
    assert info.type is ShapeMismatch


# a position outside the matrix is bad input: a typed error, as in cut_blocks,
# not the IndexError of a list lookup; the entries of from_entries are
# positions in the matrix it builds
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: Gf2Matrix.from_entries(m.rows, m.cols, [(0, 3)]), r"entry \(0,3\) outside 2x2"),
        (lambda m: Gf2Matrix.from_entries(m.rows, m.cols, [(2, 0)]), r"entry \(2,0\) outside 2x2"),
        (lambda m: Gf2Matrix.from_entries(m.rows, m.cols, [(-1, 0)]), r"entry \(-1,0\) outside 2x2"),
        (lambda m: cancel(m, 2, 0), r"pivot \(2,0\) outside 2x2"),
        (lambda m: cancel(m, 0, -1), r"pivot \(0,-1\) outside 2x2"),
        (lambda m: Gf2Matrix.from_entries(m.rows, m.cols, [("a", 0)]), r"entry \('a',0\) is not at int indices"),
        (lambda m: Gf2Matrix.from_entries(m.rows, m.cols, [(0.0, 0)]), r"entry \(0.0,0\) is not at int indices"),
        (lambda m: cut_blocks(m, "a"), r"cannot cut Gf2Matrix\(2x2\) at 'a'"),
        (lambda m: m @ 3, "mul 2x2 by 3, not a Gf2Matrix"),
        (lambda m: m + 3, "add 2x2 to 3, not a Gf2Matrix"),
        (lambda m: xor_columns(m.row_bits, 4), "bit 2 of the vector is past its 2 columns"),
        (lambda m: spread(2, -1), "slot width -1 is negative"),
        (lambda m: spread(1, -1), "slot width -1 is negative"),
    ],
    ids=[
        "entry-col",
        "entry-row",
        "entry-negative",
        "cancel-row",
        "cancel-negative",
        "entry-str",
        "entry-float",
        "cut-blocks-str",
        "mul-int",
        "add-int",
        "xor-columns-past",
        "spread-negative-width",
        "spread-negative-width-low-bit",
    ],
)
def test_a_position_outside_the_matrix_is_a_typed_error(call, message):
    m = Gf2Matrix.from_dense([[1, 1], [0, 1]])
    with pytest.raises(SpliceRankError, match=message) as info:
        call(m)
    assert info.type is ShapeMismatch
    # the corner itself is still inside
    assert Gf2Matrix.from_entries(2, 2, [(1, 1)]).row_bits == (0, 2)
    assert cancel(m, 1, 1) == Gf2Matrix.from_dense([[1]])


# Calls on a negative int, which has infinitely many set bits: the first
# three once looped forever and the last raised IndexError.  Each runs in
# its own interpreter, so a loop fails the test at the timeout instead of
# hanging the suite.
NEGATIVE_VECTOR_CALLS = {
    "bits_of": "list(bits_of(-1))",
    "spread": "spread(-1, 2)",
    "outer_sum_rows": "outer_sum_rows([(-1, 1)])",
    "xor_columns": "xor_columns([1, 2], -1)",
}


@pytest.mark.parametrize("call", NEGATIVE_VECTOR_CALLS.values(), ids=NEGATIVE_VECTOR_CALLS)
def test_a_negative_vector_is_a_shape_mismatch(call):
    script = (
        "from splicerank.gf2 import bits_of, outer_sum_rows, spread, xor_columns\n"
        f"try:\n    {call}\nexcept Exception as exc:\n    print(type(exc).__name__, exc)\n"
    )
    src = str(Path(splicerank.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "ShapeMismatch -1 is negative, not a vector of bits\n", done.stderr
