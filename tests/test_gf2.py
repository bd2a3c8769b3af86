"""Core GF(2) linear algebra tests, checked against brute-force oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicerank.errors import PivotZero, ShapeMismatch, SpliceRankError
from splicerank.gf2 import (
    BlockGrid,
    Gf2Matrix,
    SpanSolver,
    bits_of,
    span_dim,
    span_intersection,
    span_sum_dim,
)

from oracles import h_number, mul_vec, span_basis


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
    else st.just(Gf2Matrix.zeros(rc[0], 0))
)


@settings(max_examples=400, deadline=None)
@given(matrices | sparse_matrices)
def test_echelon_core_matches_dense_gauss_jordan(m):
    assert m.kernel_basis() == reference_kernel_basis(m)
    assert m.cokernel_basis() == reference_kernel_basis(m.transpose())
    assert m.kernel_dim() == len(m.kernel_basis())
    assert m.cokernel_dim() == len(m.cokernel_basis())


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
        Gf2Matrix.zeros(2, 3).inverse()
    assert Gf2Matrix.zeros(0, 0).inverse() == Gf2Matrix.zeros(0, 0)


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
    assert Gf2Matrix.zeros(2, 3).rank() == 0


@pytest.mark.parametrize("a", [1, 2, 3])
def test_rank_of_normalized_triangle_map_block(a):
    # (0 0; I 0) with I of size a has rank a
    grid = BlockGrid((a, a), (a, a), {(1, 0): Gf2Matrix.identity(a)})
    assert grid.assemble().rank() == a


def test_kernel_cokernel_degenerate_shapes():
    m = Gf2Matrix.zeros(1, 0)
    assert m.kernel_basis() == []
    assert len(m.cokernel_basis()) == 1
    square = BlockGrid((1, 1), (1, 1), {(1, 0): Gf2Matrix.identity(1)}).assemble()
    assert len(square.kernel_basis()) == 1
    assert len(square.cokernel_basis()) == 1
    for rows, cols in ((0, 0), (0, 4), (4, 0)):
        m = Gf2Matrix.zeros(rows, cols)
        assert m.kernel_basis() == reference_kernel_basis(m) == [1 << c for c in range(cols)]
        assert m.cokernel_basis() == [1 << r for r in range(rows)]


def test_kernel_cokernel_rank4_5x7_frozen():
    # rank-4 5x7 matrix; expected dims frozen from the enumeration oracle
    rng = random.Random(20240513)
    while True:
        m = random_matrix(rng, 5, 7)
        if brute_rank(m) == 4:
            break
    assert brute_kernel_dim(m) == 3
    assert len(m.kernel_basis()) == 3
    assert len(m.cokernel_basis()) == 1


def test_h_number_cases():
    assert h_number(Gf2Matrix.zeros(1, 0)) == 1
    assert h_number(Gf2Matrix.identity(4)) == 0
    m = Gf2Matrix.from_dense([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert m.rank() == 1
    assert h_number(m) == 4


def test_kron_identity_and_empty():
    assert Gf2Matrix.identity(2).kron(Gf2Matrix.identity(3)) == Gf2Matrix.identity(6)
    empty = Gf2Matrix.zeros(0, 0)
    prod = random_matrix(random.Random(5), 3, 2).kron(empty)
    assert (prod.rows, prod.cols) == (0, 0)


def test_kron_rank_multiplicative_against_oracle():
    rng = random.Random(7)
    for _ in range(25):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        k = a.kron(b)
        assert brute_rank(k) == brute_rank(a) * brute_rank(b)
        assert k.rank() == a.rank() * b.rank()


def test_kron_entries():
    a = Gf2Matrix.from_dense([[1, 0], [1, 1]])
    b = Gf2Matrix.from_dense([[0, 1], [1, 0]])
    k = a.kron(b)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k.entry(2 * i + p, 2 * j + q) == a.entry(i, j) * b.entry(p, q)


def test_cancel_identity():
    out = Gf2Matrix.identity(2).cancel(0, 0)
    assert out == Gf2Matrix.identity(1)
    assert h_number(out) == 0


def test_cancel_all_ones_2x2():
    m = Gf2Matrix.from_dense([[1, 1], [1, 1]])
    out = m.cancel(0, 0)
    assert out == Gf2Matrix.zeros(1, 1)
    assert h_number(m) == 2 and h_number(out) == 2


def test_cancel_requires_unit_pivot():
    with pytest.raises(PivotZero):
        Gf2Matrix.zeros(2, 2).cancel(0, 0)


def test_cancel_preserves_h_on_random_6x6():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, 6, 6)
        bits = list(m.row_bits)
        bits[2] |= 1 << 3
        m = Gf2Matrix(6, 6, bits)
        out = m.cancel(2, 3)
        assert brute_kernel_dim(out) == brute_kernel_dim(m)
        assert h_number(out) == h_number(m)


@settings(max_examples=120, deadline=None)
@given(matrices, st.data())
def test_cancel_preserves_kernel_and_cokernel_dims(m, data):
    pivots = [(r, c) for r in range(m.rows) for c in range(m.cols) if m.entry(r, c)]
    if not pivots:
        return
    r, c = data.draw(st.sampled_from(pivots))
    out = m.cancel(r, c)
    assert len(out.kernel_basis()) == len(m.kernel_basis())
    assert len(out.cokernel_basis()) == len(m.cokernel_basis())


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_rank_nullity_bookkeeping(m):
    r = m.rank()
    assert r <= min(m.rows, m.cols)
    assert r + len(m.kernel_basis()) == m.cols
    assert r + len(m.cokernel_basis()) == m.rows
    assert h_number(m) == m.rows + m.cols - 2 * r


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(m):
    for v in m.kernel_basis():
        assert mul_vec(m, v) == 0
    for w in m.cokernel_basis():
        assert mul_vec(m.transpose(), w) == 0


def test_assemble_degenerate_and_diagonal():
    assert BlockGrid((1,), ()).assemble() == Gf2Matrix.zeros(1, 0)
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
        assert m.submatrix(rows, cols) == b


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


def _sub_range(draw, n: int) -> range:
    start = draw(st.integers(0, n))
    return range(start, draw(st.integers(start, n)))


@st.composite
def trusted_results(draw):
    """(name, result) for one of gf2's own operations on random shapes,
    0 x n and n x 0 included."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a = Gf2Matrix(r, k, _bits(draw, r, k))
    b = Gf2Matrix(k, c, _bits(draw, k, c))
    name = draw(
        st.sampled_from(
            ["matmul", "add", "transpose", "kron", "inverse", "submatrix", "from_columns", "assemble"]
        )
    )
    if name == "matmul":
        return name, a @ b
    if name == "add":
        return name, a + Gf2Matrix(r, k, _bits(draw, r, k))
    if name == "transpose":
        return name, a.transpose()
    if name == "kron":
        return name, a.kron(b)
    if name == "inverse":
        square = Gf2Matrix(r, r, _bits(draw, r, r))
        if reference_inverse(square) is None:
            square = Gf2Matrix.identity(r)
        return name, square.inverse()
    if name == "submatrix":
        return name, a.submatrix(_sub_range(draw, r), _sub_range(draw, k))
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


def test_public_constructors_still_reject_bits_out_of_range():
    with pytest.raises(ShapeMismatch, match="row 1 has bits beyond column 2"):
        Gf2Matrix(2, 2, [0b01, 0b100])
    with pytest.raises(ShapeMismatch):
        Gf2Matrix(2, 2, [0b01])
    with pytest.raises(ShapeMismatch, match=r"entry \(0,3\) outside 2x3"):
        Gf2Matrix.from_entries(2, 3, [(0, 3)])
    with pytest.raises(ShapeMismatch, match=r"entry \(2,0\) outside 2x3"):
        Gf2Matrix.from_entries(2, 3, [(2, 0)])
    with pytest.raises(ShapeMismatch, match="column 1 has bit 2 beyond row 2"):
        Gf2Matrix.from_columns([0b01, 0b1110], 2)
    with pytest.raises(ShapeMismatch, match="column 0 has bit 0 beyond row 0"):
        Gf2Matrix.from_columns([0b1], 0)


def test_submatrix_rejects_a_stepped_range():
    m = Gf2Matrix.identity(4)
    assert m.submatrix(range(1, 3), range(1, 3)) == Gf2Matrix.identity(2)
    with pytest.raises(ShapeMismatch, match="step 1"):
        m.submatrix(range(4), range(0, 4, 2))
    with pytest.raises(ShapeMismatch, match="step 1"):
        m.submatrix(range(3, -1, -1), range(4))


def test_submatrix_rejects_a_range_outside_the_matrix():
    m = Gf2Matrix.identity(2)
    with pytest.raises(ShapeMismatch, match="leaves 2x2"):
        m.submatrix(range(1, 3), range(2))  # rows past the last row
    with pytest.raises(ShapeMismatch, match="leaves 2x2"):
        m.submatrix(range(2), range(1, 3))  # columns past the last column
    with pytest.raises(ShapeMismatch, match="leaves 2x2"):
        m.submatrix(range(-1, 1), range(2))
    with pytest.raises(ShapeMismatch, match="leaves 2x2"):
        m.submatrix(range(2), range(2, 1))
    # empty ranges inside the matrix, at either edge, stay legal
    assert m.submatrix(range(2, 2), range(0)) == Gf2Matrix.zeros(0, 0)
    assert m.submatrix(range(0), range(2)) == Gf2Matrix.zeros(0, 2)
    assert m.submatrix(range(2), range(2, 2)) == Gf2Matrix.zeros(2, 0)


# a position outside the matrix is bad input: a typed error, as in submatrix,
# not the IndexError of a tuple lookup
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: m.entry(0, 3), r"entry \(0,3\) outside 2x2"),
        (lambda m: m.entry(2, 0), r"entry \(2,0\) outside 2x2"),
        (lambda m: m.entry(-1, 0), r"entry \(-1,0\) outside 2x2"),
        (lambda m: m.column(2), r"column 2 outside 2x2"),
        (lambda m: m.column(-1), r"column -1 outside 2x2"),
        (lambda m: m.cancel(2, 0), r"pivot \(2,0\) outside 2x2"),
        (lambda m: m.cancel(0, -1), r"pivot \(0,-1\) outside 2x2"),
    ],
    ids=["entry-col", "entry-row", "entry-negative", "column", "column-negative", "cancel-row", "cancel-negative"],
)
def test_a_position_outside_the_matrix_is_a_typed_error(call, message):
    m = Gf2Matrix.from_dense([[1, 1], [0, 1]])
    with pytest.raises(SpliceRankError, match=message) as info:
        call(m)
    assert info.type is ShapeMismatch
    # the corner itself is still inside
    assert (m.entry(1, 1), m.column(1), m.cancel(1, 1)) == (1, 0b11, Gf2Matrix.from_dense([[1]]))
