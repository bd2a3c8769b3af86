"""Package generators for the property tests: synthetic packages, admissible
base changes and direct sums.

None of these is on the pipeline's path from two knots to ``h``; they build
``SurgeryPackage`` values that no knot in the corpus gives, so that the
properties of ``h`` (admissible invariance, biadditivity, odd parity) can be
tested beyond the geometric packages.  They were library code in
``splicerank.duality`` and draw exactly what that code drew: every rng
string, seed and draw order is kept, and
``test_packages.py::test_moved_generators_draw_what_the_library_drew``
pins the packages with a digest taken from the library code.  They reach
into ``duality`` for the private helpers a package is built with.

A package is its dims and its three tau maps; ``derived_fbars`` gives its
fbar maps, which no package stores.  ``own_packages`` gives a test knot
packages that no other test shares.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from splicerank import duality
from splicerank.duality import (
    CYCLE,
    SurgeryPackage,
    _check_normal_form,
    verify_package,
)
from splicerank.errors import SamplingExhausted, ShapeMismatch, require_type
from splicerank.gf2 import BlockGrid, Gf2Matrix

from oracles import lower_triangular, submatrix

# -- admissible changes of basis ----------------------------------------------


@dataclass(frozen=True)
class AdmissibleChange:
    """Block-lower-triangular base changes preserving every normal form."""

    P0: Gf2Matrix
    P1: Gf2Matrix
    Pinf: Gf2Matrix
    # Q_k is a_next(k) x a_prev(k)
    Q0: Gf2Matrix
    Q1: Gf2Matrix
    Qinf: Gf2Matrix

    def pp(self) -> tuple[Gf2Matrix, ...]:
        """The change of each H_k, in table order: (P_prev(k) 0; Q_k P_next(k))."""
        ps = [getattr(self, "P" + k.label) for k in CYCLE]
        return tuple(lower_triangular(ps[prev], getattr(self, "Q" + label), ps[nxt]) for _, label, prev, nxt in CYCLE)


def random_invertible(rng: random.Random, n: int) -> Gf2Matrix:
    while True:
        m = Gf2Matrix(n, n, [rng.getrandbits(n) for _ in range(n)]) if n else Gf2Matrix.identity(0)
        if m.rank() == n:
            return m


def random_admissible(seed: int, dims: tuple[int, int, int]) -> AdmissibleChange:
    rng = random.Random(f"splicerank-admissible-{seed}")
    ps = [random_invertible(rng, a) for a in dims]
    qs = [
        Gf2Matrix(dims[nxt], dims[prev], [rng.getrandbits(dims[prev]) for _ in range(dims[nxt])])
        for _, _, prev, nxt in CYCLE
    ]
    return AdmissibleChange(*ps, *qs)


def apply_admissible(p: SurgeryPackage, change: AdmissibleChange) -> SurgeryPackage:
    """Conjugate a package; the canonical triangle forms stay bit-identical."""
    require_type(SurgeryPackage, p)
    require_type(AdmissibleChange, change)
    g = change.pp()
    try:
        g_inv = [m.inverse() for m in g]
    except ShapeMismatch as exc:
        raise ShapeMismatch("admissible change is singular") from exc
    _check_normal_form(p.dims, p.fs, g, "admissible change moved a triangle map")
    q = SurgeryPackage(*p.dims, *[h_inv @ tau @ h for tau, h, h_inv in zip(p.taus, g, g_inv)])
    verify_package(q)
    return q


# -- direct sums ----------------------------------------------------------------


def _block_sum(m: Gf2Matrix, n: Gf2Matrix, m_split: tuple[int, int], n_split: tuple[int, int]) -> Gf2Matrix:
    """m and n side by side, quarter by quarter: each summand is cut at its
    (top rows, left columns) split, and each quarter of the result is the
    diagonal sum of m's and n's quarter there."""
    row_dims, col_dims, blocks = [0] * 4, [0] * 4, {}
    for k, (x, (top, left)) in enumerate(((m, m_split), (n, n_split))):
        row_dims[k], row_dims[2 + k] = top, x.rows - top
        col_dims[k], col_dims[2 + k] = left, x.cols - left
        for i, rows in enumerate((range(0, top), range(top, x.rows))):
            for j, cols in enumerate((range(0, left), range(left, x.cols))):
                blocks[(2 * i + k, 2 * j + k)] = submatrix(x, rows, cols)
    return BlockGrid(tuple(row_dims), tuple(col_dims), blocks).assemble()


def direct_sum(p: SurgeryPackage, q: SurgeryPackage) -> SurgeryPackage:
    """The package of p and q side by side.

    Each tau is block-summed along the splits of the f maps
    (H_k = (a_prev(k), a_next(k)), see ``CYCLE``), so the summed f maps keep
    the form (0 0; I 0) and the sum passes ``verify_package``.  The derived
    fbar maps of the sum are then the block sums of p's and q's.
    """
    require_type(SurgeryPackage, p, q)
    dp, dq = p.dims, q.dims
    taus = [
        _block_sum(tau_p, tau_q, (dp[prev], dp[prev]), (dq[prev], dq[prev]))
        for (_, _, prev, _), tau_p, tau_q in zip(CYCLE, p.taus, q.taus)
    ]
    out = SurgeryPackage(*(a + b for a, b in zip(dp, dq)), *taus)
    verify_package(out)
    return out


# -- synthetic packages -------------------------------------------------------

SYNTHETIC_RETRY_BUDGET = 500


def _random_involution(rng: random.Random, n: int) -> Gf2Matrix:
    """I + N with N^2 = 0, conjugated by a random invertible matrix."""
    if n == 0:
        return Gf2Matrix.identity(0)
    k = rng.randint(0, n // 2)
    nil = Gf2Matrix.from_entries(n, n, [(i, n - k + i) for i in range(k)])
    g = random_invertible(rng, n)
    return (g @ (Gf2Matrix.identity(n) + nil)) @ g.inverse()


def _twist(rng: random.Random, tau: Gf2Matrix, top: int, bottom: int) -> Gf2Matrix:
    """Post-compose with (I 0; T I) where T B = 0 = B T, keeping A, B, D fixed."""
    b = submatrix(tau, range(top), range(top, top + bottom))
    col_space = b.kernel_basis()  # subspace of F^bottom
    row_space = b.transpose().kernel_basis()  # the left kernel, a subspace of F^top
    if not col_space or not row_space or rng.random() < 0.5:
        return tau
    theta = Gf2Matrix(bottom, top)
    for u in col_space:
        for w in row_space:
            if rng.getrandbits(1):
                theta += Gf2Matrix.from_columns([u if (w >> i) & 1 else 0 for i in range(top)], bottom)
    return lower_triangular(Gf2Matrix.identity(top), theta, Gf2Matrix.identity(bottom)) @ tau


def synthetic_package(seed: int, dims: tuple[int, int, int]) -> SurgeryPackage:
    """Random package with the stated dims, made of its dims and taus alone.

    Rejection-samples duality maps until the three cyclic B products square to
    zero; raises SamplingExhausted after a documented retry budget, and
    ShapeMismatch for dims that are not three nonnegative ints (a bool would
    seed another draw than the int it equals).
    """
    if not (isinstance(dims, tuple) and len(dims) == 3 and all(type(d) is int and d >= 0 for d in dims)):
        raise ShapeMismatch(f"synthetic package dims {dims!r} are not three nonnegative ints")
    a0, a1, a_inf = dims
    rng = random.Random(f"splicerank-synthetic-{seed}-{a0}-{a1}-{a_inf}")
    for _ in range(SYNTHETIC_RETRY_BUDGET):
        taus = []
        for _, _, prev, nxt in CYCLE:
            top, bottom = dims[prev], dims[nxt]
            taus.append(_twist(rng, _random_involution(rng, top + bottom), top, bottom))
        p = SurgeryPackage(*dims, *taus)
        if not all((x @ x).is_zero() for x in p.xs):
            continue
        verify_package(p)
        return p
    raise SamplingExhausted(
        f"no synthetic package at dims {dims} after {SYNTHETIC_RETRY_BUDGET} draws"
    )


def derived_fbars(p: SurgeryPackage) -> list[Gf2Matrix]:
    """p's fbar maps, fbar_k = tau_prev(k)^-1 f_k tau_next(k), in table order."""
    taus = p.taus
    return [taus[k.prev].inverse() @ (f @ taus[k.next]) for f, k in zip(p.fs, CYCLE)]


@contextmanager
def own_packages():
    """Within the block, ``geometric_package`` keeps its packages in a memo
    of the block's own, empty at the start, which it yields: a knot's
    package built there is made afresh, with an empty store, and shared
    with no other test, so what is put into its store dies with it."""
    kept = duality._BUILT
    duality._BUILT = fresh = type(kept)()
    try:
        yield fresh
    finally:
        duality._BUILT = kept
