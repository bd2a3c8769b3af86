"""One package per knot, and each package keeps its own values.

``normal_basis`` builds a knot's package and verifies it once, and
``geometric_package`` hands out that one package for as long as the knot's
complex lives.  A package cuts its blocks and derives its X products and f
maps when it is made, and keeps in its own store what is read from it
later: its stats, its splice side as either knot, its witness families, its
witness images as either knot, its B-block nullities and the values of the
pairs it leads.  So each of these is made once per package, a second read
is what a cold computation makes, a package built any other way (by hand,
copy or pickle) computes its own, and a computation that raises stores
nothing.  Each test gets a package memo of its own (``memo``), so no other
test's package is warm in it."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from collections import Counter

import pytest

from splicerank import duality, splice
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import (
    SurgeryPackage,
    _from_entry,
    build_tau,
    geometric_package,
    normal_basis,
    normalize,
    stats,
)
from splicerank.errors import NoFlipData, NormalizationFailure, ShapeMismatch, SpliceRankError
from splicerank.gf2 import Gf2Matrix, kron_factor
from splicerank.splice import (
    build_D,
    kernel_witnesses,
    splice_rank,
    subspace_bounds,
    theorem_check,
)
from splicerank.surgery import total_package

from oracles import oracle_models, reference_package_parts
from packages import own_packages, synthetic_package

SIDES = (0, 1)  # the first and the second knot of a splice


# What a package keeps, each read from the package and computed cold (by
# the function whose result its store keeps, or by the reference for the
# derivations its constructor makes); the splice sides and the witness
# images are two keys of the store each, one per side.
VALUES = {
    "derivations": (lambda p: (p.blocks, p.xs, p.fs), lambda p: tuple(reference_package_parts(p).values())),
    "factors-left": (lambda p: _from_entry(p, splice._side, SIDES[0]), lambda p: splice._side(p, SIDES[0])),
    "factors-right": (lambda p: _from_entry(p, splice._side, SIDES[1]), lambda p: splice._side(p, SIDES[1])),
    "families": (lambda p: _from_entry(p, splice._family_parts), splice._family_parts),
    "images-left": (
        lambda p: _from_entry(p, splice._witness_images, SIDES[0]),
        lambda p: splice._witness_images(p, SIDES[0]),
    ),
    "images-right": (
        lambda p: _from_entry(p, splice._witness_images, SIDES[1]),
        lambda p: splice._witness_images(p, SIDES[1]),
    ),
    "stats": (stats, duality._stats),
    "b-nullities": (lambda p: _from_entry(p, duality._b_nullities), duality._b_nullities),
}


def _same(value, kept) -> bool:
    """Whether value is the kept object itself, or for the derivations, a
    triple of the kept objects themselves."""
    if value is kept:
        return True
    return isinstance(value, tuple) and len(value) == 3 and all(a is b for a, b in zip(value, kept))


def _store(p: SurgeryPackage) -> dict:
    """A copy of p's store."""
    return dict(p._store)


@pytest.fixture(autouse=True)
def memo():
    """A fresh, empty package memo for the test."""
    with own_packages() as fresh:
        yield fresh


def _packages() -> list[SurgeryPackage]:
    """The package of every oracle model that has flip data, and synthetic
    packages of seeds 0-3."""
    out = []
    for c in oracle_models():
        try:
            out.append(geometric_package(c))
        except NoFlipData:
            pass
    out += [synthetic_package(seed, dims) for seed in range(4) for dims in ((1, 2, 2), (2, 3, 1), (3, 2, 0))]
    return out


def _rebuilt(p: SurgeryPackage) -> SurgeryPackage:
    """An equal package built by hand, another object, with a store of its
    own."""
    return SurgeryPackage(*p.dims, *p.taus)


@pytest.mark.parametrize("name", VALUES)
def test_a_hit_equals_a_cold_computation(name):
    read, cold = VALUES[name]
    packages = _packages()
    assert len(packages) > 40
    for p in packages:
        first = read(p)
        assert _same(read(p), first), p.dims  # kept by p
        assert first == cold(p), p.dims
        # an equal package built by hand starts empty and computes its own
        rebuilt = _rebuilt(p)
        assert rebuilt._store == {}
        assert read(rebuilt) == first, p.dims


def test_a_witness_report_read_from_the_memos_equals_a_cold_one():
    c1, c2 = corpus("t34_staircase"), corpus("fig8_box")
    p, q = geometric_package(c1), geometric_package(c2)
    cold = kernel_witnesses(p, q)
    # each knot's store keeps its stats, its families, and its splice side
    # and its witness images as its knot of the splice; the first knot's
    # keeps the pair's rank and witness values too, keyed on the second
    # knot's value, not on the second package
    kept = {(duality._stats,), (splice._family_parts,)}
    value = (q.dims, q.taus)
    pair = {(splice._pair_witnesses, *value), (splice._pair_rank, *value)}
    for r, side, extra in ((p, SIDES[0], pair), (q, SIDES[1], set())):
        assert set(_store(r)) == kept | {(splice._side, side), (splice._witness_images, side)} | extra
    stores = _store(p), _store(q)
    # warm: the knots' packages again, from equal complexes
    warm = geometric_package(corpus("t34_staircase")), geometric_package(corpus("fig8_box"))
    assert warm[0] is p and warm[1] is q
    assert kernel_witnesses(*warm) == cold
    # the warm report read every value from the stores and added none
    for store, r in zip(stores, warm):
        assert r._store.keys() == store.keys()
        assert all(r._store[key] is value for key, value in store.items())
    # equal packages built by hand compute the same report afresh
    assert kernel_witnesses(_rebuilt(p), _rebuilt(q)) == cold


def test_a_caller_cannot_change_a_memo_value():
    p = geometric_package(corpus("t34_staircase"))
    cold = [cold(p) for _, cold in VALUES.values()]
    side = _from_entry(p, splice._side, SIDES[0])
    for name in ("row_dims", "col_dims", "blocks", "factors", "mask"):
        with pytest.raises(ShapeMismatch, match="immutable"):
            setattr(side, name, getattr(side, name))
        with pytest.raises(ShapeMismatch, match="immutable"):
            delattr(side, name)
    with pytest.raises(TypeError):
        side.factors[0] = side.factors[1]
    families = _from_entry(p, splice._family_parts)
    with pytest.raises(TypeError):
        families["w0"] = ()
    with pytest.raises(AttributeError):
        families["w0"].append({"x": 0, "y": 0})
    vector = next(v for family in families.values() for v in family)
    with pytest.raises(TypeError):
        vector[next(iter(vector))] = 0
    images = _from_entry(p, splice._witness_images, SIDES[0])
    with pytest.raises(TypeError):
        images[0] = ()
    with pytest.raises(TypeError):
        images[0][0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats(p).a0 = 0
    nullities = _from_entry(p, duality._b_nullities)
    with pytest.raises(TypeError):
        nullities[0][0] = 0
    for name in ("blocks", "xs", "fs", "_store"):
        with pytest.raises(ShapeMismatch, match="immutable"):
            setattr(p, name, None)
    blocks, xs, fs = p.blocks, p.xs, p.fs
    with pytest.raises(TypeError):
        blocks[0] = blocks[1]
    with pytest.raises(TypeError):
        xs[0] = xs[1]
    with pytest.raises(AttributeError):
        blocks[0].A = blocks[0].D
    for m in (blocks[1].B, xs[1], fs[0], side.factors[0]):
        with pytest.raises(ShapeMismatch):
            m.rows = 0
        with pytest.raises(ShapeMismatch):
            del m.cols
    assert [read(p) for read, _ in VALUES.values()] == cold


def test_a_package_survives_copy_and_pickle_after_its_values_are_read():
    # the store holds mapping proxies, which cannot be copied: a copy is
    # rebuilt from the six defining fields, with an empty store of its own
    p = geometric_package(corpus("t34_staircase"))
    report = kernel_witnesses(p, p)
    for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert again == p and again is not p
        assert again._store == {}
        assert kernel_witnesses(again, again) == report


def test_a_read_that_raises_stores_nothing():
    p = geometric_package(corpus("t34_staircase"))
    calls = []

    def failing(q):
        calls.append(q)
        raise NormalizationFailure("no value")

    before = _store(p)
    for _ in range(2):
        with pytest.raises(NormalizationFailure, match="no value"):
            _from_entry(p, failing)
        assert _store(p) == before
    assert calls == [p, p]  # computed afresh on every read


def test_verify_package_runs_once_per_knot(monkeypatch):
    runs = []
    verify = duality.verify_package

    def counted(p):
        runs.append(p)
        verify(p)

    monkeypatch.setattr(duality, "verify_package", counted)
    c = corpus("t34_staircase")
    p = geometric_package(c)
    assert runs == [p]
    # an equal complex, another object, gets the knot's package, and
    # normalize reads no verdict: it only hands the package out
    assert geometric_package(corpus("t34_staircase")) is p
    assert normalize(duality._BUILT[c]) is p
    assert runs == [p]
    # another basis of that knot holds another package, verified when made
    triple = total_package(c)
    basis = normal_basis(triple.totals, build_tau(c, triple))
    q = normalize(basis)
    assert basis is not duality._BUILT[c] and q == p and q is not p
    assert runs == [p, q]
    assert normalize(basis) is q and runs == [p, q]
    # a direct call checks in full every time: 3 products for tau^2, 3 for X^2
    products = Counter()
    matmul = Gf2Matrix.__matmul__

    def counted_matmul(*args):
        products["@"] += 1
        return matmul(*args)

    monkeypatch.setattr(Gf2Matrix, "__matmul__", counted_matmul)
    for n in (1, 2):
        verify(q)
        assert products["@"] == 6 * n


def test_a_memoised_matrix_cannot_be_changed_in_place():
    # assigning row_bits on a memoised factor once made every later splice
    # of T(3,4) with fig8 read h = 27: the factor, a package's taus and its
    # derived matrices now refuse it, and h stays 25
    p, q = geometric_package(corpus("t34_staircase")), geometric_package(corpus("fig8_box"))
    assert splice_rank(p, q).h == 25
    factor = _from_entry(p, splice._side, SIDES[0]).factors[1]  # B1 A0 of block (0, 1)
    with pytest.raises(ShapeMismatch, match="immutable"):
        factor.row_bits = (0,) * factor.rows
    for name in ("rows", "cols", "set_bits", "nonzero_rows"):
        with pytest.raises(ShapeMismatch, match="immutable"):
            setattr(factor, name, ())
    for m in (*p.taus, p.blocks[1].B, p.xs[1], p.fs[0]):
        with pytest.raises(ShapeMismatch, match="immutable"):
            m.row_bits = (0,) * m.rows
    assert splice_rank(_rebuilt(p), q).h == 25
    assert splice_rank(geometric_package(corpus("t34_staircase")), q).h == 25


def test_a_kron_factor_is_made_only_from_a_matrix():
    with pytest.raises(ShapeMismatch, match="made by kron_factor"):
        type(kron_factor(Gf2Matrix.identity(1)))()
    with pytest.raises(ShapeMismatch, match="not a Gf2Matrix"):
        kron_factor([[1]])
    m = Gf2Matrix.from_dense([[0, 1, 1], [0, 0, 0], [1, 0, 0]])
    f = kron_factor(m)
    assert (f.rows, f.cols, f.set_bits, f.nonzero_rows) == (3, 3, ((0, (1, 2)), (2, (0,))), ((0, 0b110), (2, 0b1)))
    assert f == kron_factor(Gf2Matrix.from_dense(m.dense()))
    assert f != kron_factor(Gf2Matrix(3, 3)) and f != m


def test_a_bad_tau_fails_verification_on_every_build():
    # each build derives its own values, and verify_package fails on each.
    # No basis can carry a bad tau to normalize (see
    # test_a_forged_normal_basis_cannot_reach_normalize), so the package is
    # built and verified as normal_basis builds and verifies it
    c = corpus("t34_staircase")
    good = geometric_package(c)
    tau0 = good.tau0
    flipped = Gf2Matrix(tau0.rows, tau0.cols, (tau0.row_bits[0] ^ 1,) + tau0.row_bits[1:])
    for _ in range(2):
        p = SurgeryPackage(*good.dims, flipped, *good.taus[1:])
        with pytest.raises(NormalizationFailure, match="tau0"):
            duality.verify_package(p)
        assert p._store == {}
    # a tau of the wrong size fails before the package is made
    for _ in range(2):
        with pytest.raises(NormalizationFailure, match="expected"):
            SurgeryPackage(*good.dims, Gf2Matrix.identity(tau0.rows - 1), *good.taus[1:])


def test_a_forged_normal_basis_cannot_reach_normalize():
    # only normal_basis makes a NormalBasis, after checking the tau
    # relations, so normalize checks a basis by its type alone
    c = corpus("t34_staircase")
    p = geometric_package(c)
    basis = duality._BUILT[c]
    tau0 = p.tau0
    flipped = Gf2Matrix(tau0.rows, tau0.cols, (tau0.row_bits[0] ^ 1,) + tau0.row_bits[1:])
    forgeries = {
        "constructor": lambda: duality.NormalBasis(SurgeryPackage(*p.dims, flipped, *p.taus[1:])),
        "keywords": lambda: duality.NormalBasis(package=p),
        "token": lambda: duality.NormalBasis(p, object()),
    }
    for name, forge in forgeries.items():
        with pytest.raises(SpliceRankError, match="made by normal_basis") as info:
            forge()
        assert info.type is ShapeMismatch, name
    # nor is a package, or its fields, a basis
    for bad in (p, p.taus, (p.dims, p.taus)):
        with pytest.raises(ShapeMismatch):
            normalize(bad)
    # nor can a basis that normal_basis made be changed, or copied field by
    # field past its constructor
    for name in ("package",):
        with pytest.raises(ShapeMismatch, match="immutable"):
            setattr(basis, name, getattr(basis, name))
        with pytest.raises(ShapeMismatch, match="immutable"):
            delattr(basis, name)
    with pytest.raises(ShapeMismatch, match="immutable"):
        copy.copy(basis)
    assert duality._BUILT[c] is basis and basis.package is p and p.tau0 is tau0
    assert normalize(basis) is p


ENTRY_POINTS = {
    "from_entry": lambda p, bad: _from_entry(bad, duality._stats),
    "stats": lambda p, bad: stats(bad),
    "build_D": lambda p, bad: build_D(bad, p),
    "build_D-second": lambda p, bad: build_D(p, bad),
    "splice_rank-second": lambda p, bad: splice_rank(p, bad),
    "kernel_witnesses": lambda p, bad: kernel_witnesses(bad, p),
    "kernel_witnesses-second": lambda p, bad: kernel_witnesses(p, bad),
    "subspace_bounds": lambda p, bad: subspace_bounds(bad, p),
    "theorem_check": lambda p, bad: theorem_check(bad, p),
    "theorem_check-second": lambda p, bad: theorem_check(p, bad),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("bad", [[1, 2], None, 1j], ids=["list", "none", "complex"])
def test_an_argument_of_another_type_fails_before_any_lookup(call, bad):
    p = geometric_package(corpus("trefoil_staircase"))
    before = _store(p)
    with pytest.raises(ShapeMismatch) as info:
        call(p, bad)
    assert info.type is ShapeMismatch
    assert _store(p) == before


def test_a_second_build_D_of_the_same_pair_makes_no_product(monkeypatch):
    knots = [corpus(name) for name in corpus_names()]
    first = {(a.name, b.name): build_D(geometric_package(a), geometric_package(b)) for a in knots for b in knots}
    packages = {c.name: geometric_package(c) for c in knots}  # each knot's one package
    counts = Counter()
    real = Gf2Matrix.__matmul__

    def counted(*args):
        counts["@"] += 1
        return real(*args)

    monkeypatch.setattr(Gf2Matrix, "__matmul__", counted)
    for (n1, n2), d in first.items():
        assert build_D(packages[n1], packages[n2]) == d
    assert counts == Counter()
    # each knot's store holds its side as either knot, made once each
    for p in packages.values():
        assert {key for key in p._store if key[0] is splice._side} == {(splice._side, side) for side in SIDES}
