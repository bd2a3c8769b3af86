"""The one per-value memo: ``duality._derive`` keeps, for each package
value, one entry of at most ``PACKAGE_MEMO_SIZE``.  An entry holds the
value's blocks, X products and f maps, and a store of what is read from
the value later: its verdict, its stats, its splice side as either knot,
its witness families, its witness images as either knot and its B-block
nullities.  Every equal package
shares the entry, so each of these is made once per value, and
``verify_package`` runs once per value; a hit is what a cold computation
makes, a kept None is a hit too, evicting an entry drops what it holds,
and a computation that raises stores nothing."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from collections import Counter

import pytest

from splicerank import duality, splice
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import (
    PACKAGE_MEMO_SIZE,
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

from oracles import oracle_models
from packages import synthetic_package

SIDES = (0, 1)  # the first and the second knot of a splice


# What the memo keeps of a package value, each read through the package's
# entry and computed cold (by the function whose result the entry keeps);
# the splice sides and the witness images are two keys of the store each,
# one per side.
VALUES = {
    "derivations": (lambda p: p._entry, lambda p: duality._derive.__wrapped__(p.dims, p.taus)),
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


def _kept(value):
    """What a memo value is compared by: an entry's blocks, X products and f
    maps, without its store; any other value itself."""
    return value[:3] if isinstance(value, duality._Entry) else value


def _store(p: SurgeryPackage) -> dict:
    """A copy of the store of p's entry."""
    return dict(p._entry.store)


@pytest.fixture(autouse=True)
def empty_memo():
    duality._derive.cache_clear()


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
    """An equal package, another object: what a warm geometric_package gives."""
    return SurgeryPackage(*p.dims, *p.taus)


@pytest.mark.parametrize("name", VALUES)
def test_a_hit_equals_a_cold_computation(name):
    read, cold = VALUES[name]
    packages = _packages()
    assert len(packages) > 40
    for p in packages:
        first = read(p)
        info = duality._derive.cache_info()
        rebuilt = _rebuilt(p)
        assert duality._derive.cache_info().hits == info.hits + 1, p.dims
        assert rebuilt._entry is p._entry
        again = read(rebuilt)
        assert again is first
        assert _kept(again) == _kept(cold(p)), p.dims


def test_a_witness_report_read_from_the_memos_equals_a_cold_one():
    p, q = geometric_package(corpus("t34_staircase")), geometric_package(corpus("fig8_box"))
    cold = kernel_witnesses(p, q)
    # each knot's entry keeps its verdict, its stats, its families, and its
    # splice side and its witness images as its knot of the splice; the
    # first knot's keeps the pair's rank and witness values too, keyed on
    # the second knot's value, not on the second package
    kept = {(duality.verify_package,), (duality._stats,), (splice._family_parts,)}
    value = (q.dims, q.taus)
    pair = {(splice._pair_witnesses, *value), (splice._pair_rank, *value)}
    for r, side, extra in ((p, SIDES[0], pair), (q, SIDES[1], set())):
        assert set(_store(r)) == kept | {(splice._side, side), (splice._witness_images, side)} | extra
    stores = _store(p), _store(q)
    rebuilt = _rebuilt(p), _rebuilt(q)
    assert kernel_witnesses(*rebuilt) == cold
    # the warm report read every value from the entries and added none
    for store, r in zip(stores, rebuilt):
        assert r._entry.store.keys() == store.keys()
        assert all(r._entry.store[key] is value for key, value in store.items())


def test_a_caller_cannot_change_a_memo_value():
    p = geometric_package(corpus("t34_staircase"))
    cold = [_kept(cold(p)) for _, cold in VALUES.values()]
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
    kernel_dims, _ = _from_entry(p, duality._b_nullities)
    with pytest.raises(TypeError):
        kernel_dims["B0"] = 0
    entry = duality._derive(p.dims, p.taus)
    assert entry is p._entry
    with pytest.raises(TypeError):
        entry[0] = entry[1]
    with pytest.raises(AttributeError):
        entry.blocks = ()
    with pytest.raises(ShapeMismatch, match="immutable"):
        p._entry = None
    blocks, xs, fs = entry[:3]
    with pytest.raises(TypeError):
        blocks[0] = blocks[1]
    with pytest.raises(AttributeError):
        blocks[0].A = blocks[0].D
    for m in (blocks[1].B, xs[1], fs[0], side.factors[0]):
        with pytest.raises(ShapeMismatch):
            m.rows = 0
        with pytest.raises(ShapeMismatch):
            del m.cols
    assert [_kept(read(p)) for read, _ in VALUES.values()] == cold


@pytest.mark.parametrize("name", VALUES)
def test_one_package_past_the_bound_evicts_the_oldest(name):
    read, _ = VALUES[name]
    packages = list(dict.fromkeys(synthetic_package(seed, (2, 3, 2)) for seed in range(PACKAGE_MEMO_SIZE + 1)))
    assert len(packages) == PACKAGE_MEMO_SIZE + 1
    info = duality._derive.cache_info()
    # building the packages made their entries; the first was evicted
    assert (info.misses, info.currsize, info.maxsize) == (PACKAGE_MEMO_SIZE + 1, PACKAGE_MEMO_SIZE, PACKAGE_MEMO_SIZE)
    values = [read(p) for p in packages]
    kept = _rebuilt(packages[1])  # the second oldest is kept: its values with it
    assert kept._entry is packages[1]._entry and read(kept) is values[1]
    info = duality._derive.cache_info()
    again = _rebuilt(packages[0])  # the oldest was evicted: its values with it
    assert duality._derive.cache_info().misses == info.misses + 1
    assert again._entry is not packages[0]._entry and again._entry.store == {}
    value = read(again)
    assert _kept(value) == _kept(values[0]) and value is not values[0]


def test_a_package_survives_copy_and_pickle_after_its_values_are_read():
    # the store holds mapping proxies, which cannot be copied: a copy is
    # rebuilt from the six defining fields, and so shares the entry
    p = geometric_package(corpus("t34_staircase"))
    report = kernel_witnesses(p, p)
    for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert again == p and again is not p
        assert again._entry is p._entry
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


def test_a_read_that_returns_none_runs_once_per_entry():
    p = geometric_package(corpus("t34_staircase"))
    calls = []

    def returns_none(q):
        calls.append(q)

    for q in (p, _rebuilt(p), p):
        assert _from_entry(q, returns_none) is None
    assert calls == [p]  # a kept None is a hit
    assert _store(p)[(returns_none,)] is None
    duality._derive.cache_clear()
    again = _rebuilt(p)
    assert _from_entry(again, returns_none) is None
    assert calls == [p, again]  # a fresh entry computes it afresh


def test_verify_package_runs_once_per_value(monkeypatch):
    runs = []
    verify = duality.verify_package

    def counted(p):
        runs.append(p)
        verify(p)

    monkeypatch.setattr(duality, "verify_package", counted)
    c = corpus("t34_staircase")
    p = geometric_package(c)
    assert runs == [p]
    # an equal complex, another object, reads the verdict of p's value
    assert geometric_package(corpus("t34_staircase")) == p
    # so does an equal package built by hand, from taus that are other objects
    taus = [Gf2Matrix(t.rows, t.cols, t.row_bits) for t in p.taus]
    q = SurgeryPackage(*p.dims, *taus)
    assert q._entry is p._entry and _from_entry(q, duality.verify_package) is None
    # and so does normalize of another basis of that knot, whose taus are
    # other objects
    triple = total_package(c)
    basis = normal_basis(triple.totals, build_tau(c, triple))
    assert basis is not duality._BUILT[c] and basis.taus[0] is not p.tau0
    assert normalize(basis) == p
    assert runs == [p]
    # an evicted entry takes the verdict with it
    duality._derive.cache_clear()
    assert geometric_package(c) == p
    assert runs == [p, p]
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
    # the derivations serve the second build, and verify_package still runs.
    # No basis can carry a bad tau to normalize (see
    # test_a_forged_normal_basis_cannot_reach_normalize), so the package is
    # built and its verdict read as normalize builds and reads them
    c = corpus("t34_staircase")
    triple = total_package(c)
    basis = normal_basis(triple.totals, build_tau(c, triple))
    tau0 = basis.taus[0]
    flipped = Gf2Matrix(tau0.rows, tau0.cols, (tau0.row_bits[0] ^ 1,) + tau0.row_bits[1:])
    for build in range(2):
        info = duality._derive.cache_info()
        p = SurgeryPackage(*basis.dims, flipped, *basis.taus[1:])
        assert duality._derive.cache_info().hits == info.hits + build, build
        with pytest.raises(NormalizationFailure, match="tau0"):
            _from_entry(p, duality.verify_package)
    # a tau of the wrong size fails before the lookup can keep anything
    for _ in range(2):
        with pytest.raises(NormalizationFailure, match="expected"):
            SurgeryPackage(*basis.dims, Gf2Matrix.identity(tau0.rows - 1), *basis.taus[1:])


def test_a_forged_normal_basis_cannot_reach_normalize():
    # only normal_basis makes a NormalBasis, after checking the tau
    # relations, so normalize checks a basis by its type alone
    c = corpus("t34_staircase")
    p = geometric_package(c)
    basis = duality._BUILT[c]
    tau0 = basis.taus[0]
    flipped = Gf2Matrix(tau0.rows, tau0.cols, (tau0.row_bits[0] ^ 1,) + tau0.row_bits[1:])
    forgeries = {
        "constructor": lambda: duality.NormalBasis(basis.dims, (flipped, *basis.taus[1:])),
        "keywords": lambda: duality.NormalBasis(dims=basis.dims, taus=basis.taus),
        "token": lambda: duality.NormalBasis(basis.dims, basis.taus, object()),
    }
    for name, forge in forgeries.items():
        with pytest.raises(SpliceRankError, match="made by normal_basis") as info:
            forge()
        assert info.type is ShapeMismatch, name
    for bad in (basis.taus, (basis.dims, basis.taus)):
        with pytest.raises(ShapeMismatch):
            normalize(bad)
    # nor can a basis that normal_basis made be changed, or copied field by
    # field past its constructor
    for name in ("dims", "taus"):
        with pytest.raises(ShapeMismatch, match="immutable"):
            setattr(basis, name, getattr(basis, name))
        with pytest.raises(ShapeMismatch, match="immutable"):
            delattr(basis, name)
    with pytest.raises(ShapeMismatch, match="immutable"):
        copy.copy(basis)
    assert duality._BUILT[c] is basis and basis.taus[0] is tau0
    assert normalize(basis) == p


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
    before = duality._derive.cache_info(), _store(p)
    with pytest.raises(ShapeMismatch) as info:
        call(p, bad)
    assert info.type is ShapeMismatch
    assert (duality._derive.cache_info(), _store(p)) == before


def test_a_second_build_D_of_the_same_pair_makes_no_product(monkeypatch):
    knots = [corpus(name) for name in corpus_names()]
    first = {(a.name, b.name): build_D(geometric_package(a), geometric_package(b)) for a in knots for b in knots}
    packages = {c.name: geometric_package(c) for c in knots}  # equal packages, other objects
    counts = Counter()
    real = Gf2Matrix.__matmul__

    def counted(*args):
        counts["@"] += 1
        return real(*args)

    monkeypatch.setattr(Gf2Matrix, "__matmul__", counted)
    for (n1, n2), d in first.items():
        assert build_D(packages[n1], packages[n2]) == d
    assert counts == Counter()
    # each knot's entry holds its side as either knot, made once each
    for p in packages.values():
        assert {key for key in p._entry.store if key[0] is splice._side} == {(splice._side, side) for side in SIDES}
