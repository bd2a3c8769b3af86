"""Duality maps, normalization, block axioms, stats, synthetic packages."""

from __future__ import annotations

import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicerank import duality
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import (
    CYCLE,
    SurgeryPackage,
    _geometric_tau,
    build_tau,
    geometric_package,
    normal_basis,
    normalize,
    stats,
    verify_package,
)
from splicerank.errors import NormalizationFailure, NotQuasiIso, ShapeMismatch, TauRelationFailure
from splicerank.gf2 import BlockGrid, Gf2Matrix
from splicerank.homology import HomologySpace
from splicerank.model import BifilteredComplex, Generator, TauOverride, flip_map, random_complex, replace
from splicerank.splice import splice_rank, subspace_bounds, theorem_check
from splicerank.surgery import MappingCone, SurgeryTriple, total_package

from oracles import (
    oracle_models,
    reachable,
    reference_geometric_tau,
    reference_normalize,
    reference_package_parts,
    reference_pair_dims,
    reference_verify_package,
    submatrix,
    torus_staircase,
)
from packages import apply_admissible, derived_fbars, direct_sum, own_packages, random_admissible, synthetic_package


def test_unknot_package_dims_and_blocks():
    p = geometric_package(corpus("unknot"))
    assert p.dims == (1, 0, 0)
    assert (p.tau0.rows, p.tau0.cols) == (0, 0)
    assert p.tau1 == Gf2Matrix.identity(1)
    assert p.tau_inf == Gf2Matrix.identity(1)
    assert [(b.B.rows, b.B.cols) for b in p.blocks] == [(0, 0), (1, 0), (0, 1)]


def test_trefoil_package_verifies():
    p = geometric_package(corpus("trefoil_staircase"))
    assert p.dims == (1, 2, 2)
    verify_package(p)
    assert p.fs[2].rank() == 2
    assert (p.xs[1] @ p.xs[1]).is_zero()


def test_singular_tau_fails_verification_as_a_normalization_failure():
    p = geometric_package(corpus("trefoil_staircase"))
    singular = replace(p, tau1=Gf2Matrix(p.tau1.rows, p.tau1.cols))
    with pytest.raises(NormalizationFailure, match="tau1 is singular"):
        verify_package(singular)


def test_a_tau_of_the_wrong_size_fails_as_a_normalization_failure():
    # tau1 of the trefoil is 3x3: a 2x2 one once read its blocks past the
    # matrix's edge and failed with an IndexError
    p = geometric_package(corpus("trefoil_staircase"))
    with pytest.raises(NormalizationFailure, match="tau1 is 2x2, expected 3x3"):
        verify_package(replace(p, tau1=Gf2Matrix.identity(2)))


def test_replace_derives_blocks_and_x_products_afresh():
    p = geometric_package(corpus("t34_staircase"))
    q = apply_admissible(p, random_admissible(0, p.dims))
    assert q.blocks[1] != p.blocks[1]
    assert replace(p, tau1=q.tau1).blocks[1] == q.blocks[1]
    assert replace(p, tau0=q.tau0, tau1=q.tau1, tau_inf=q.tau_inf).xs[1] == q.xs[1]


@pytest.mark.parametrize(
    "name, message",
    [
        ("tau0", "barred-map relations fail for: fbar1, fbar_inf"),
        ("tau1", "barred-map relations fail for: fbar0, fbar_inf"),
        ("tau_inf", "barred-map relations fail for: fbar0, fbar1"),
    ],
)
def test_each_barred_relation_reads_its_own_taus(name, message):
    # fbar_k = tau_prev(k)^-1 f_k tau_next(k): a wrong prev or next in the
    # index cycle changes which relations a replaced tau breaks
    c = corpus("trefoil_staircase")
    t = total_package(c)
    taus = dict(zip(("tau0", "tau1", "tau_inf"), build_tau(c, t)))
    taus[name] = Gf2Matrix.identity(taus[name].rows)
    with pytest.raises(TauRelationFailure) as failure:
        normal_basis(t.totals, build_tau(replace(c, tau_override=TauOverride(**taus)), t))
    assert str(failure.value) == message


geometric_packages = st.sampled_from(
    [c for c in oracle_models() if c.symmetry is not None or c.tau_override is not None]
).map(geometric_package)
synthetic_packages = st.tuples(
    st.integers(0, 100), st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
).map(lambda args: synthetic_package(*args))
base_packages = geometric_packages | synthetic_packages
packages = (
    base_packages
    | st.builds(direct_sum, base_packages, base_packages)
    | st.builds(lambda p, seed: apply_admissible(p, random_admissible(seed, p.dims)), base_packages, st.integers(0, 1000))
)


@settings(max_examples=60)
@given(packages)
def test_derived_fields_match_the_per_index_reference(p):
    want = reference_package_parts(p)
    assert {name: getattr(p, name) for name in want} == want


@settings(max_examples=60)
@given(packages)
def test_derived_fbars_satisfy_the_relations_verify_package_leaves_out(p):
    # verify_package does not check the barred maps: the derived fbar_k
    # meets its duality relation, and the barred triangle is exact, for
    # every package (see its docstring)
    taus, fs, fbars = p.taus, p.fs, derived_fbars(p)
    ranks = [fbar.rank() for fbar in fbars]
    for k, (_, _, prev, nxt) in enumerate(CYCLE):
        assert taus[prev] @ fbars[k] == fs[k] @ taus[nxt]
        assert (fbars[k] @ fbars[prev]).is_zero()
        assert ranks[k] + ranks[prev] == taus[nxt].rows


@settings(max_examples=60)
@given(packages)
def test_stats_reads_the_derived_fbars_through_the_taus(p):
    # stats never forms fbar_k; its k, l, c and d are those of f_k and the
    # derived fbar_k themselves
    want = zip(*map(reference_pair_dims, p.fs, derived_fbars(p)))
    st = stats(p)
    got = [(st.k0, st.k1, st.k_inf), (st.l0, st.l1, st.l_inf), (st.c0, st.c1, st.c_inf), (st.d0, st.d1, st.d_inf)]
    assert got == list(want)


def _verdict(verify, p) -> str | None:
    """The first failure verify reports for p, or None if p passes."""
    try:
        verify(p)
    except NormalizationFailure as exc:
        return str(exc)
    return None


def _flipped(m: Gf2Matrix, r: int, c: int) -> Gf2Matrix:
    bits = list(m.row_bits)
    bits[r] ^= 1 << c
    return Gf2Matrix(m.rows, m.cols, bits)


@settings(max_examples=60)
@given(packages)
def test_verify_package_agrees_with_the_reference(p):
    assert _verdict(verify_package, p) is None
    assert _verdict(reference_verify_package, p) is None


def test_verify_package_rejects_each_bit_flip_as_the_reference_does():
    # every single-bit change to a tau of a small package and of every
    # corpus package: the tau^2 + I test accepts and rejects the same
    # packages, with the same first failure, as the reference, which
    # inverts each tau and cuts every block out
    small = [geometric_package(corpus(name)) for name in ("trefoil_staircase", "trefoil_staircase_mirror", "fig8_box")]
    small += [geometric_package(random_complex(2))]
    small += [synthetic_package(seed, dims) for seed, dims in enumerate([(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1)])]
    small += [direct_sum(small[0], small[4]), apply_admissible(small[2], random_admissible(3, small[2].dims))]
    small += [geometric_package(corpus(name)) for name in corpus_names()]
    seen = Counter()
    for p in small:
        for name in ("tau0", "tau1", "tau_inf"):
            m = getattr(p, name)
            for r, c in product(range(m.rows), range(m.cols)):
                q = replace(p, **{name: _flipped(m, r, c)})
                got = _verdict(verify_package, q)
                assert got == _verdict(reference_verify_package, q), (p.dims, name, r, c)
                seen[" ".join(got.split()[1:3]) if got else None] += 1
    # the flips reach a singular tau, an inverse with other blocks and an X
    # that does not square to zero, and some keep a valid package
    assert set(seen) == {"is singular:", "inverse does", "does not", None}


@st.composite
def random_tau_packages(draw):
    """A package of random dims whose taus are random square matrices:
    dense (mostly singular or with other inverse blocks), the identity
    plus random C-block bits (always valid), or the identity plus bits
    anywhere."""
    dims = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    taus = []
    for _, _, prev, nxt in CYCLE:
        top, n = dims[prev], dims[prev] + dims[nxt]
        kind = draw(st.sampled_from(["dense", "c-block", "near-identity"]))
        rows = []
        for i in range(n):
            if kind == "dense":
                rows.append(draw(st.integers(0, (1 << n) - 1)))
            elif kind == "c-block":
                rows.append((1 << i) ^ (draw(st.integers(0, (1 << top) - 1)) if i >= top else 0))
            else:
                rows.append((1 << i) ^ ((1 << draw(st.integers(0, n - 1))) if draw(st.booleans()) else 0))
        taus.append(Gf2Matrix(n, n, rows))
    return SurgeryPackage(*dims, *taus)


@settings(max_examples=300)
@given(random_tau_packages())
def test_tau_squared_criterion_agrees_with_the_reference_on_random_taus(p):
    assert _verdict(verify_package, p) == _verdict(reference_verify_package, p)
    # verify_package leaves B F = 0 out: tau commutes with tau^2, so it
    # holds whenever tau^2 + I is (0 0; F 0)
    for (_, _, prev, _), tau in zip(CYCLE, p.taus):
        top, n = p.dims[prev], tau.rows
        s = tau @ tau + Gf2Matrix.identity(n)
        if submatrix(s, range(n), range(top, n)).is_zero() and submatrix(s, range(top), range(n)).is_zero():
            assert (submatrix(tau, range(top), range(top, n)) @ submatrix(s, range(top, n), range(top))).is_zero()


def test_a_one_bit_change_to_a_total_f_fails_normalization():
    # a flipped f breaks the barred-map relations, which normal_basis checks
    # against the very totals it builds the basis from: every flip is
    # rejected there, so no basis exists to build a package from
    flips = 0
    for c in [corpus(name) for name in ("trefoil_staircase", "fig8_box", "t25_staircase")] + [random_complex(2)]:
        triple = total_package(c)
        totals, maps = triple.totals, build_tau(c, triple)
        for k, m in enumerate(totals.fs):
            for r, col in product(range(m.rows), range(m.cols)):
                fs = list(totals.fs)
                fs[k] = _flipped(m, r, col)
                bad = totals._replace(fs=tuple(fs))
                with pytest.raises(TauRelationFailure, match="barred-map relations fail"):
                    normal_basis(bad, maps)
                flips += 1
    assert flips == 276


def test_block_shapes_across_corpus():
    for name in corpus_names():
        p = geometric_package(corpus(name))
        shapes = [(b.B.rows, b.B.cols) for b in p.blocks]
        assert shapes == [(p.a_inf, p.a1), (p.a0, p.a_inf), (p.a1, p.a0)], name


def test_nontrivial_knots_have_nontrivial_x_kernel():
    for name in corpus_names():
        if name == "unknot":
            continue
        p = geometric_package(corpus(name))
        assert len(p.xs[1].kernel_basis()) > 0, name
        assert len(p.xs[1].transpose().kernel_basis()) > 0, name


def test_tau_override_rejected_when_inconsistent():
    c = corpus("trefoil_staircase")
    t = total_package(c)
    bad = TauOverride(*(Gf2Matrix.identity(n) for n in t.totals.dims))
    with pytest.raises(TauRelationFailure):
        normal_basis(t.totals, build_tau(replace(c, tau_override=bad), t))


def test_tau_override_accepted_when_consistent():
    c = corpus("trefoil_staircase")
    t = total_package(c)
    maps = build_tau(c, t)
    again = replace(c, tau_override=TauOverride(*maps))
    forced = build_tau(again, t)
    assert forced == maps and forced[0] is again.tau_override.tau0
    p = normalize(normal_basis(t.totals, forced))
    verify_package(p)


def test_build_tau_takes_an_override_as_given(monkeypatch):
    # with an override, the maps are not built from the symmetry as well:
    # no level map is induced, where the geometric maps induce one per level
    c = corpus("t34_staircase")
    t = total_package(c)
    maps = build_tau(c, t)
    both = replace(c, tau_override=TauOverride(*maps))
    assert both.symmetry is not None
    counts = Counter()
    real = duality.induced_by_columns

    def counted(*args):
        counts["induced_by_columns"] += 1
        return real(*args)

    monkeypatch.setattr(duality, "induced_by_columns", counted)
    assert build_tau(both, t) == maps
    assert counts["induced_by_columns"] == 0
    assert build_tau(c, t) == maps
    assert counts["induced_by_columns"] > 0


def test_stats_formula_instance_and_unknot():
    p = geometric_package(corpus("unknot"))
    st = stats(p)
    assert (st.k_inf, st.l_inf, st.d_inf, st.c_inf) == (0, 0, 0, 1)
    assert st.y_inf == 1


def test_trefoil_stats_hand_values():
    st = stats(geometric_package(corpus("trefoil_staircase")))
    assert (st.a0, st.a1, st.a_inf) == (1, 2, 2)
    assert st.r0 == 2  # B0 invertible since E_1 vanishes
    assert st.r1 == 1  # B1 surjective since E_0 vanishes
    assert st.k0 == st.a_inf - st.r1 == 1
    assert st.c_inf == st.a0 - st.r1 == 0
    assert st.y_inf == 1


def test_y_inf_is_one_on_all_corpus_knots():
    # every corpus model presents a knot in the three-sphere
    for name in corpus_names():
        assert stats(geometric_package(corpus(name))).y_inf == 1, name


def test_stats_cross_consistency_relation():
    for name in ("trefoil_staircase", "fig8_box", "t25_staircase"):
        st = stats(geometric_package(corpus(name)))
        assert st.d0 - st.l0 == st.r_inf - st.r1
        assert st.d1 - st.l1 == st.r0 - st.r_inf
        assert st.d_inf - st.l_inf == st.r1 - st.r0


def test_admissible_change_preserves_stats():
    for name in ("trefoil_staircase", "fig8_box", "t34_staircase"):
        p = geometric_package(corpus(name))
        before = stats(p)
        for seed in range(3):
            q = apply_admissible(p, random_admissible(seed, p.dims))
            assert stats(q) == before


def test_admissible_change_preserves_f_forms():
    p = geometric_package(corpus("t25_staircase"))
    q = apply_admissible(p, random_admissible(9, p.dims))
    assert q.fs == p.fs


def test_synthetic_unknot_dims_unique():
    p = synthetic_package(0, (1, 0, 0))
    q = geometric_package(corpus("unknot"))
    assert p.tau1 == q.tau1 and p.tau_inf == q.tau_inf and p.tau0 == q.tau0


@pytest.mark.parametrize(
    "dims",
    [(1.0, 1, 1), (-1, 1, 1), (1, 1, -2), (1, 1), (1, 1, 1, 1), [1, 1, 1], (1, None, 1), (True, 0, 0)],
    ids=["float", "negative", "negative-last", "two", "four", "list", "none", "bool"],
)
def test_synthetic_package_rejects_bad_dims(dims):
    with pytest.raises(ShapeMismatch, match="not three nonnegative ints") as info:
        synthetic_package(0, dims)
    assert info.type is ShapeMismatch


def test_synthetic_determinism():
    a = synthetic_package(42, (2, 3, 3))
    b = synthetic_package(42, (2, 3, 3))
    assert a.tau0 == b.tau0 and a.tau1 == b.tau1 and a.tau_inf == b.tau_inf


def test_synthetic_samples_pass_invariants():
    count = 0
    for seed in range(60):
        dims = (1 + seed % 3, (seed // 3) % 4, (seed // 12) % 4)
        p = synthetic_package(seed, dims)
        verify_package(p)
        st = stats(p)
        assert st.y_inf == st.k_inf + st.l_inf + st.c_inf + st.d_inf
        count += 1
    assert count == 60


def test_random_complex_packages_verify():
    for seed in range(6):
        c = random_complex(seed)
        p = geometric_package(c)
        verify_package(p)
        stats(p)


def test_geometric_tau_is_involution():
    # the chain-level construction squares to the identity on homology
    for name in ("trefoil_staircase", "fig8_box", "t35_staircase"):
        c = corpus(name)
        t = total_package(c)
        for m in build_tau(c, t):
            assert m @ m == Gf2Matrix.identity(m.rows), name


def test_geometric_tau_matches_label_matrix_route_on_oracle_models():
    checked = 0
    for c in oracle_models():
        if c.symmetry is None:
            continue
        triple = SurgeryTriple(c)
        assert _geometric_tau(c, triple) == reference_geometric_tau(c, triple), c.name
        checked += 1
    assert checked >= 30


def test_normalize_matches_the_greedy_complement_reference():
    # another complement of Im f0 or of a kernel gives another valid normal
    # form with the same h, so only a bit-for-bit reference pins the choice.
    # Seeds 24 and 84 are the random models below 200 whose Im f0 is
    # completed differently by its lowest bits than by its highest.
    knots = [c for c in oracle_models() if c.symmetry is not None or c.tau_override is not None]
    knots += [torus_staircase(4, 7), torus_staircase(5, 6), random_complex(24), random_complex(84)]
    for c in knots:
        triple = total_package(c)
        totals, maps = triple.totals, build_tau(c, triple)
        p = normalize(normal_basis(totals, maps))
        want, fbars = reference_normalize(totals, maps)
        assert p == want, c.name
        # fbar_k derived from the normal form is the conjugated total fbar_k
        assert tuple(derived_fbars(p)) == fbars, c.name
    assert len(knots) >= 42


# -- the per-complex memo of geometric_package --------------------------------


@pytest.fixture
def memo():
    """A fresh, empty memo of the module's own kind for the test."""
    with own_packages() as fresh:
        yield fresh


def _count_calls(monkeypatch, names) -> Counter:
    counts = Counter()
    for name in names:
        def counted(*args, _real=getattr(duality, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(duality, name, counted)
    return counts


def test_memo_hit_equals_a_cold_build_and_still_normalizes(memo, monkeypatch):
    c = corpus("t34_staircase")
    # counted from the cold build on: the verdict is kept under the name
    # verify_package has when normalize reads it
    counts = _count_calls(monkeypatch, ("total_package", "build_tau", "normal_basis", "normalize", "verify_package"))
    cold = geometric_package(c)
    assert len(memo) == 1
    assert counts["verify_package"] == 1
    counts.clear()
    warm = geometric_package(corpus("t34_staircase"))  # equal, but another object
    # the knot's one package, verified once when normal_basis built it
    assert warm is cold
    assert counts == {"normalize": 1}


@pytest.mark.parametrize("bad", [None, "t34_staircase", Gf2Matrix.identity(1)], ids=["none", "name", "matrix"])
def test_a_package_of_something_else_is_a_typed_error(memo, bad):
    with pytest.raises(ShapeMismatch, match="not a BifilteredComplex") as info:
        geometric_package(bad)
    assert info.type is ShapeMismatch
    assert len(memo) == 0


def test_memo_entry_dies_with_its_complex(memo):
    # and with it the knot's package and every value read from it
    c = random_complex(5)
    p = geometric_package(c)
    theorem_check(p, p), subspace_bounds(p, p)
    assert len(memo) == 1
    package = weakref.ref(p)
    del c, p
    gc.collect()
    assert len(memo) == 0 and package() is None


def test_complexes_differing_only_in_override_flip_or_symmetry_do_not_share(memo):
    c = corpus("trefoil_staircase")
    override = TauOverride(*build_tau(c, total_package(c)))
    flip = flip_map(c).matrix
    variants = [
        c,
        replace(c, tau_override=override),
        replace(c, flip=flip),
        replace(c, flip=flip, tau_override=override),
        replace(c, symmetry=None, flip=flip, tau_override=override),
    ]
    for v in variants:
        geometric_package(v)
    assert len(memo) == len(variants)
    # the last two differ only in the symmetry, which the hash leaves out
    assert hash(variants[3]) == hash(variants[4])
    assert memo[variants[3]] is not memo[variants[4]]


def test_a_build_that_raises_caches_nothing(memo):
    bad_flip = BifilteredComplex("bad-flip", (Generator("e", 0),), (), None, Gf2Matrix(1, 1))
    c = corpus("trefoil_staircase")
    t = total_package(c)
    singular = TauOverride(*(Gf2Matrix(n, n) for n in t.totals.dims))
    for _ in range(2):
        with pytest.raises(NotQuasiIso):
            geometric_package(bad_flip)
        with pytest.raises(TauRelationFailure):
            geometric_package(replace(c, tau_override=singular))
    assert len(memo) == 0


def test_complex_is_immutable_and_hashes_by_content():
    c = corpus("trefoil_staircase")
    with pytest.raises(TypeError):
        c.symmetry["a"] = "a"
    sigma = dict(c.symmetry)
    d = BifilteredComplex(c.name, list(c.generators), list(c.arrows), sigma)
    sigma["a"] = "a"  # the complex keeps its own copy
    assert d == c and hash(d) == hash(c)
    assert isinstance(d.generators, tuple) and isinstance(d.arrows, tuple)


def test_a_complex_keeps_its_hash_and_a_copy_does_not():
    c = corpus("trefoil_staircase")
    h = hash(c)
    assert c.__dict__["_hash"] == h == hash(c)
    for again in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert again == c and "_hash" not in again.__dict__
        assert hash(again) == h and again.symmetry == c.symmetry


_PICKLE_SCRIPT = """
import pickle, sys
from splicerank import duality
from splicerank.corpus import corpus

path = sys.argv[1]
if sys.argv[2] == "dump":
    c = corpus("t34_staircase")
    duality.geometric_package(c)  # hashes c, into the memo
    with open(path, "wb") as f:
        pickle.dump((hash(c), c), f)
else:
    equal = corpus("t34_staircase")
    p = duality.geometric_package(equal)
    with open(path, "rb") as f:
        old_hash, c = pickle.load(f)
    if old_hash == hash(equal):
        sys.exit("the two processes hash a complex alike")
    if duality._BUILT.get(c) is not duality._BUILT[equal]:
        sys.exit("the loaded complex misses the entry of an equal one")
    if duality.geometric_package(c) != p or len(duality._BUILT) != 1:
        sys.exit("the loaded complex made an entry of its own")
    print("ok")
"""


def test_a_complex_pickled_in_another_process_hits_an_equal_entry(tmp_path):
    # a str hashes differently in another process, so a complex's hash must
    # not travel with it
    src = str(Path(duality.__file__).parent.parent)
    path = str(tmp_path / "complex.pickle")
    for seed, step in (("1", "dump"), ("2", "load")):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, path, step], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_a_non_int_grading_does_not_hit_an_equal_entry(memo):
    # a grading of 0.0 or False would make a complex equal to good: it
    # cannot be built, so it never reaches the memo
    good = BifilteredComplex("e", (Generator("e", 0),), (), {"e": "e"})
    geometric_package(good)
    for value in (0.0, False):
        assert Generator("e", value) == Generator("e", 0)
        with pytest.raises(ShapeMismatch, match="not an int"):
            BifilteredComplex("e", (Generator("e", value),), (), {"e": "e"})
    assert list(memo) == [good]


def test_memo_keeps_only_totals_and_tau_maps(memo):
    # of a knot's cold build the memo keeps only what normal_basis made from
    # its totals and tau maps: the basis and the package it holds, with
    # every value read from the package.  The check path fills each store,
    # with its stats, B nullities, splice sides, witness data and pair
    # values, and still no entry reaches a complex, a cold-path object or
    # another knot's package
    knots = [corpus(name) for name in ("t34_staircase", "fig8_box", "trefoil_staircase")]
    packages = [geometric_package(c) for c in knots]
    for p, q in product(packages, repeat=2):
        theorem_check(p, q), subspace_bounds(p, q)
    assert len(memo) == len(knots)
    for c, p in zip(knots, packages):
        held = list(reachable(memo[c]))
        assert not [x for x in held if isinstance(x, (SurgeryTriple, MappingCone, HomologySpace, BifilteredComplex))]
        assert [x for x in held if isinstance(x, SurgeryPackage)] == [p]
        # stats, B nullities, families, and sides and images as either
        # knot; and the rank, witness and bounds values of each pair it leads
        assert len(p._store) == 7 + 3 * len(knots)


def test_triple_of_another_complex_is_rejected(memo):
    t = total_package(corpus("trefoil_staircase"))
    other = corpus("t25_staircase")
    with pytest.raises(ShapeMismatch):
        geometric_package(other, t)
    assert len(memo) == 0
    same = corpus("trefoil_staircase")  # equal to the triple's complex, so accepted
    geometric_package(same, t)
    assert len(memo) == 1


def test_second_pass_over_all_pairs_builds_no_knot(memo, monkeypatch):
    knots = [corpus(name) for name in corpus_names()] + [random_complex(seed) for seed in range(6)]

    def one_pass():
        return [splice_rank(geometric_package(a), geometric_package(b)).h for a, b in product(knots, repeat=2)]

    first = one_pass()
    counts = _count_calls(monkeypatch, ("total_package", "build_tau", "normal_basis", "normalize"))
    assert one_pass() == first
    assert counts == {"normalize": 2 * len(knots) ** 2} == {"normalize": 512}


def test_warm_geometric_package_operation_budget(memo, monkeypatch):
    # a warm call returns the knot's one package: no package is constructed,
    # no basis is built or inverted, no tau is cut, inverted, conjugated or
    # squared, no fbar map is built, and no operation may exceed these counts
    ceiling = {
        "__post_init__": 0,
        "__matmul__": 0,
        "inverse": 0,
        "transpose": 0,
        "from_columns": 0,
        "pivot_columns": 0,
        "rank": 0,
        "kernel_basis": 0,
        "cut_blocks": 0,
        "assemble": 0,
    }
    knots = [corpus(name) for name in ("trefoil_staircase", "t34_staircase", "fig8_box")]
    cold = [geometric_package(c) for c in knots]
    counts = Counter()
    others = {"__post_init__": SurgeryPackage, "assemble": BlockGrid, "cut_blocks": duality}
    counted_ops = [(others.get(name, Gf2Matrix), name) for name in ceiling]
    for owner, name in counted_ops:
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for c, p in zip(knots, cold):
        counts.clear()
        assert geometric_package(c) is p
        assert {name: n for name, n in counts.items() if n > ceiling[name]} == {}, c.name
        assert counts["__matmul__"] == 0, c.name
    # the wrappers count: a package built by hand is constructed and derives
    # its X products afresh, 2 products each, and verify_package checks it
    # in full, 3 for tau^2 and 3 for X^2
    counts.clear()
    verify_package(SurgeryPackage(*cold[1].dims, *cold[1].taus))
    assert (counts["__post_init__"], counts["__matmul__"]) == (1, 12)
