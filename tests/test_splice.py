"""Splice matrix assembly, rank identities, witnesses, cases, bounds."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicerank import splice
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import (
    apply_admissible,
    direct_sum,
    geometric_package,
    random_admissible,
    stats,
    synthetic_package,
)
from splicerank.errors import WitnessNotInKernel
from splicerank.filtration import profile
from splicerank.gf2 import Gf2Matrix
from splicerank.model import hf_hat, random_complex
from splicerank.splice import (
    build_D,
    classify_S,
    kernel_witnesses,
    mirror_invariance,
    splice_rank,
    subspace_bounds,
    theorem_check,
    witness_data,
)

from oracles import assemble_witness, basis_tuples, mul_vec, reference_kernel_witnesses


def pkg(name: str):
    return geometric_package(corpus(name))


def test_unknot_pair_gives_one_by_zero_matrix():
    d = build_D(pkg("unknot"), pkg("unknot"))
    assert (d.matrix.rows, d.matrix.cols) == (1, 0)
    assert d.col_block_dims == (0, 0, 0, 0, 0, 0)
    assert sum(d.row_block_dims) == 1


def test_unknot_identity_h():
    assert splice_rank(pkg("unknot"), pkg("unknot")).h == 1


def test_trefoil_unknot_shape_audit_and_h():
    d = build_D(pkg("trefoil_staircase"), pkg("unknot"))
    assert d.matrix.rows == sum(d.row_block_dims)
    assert d.matrix.cols == sum(d.col_block_dims)
    assert splice_rank(pkg("trefoil_staircase"), pkg("unknot")).h == 1


def test_meridian_filling_identity_entire_corpus():
    # splicing with the trivial knot returns the ambient manifold
    u = pkg("unknot")
    for name in corpus_names():
        c = corpus(name)
        got = splice_rank(geometric_package(c), u).h
        assert got == hf_hat(c).dim, name
        # and in the other slot
        assert splice_rank(u, geometric_package(c)).h == hf_hat(c).dim, name


def test_row_column_imbalance_odd_on_corpus_pairs():
    # the parity relation makes the row/column deficit odd (hence h odd);
    # it equals one only for small knots, e.g. any pair involving the unknot
    packs = {name: pkg(name) for name in ("unknot", "trefoil_staircase", "fig8_box", "t25_staircase")}
    for n1 in packs:
        for n2 in packs:
            d = build_D(packs[n1], packs[n2])
            diff = sum(d.col_block_dims) - sum(d.row_block_dims)
            assert diff % 2 == 1 or diff % 2 == -1
            if "unknot" in (n1, n2):
                assert abs(diff) == 1


def test_trefoil_trefoil_h_odd_at_least_three():
    r = splice_rank(pkg("trefoil_staircase"), pkg("trefoil_staircase"))
    assert r.h % 2 == 1
    assert r.h >= 3


def test_h_odd_on_geometric_pairs():
    names = ("unknot", "trefoil_staircase", "trefoil_staircase_mirror", "fig8_box", "t34_staircase")
    packs = [pkg(n) for n in names]
    for p1 in packs:
        for p2 in packs:
            assert splice_rank(p1, p2).h % 2 == 1


def test_witnesses_annihilated_trefoil_pair():
    report = kernel_witnesses(pkg("trefoil_staircase"), pkg("trefoil_staircase"))
    assert report.nonzero > 0
    assert report.bounds_hold
    assert report.witness_span <= report.ker_dim


def test_witness_bounds_unknot_pair():
    report = kernel_witnesses(pkg("unknot"), pkg("unknot"))
    # only the cokernel side contributes: c_inf * c_inf = 1
    assert report.ker_bound == 0
    assert report.coker_bound == 1
    assert report.ker_dim == 0 and report.coker_dim == 1


def test_witness_bounds_geometric_pairs():
    names = ("trefoil_staircase", "fig8_box", "t25_staircase", "t34_staircase_mirror")
    packs = [pkg(n) for n in names]
    for p1 in packs:
        for p2 in packs:
            assert kernel_witnesses(p1, p2).bounds_hold


def test_witness_bounds_synthetic_pairs():
    for seed in range(25):
        p1 = synthetic_package(seed, (1 + seed % 2, seed % 3, (seed // 3) % 3))
        p2 = synthetic_package(seed + 1000, (1 + (seed // 2) % 2, (seed // 5) % 3, seed % 3))
        assert kernel_witnesses(p1, p2).bounds_hold


def test_classify_S_paper_instances():
    from splicerank.duality import PackageStats

    def fake_stats(a, r):
        return PackageStats(
            a[0], a[1], a[2], r[0], r[1], r[2],
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        )

    assert classify_S(fake_stats((3, 1, 1), (1, 1, 1))).satisfied == ("S1",)
    case2 = classify_S(fake_stats((3, 3, 1), (1, 1, 2)))
    assert case2.s2 and "S2" in case2.satisfied
    # the displayed first condition degenerates to true on the trivial knot:
    # 0 <= 0 = 0 = 0 = 0 < 1, so the classifier reports S1 there
    assert classify_S(stats(pkg("unknot"))).satisfied == ("S1",)


def test_classify_S_matches_bruteforce_predicates():
    # independently written transcriptions of the five displayed conditions
    def brute(a0, a1, ai, r0, r1, ri):
        return (
            r0 <= r1 and r1 == ri and ri == a1 and a1 == ai and ai < a0,
            r0 == r1 and r1 == ai and ai <= ri and ai < a1 and ai < a0,
            r0 == ri and ri == a1 and a1 <= r1 and a1 < ai and a1 < a0,
            r0 == ai and ri == a0 and a1 >= a0 and a1 >= ai,
            r0 == a1 and r1 == a0 and ai >= a0 and ai >= a1,
        )

    from splicerank.duality import PackageStats

    import itertools

    for a0, a1, ai in itertools.product(range(4), repeat=3):
        for r0, r1, ri in itertools.product(range(4), repeat=3):
            st = PackageStats(
                a0, a1, ai, r0, r1, ri,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            )
            case = classify_S(st)
            assert (case.s1, case.s2, case.s3, case.s4, case.s5) == brute(
                a0, a1, ai, r0, r1, ri
            )


def test_subspace_bounds_on_pairs():
    packs = [pkg(n) for n in ("trefoil_staircase", "t25_staircase", "fig8_box")]
    for p1 in packs:
        for p2 in packs:
            for record in subspace_bounds(p1, p2):
                if record.hypothesis_met:
                    assert record.ker_ok, record
                    assert record.coker_ok, record


def test_subspace_bounds_reports_skips():
    records = subspace_bounds(pkg("unknot"), pkg("unknot"))
    assert any(not r.hypothesis_met for r in records)


def test_subspace_bounds_synthetic_case2():
    hit = 0
    for seed in range(40):
        p1 = synthetic_package(seed, (2, 1, 2))
        p2 = synthetic_package(seed + 500, (2, 1, 2))
        for record in subspace_bounds(p1, p2):
            if record.label.startswith("case2") and record.hypothesis_met:
                hit += 1
                assert record.ker_ok and record.coker_ok
    assert hit > 0


def test_theorem_trefoil_pair():
    verdict = theorem_check(
        pkg("trefoil_staircase"), pkg("trefoil_staircase"), profile(corpus("trefoil_staircase"))
    )
    assert verdict.applicable
    assert verdict.holds
    assert verdict.h >= 1
    assert verdict.witness_bounds_hold


def test_theorem_not_applicable_for_large_rank_companion():
    # a synthetic right-hand package with y_inf > 1 switches the verdict off
    for seed in range(40):
        p2 = synthetic_package(seed, (2, 3, 3))
        if stats(p2).y_inf > 1:
            verdict = theorem_check(pkg("trefoil_staircase"), p2)
            assert not verdict.applicable and verdict.holds is None
            return
    pytest.skip("no large-rank synthetic package found in the scan")


def test_splice_with_unknot_returns_y_inf_for_synthetic():
    u = pkg("unknot")
    for seed in (3, 7, 11):
        p1 = synthetic_package(seed, (2, 3, 3))
        assert splice_rank(p1, u).h == stats(p1).y_inf


def test_mirror_invariance_pairs():
    pairs = [
        ("unknot", "unknot"),
        ("trefoil_staircase", "trefoil_staircase"),
        ("fig8_box", "trefoil_staircase"),
        ("t25_staircase", "trefoil_staircase_mirror"),
    ]
    for n1, n2 in pairs:
        verdict = mirror_invariance(corpus(n1), corpus(n2))
        assert verdict.equal, (n1, n2, verdict)


def test_random_complex_pairs_witness_bounds():
    packs = [geometric_package(random_complex(seed, 7)) for seed in range(5)]
    for p1 in packs:
        for p2 in packs:
            assert kernel_witnesses(p1, p2).bounds_hold
            assert splice_rank(p1, p2).h % 2 == 1


@pytest.mark.parametrize(
    "names",
    [
        ("unknot", "trefoil_staircase"),
        ("trefoil_staircase", "trefoil_staircase_mirror"),
        ("fig8_box", "t25_staircase"),
        ("t34_staircase", "t27_staircase"),
    ],
)
def test_rank_dimensions_match_kernel_bases(names):
    p1, p2 = (pkg(n) for n in names)
    d = build_D(p1, p2).matrix
    rank = splice_rank(p1, p2)
    assert rank.ker == len(d.kernel_basis())
    assert rank.coker == len(d.cokernel_basis())
    report = kernel_witnesses(p1, p2)
    assert (report.ker_dim, report.coker_dim) == (rank.ker, rank.coker)


def test_kernel_witnesses_match_the_full_product_loop():
    names = ("unknot", "trefoil_staircase", "trefoil_staircase_mirror", "fig8_box", "t25_staircase", "t34_staircase")
    packs = [pkg(n) for n in names]
    packs += [geometric_package(random_complex(seed, 8)) for seed in range(4)]
    packs += [synthetic_package(seed, dims) for seed, dims in ((1, (1, 2, 2)), (2, (2, 1, 3)), (3, (3, 2, 0)))]
    for p1, p2 in product(packs, repeat=2):
        report, found = reference_kernel_witnesses(p1, p2)
        assert kernel_witnesses(p1, p2) == report
        assert splice._nonzero_witnesses(p1, p2) == (report.checked, found)


def test_witness_outside_kernel_names_its_pair(monkeypatch):
    p1 = p2 = pkg("trefoil_staircase")
    real = build_D(p1, p2)
    ones = (1 << real.matrix.cols) - 1
    broken = Gf2Matrix(real.matrix.rows, real.matrix.cols, [0] * (real.matrix.rows - 1) + [ones])
    monkeypatch.setattr(splice, "build_D", lambda *args: replace(real, matrix=broken))
    witnesses = [
        assemble_witness(t1, t2, p1, p2)
        for t1, t2 in product(
            basis_tuples(witness_data(p1), p1), basis_tuples(witness_data(p2), p2)
        )
    ]
    first_bad = next(i for i, v in enumerate(witnesses, 1) if v and mul_vec(broken, v))
    assert first_bad > 1
    with pytest.raises(WitnessNotInKernel, match=rf"pair #{first_bad} "):
        kernel_witnesses(p1, p2)


random_models = st.integers(0, 300).map(lambda seed: geometric_package(random_complex(seed, 8)))


@settings(max_examples=30)
@given(random_models, random_models)
def test_h_is_swap_symmetric_on_random_models(p1, p2):
    assert splice_rank(p1, p2).h == splice_rank(p2, p1).h


@settings(max_examples=30)
@given(random_models, random_models, st.integers(0, 10_000))
def test_h_is_unchanged_by_admissible_changes(p1, p2, seed):
    h = splice_rank(p1, p2).h
    q1 = apply_admissible(p1, random_admissible(seed, p1.dims))
    q2 = apply_admissible(p2, random_admissible(seed + 1, p2.dims))
    assert splice_rank(q1, p2).h == h
    assert splice_rank(p1, q2).h == h
    assert splice_rank(q1, q2).h == h


# dims whose totals have a knot's parities: Hinf = a1 + a0 odd, H0 = a_inf + a1
# even.  Off these parities h can be even (e.g. dims (0, 0, 0) paired with
# anything), so the parity property is stated on them.
knot_dims = [d for d in product(range(4), repeat=3) if (d[0] + d[1]) % 2 and (d[1] + d[2]) % 2 == 0]
synthetic_models = st.tuples(st.integers(0, 100), st.sampled_from(knot_dims)).map(
    lambda args: synthetic_package(*args)
)
any_models = random_models | synthetic_models


@settings(max_examples=60)
@given(any_models, any_models)
def test_h_is_odd_on_random_and_synthetic_models(p1, p2):
    assert splice_rank(p1, p2).h % 2 == 1


@settings(max_examples=40)
@given(any_models)
def test_splice_with_unknot_returns_y_inf(p):
    u = pkg("unknot")
    assert splice_rank(p, u).h == splice_rank(u, p).h == stats(p).y_inf


@settings(max_examples=30)
@given(st.integers(0, 300))
def test_splice_with_unknot_returns_hf_hat_on_random_models(seed):
    c = random_complex(seed, 8)
    p = geometric_package(c)
    assert splice_rank(p, pkg("unknot")).h == stats(p).y_inf == hf_hat(c).dim


@settings(max_examples=20)
@given(st.integers(0, 300), st.integers(0, 300))
def test_h_is_mirror_invariant_on_random_models(seed1, seed2):
    verdict = mirror_invariance(random_complex(seed1, 8), random_complex(seed2, 8))
    assert verdict.equal, verdict


# corpus, random and synthetic packages; direct sums are built from the
# packages alone, so this does not lean on how the pipeline builds them
every_model = st.sampled_from(corpus_names()).map(pkg) | any_models


@settings(max_examples=40)
@given(every_model, every_model, every_model)
def test_h_is_additive_over_direct_sums_on_both_sides(p, q, r):
    s = direct_sum(p, q)
    assert s.dims == tuple(a + b for a, b in zip(p.dims, q.dims))
    assert splice_rank(s, r).h == splice_rank(p, r).h + splice_rank(q, r).h
    assert splice_rank(r, s).h == splice_rank(r, p).h + splice_rank(r, q).h
