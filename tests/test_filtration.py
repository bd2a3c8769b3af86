"""Filtration profiles and the lemma suite on corpus and random models."""

from __future__ import annotations

import pytest

from splicerank import duality, filtration, surgery
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import geometric_package, stats
from splicerank.errors import StatsInconsistent
from splicerank.filtration import (
    SideData,
    check_all_lemmas,
    lemma31_check,
    lemma32_check,
    lemma33_check,
    lemma37_check,
    profile,
)
from splicerank.gf2 import Gf2Matrix
from splicerank.model import flip_map, hf_hat, mirror, random_complex
from splicerank.surgery import total_package

from oracles import (
    ReferenceHomology,
    calibrate_e_readings,
    oracle_models,
    reference_build_side,
    reference_graded_pieces,
    torus_staircase,
)


def test_unknot_profile():
    p = profile(corpus("unknot"))
    assert p.A == {(0, 0): 1}
    assert p.e == {0: 1}
    assert all(v == 0 for v in p.row.kernel_dim.values())
    assert all(v == 0 for v in p.col.kernel_dim.values())


def test_trefoil_profile_hand_values():
    p = profile(corpus("trefoil_staircase"))
    assert p.A == {(1, 1): 1}
    assert p.e == {2: 1}
    assert p.row.kernel_dim[-1] == 1
    assert p.row.kernel_dim[0] == 0


def test_fig8_profile():
    p = profile(corpus("fig8_box"))
    assert p.A == {(0, 0): 1}
    assert p.e == {0: 1}
    assert p.row.kernel_dim[-1] == 1 and p.row.kernel_dim[0] == 1


def test_t25_profile():
    p = profile(corpus("t25_staircase"))
    assert p.A == {(2, 2): 1}
    assert p.e == {4: 1}


def test_e_sum_equals_ambient_rank():
    for name in corpus_names():
        c = corpus(name)
        p = profile(c)
        assert p.e_total() == hf_hat(c).dim == p.hf_dim, name


def test_mirror_flips_e_profile():
    for name in ("trefoil_staircase", "t25_staircase", "t34_staircase", "fig8_box"):
        c = corpus(name)
        e = profile(c).e
        e_mirror = profile(mirror(c)).e
        assert e_mirror == {-s: d for s, d in e.items()}, name


def test_y_inf_equals_e_sum():
    for name in corpus_names():
        c = corpus(name)
        st = stats(geometric_package(c))
        assert st.y_inf == profile(c).e_total(), name
    for seed in range(6):
        c = random_complex(seed, 8)
        assert stats(geometric_package(c)).y_inf == profile(c).e_total()


def test_lemma31_unknot_and_trefoil():
    for name in ("unknot", "trefoil_staircase"):
        c = corpus(name)
        report = lemma31_check(total_package(c).totals, profile(c))
        assert report.ok, report.mismatches()


def test_lemma31_totals_on_unknot():
    c = corpus("unknot")
    triple = total_package(c)
    report = lemma31_check(triple.totals, profile(c))
    n0 = sum(e.lhs for e in report.entries if e.label.startswith("H_0"))
    n1 = sum(e.lhs for e in report.entries if e.label.startswith("H_1"))
    assert n0 == 0 and n1 == 1


def test_lemma32_on_small_corpus():
    for name in ("unknot", "trefoil_staircase", "fig8_box"):
        c = corpus(name)
        report = lemma32_check(total_package(c).totals, profile(c))
        assert report.ok, (name, report.mismatches())


def test_lemma33_trefoil_hand_values():
    c = corpus("trefoil_staircase")
    report = lemma33_check(geometric_package(c), profile(c))
    by_label = {e.label: e for e in report.entries}
    assert by_label["ker B0 = e_1"].lhs == 0
    assert by_label["coker B1 = e_0"].lhs == 0
    assert by_label["ker B1"].lhs == 1
    assert report.ok, report.mismatches()


def test_lemma33_unknot():
    c = corpus("unknot")
    report = lemma33_check(geometric_package(c), profile(c))
    by_label = {e.label: e for e in report.entries}
    # B1 is 1x0, so its cokernel has rank one, matching e_0 = 1
    assert by_label["coker B1 = e_0"].lhs == 1
    assert report.ok


def test_lemma37_trefoil_and_t25():
    for name, expected_ker in [("trefoil_staircase", 1), ("t25_staircase", 1)]:
        c = corpus(name)
        report = lemma37_check(geometric_package(c), profile(c))
        by_label = {e.label: e for e in report.entries}
        assert by_label["ker B1B0"].rhs == expected_ker
        assert report.ok, (name, report.mismatches())


def test_lemma_suite_entire_corpus():
    for name in corpus_names():
        reports = check_all_lemmas(corpus(name))
        for key, report in reports.items():
            assert report.ok, (name, key, report.mismatches())


def test_lemma_suite_random_models():
    for seed in range(25):
        c = random_complex(seed, 8)
        reports = check_all_lemmas(c)
        for key, report in reports.items():
            assert report.ok, (seed, key, report.mismatches())


def test_calibration_singles_out_frozen_reading():
    pool = [corpus(n) for n in corpus_names()] + [random_complex(s, 8) for s in range(10)]
    counts = calibrate_e_readings(pool)
    for which, readings in counts.items():
        assert readings["frozen"] == 0, (which, readings)
    # the staircase corpus refutes a literal multiplicity reading of the
    # printed exponents for both double-product formulas and for coker B0
    assert counts["ker_b1b0"]["printed-multiplicity"] > 0
    assert counts["coker_b1b0"]["printed-multiplicity"] > 0
    assert counts["coker_b0"]["printed-multiplicity"] > 0
    # and truncation fails where honest multiplicities exceed one
    assert counts["ker_b1"]["printed-truncation"] > 0


def test_build_side_matches_reference_on_oracle_models():
    for c in oracle_models():
        flip = flip_map(c)
        ambient = flip.target
        ambient_h = ReferenceHomology(ambient)
        lo, hi = c.grading_range()
        row = reference_build_side(
            range(lo - 1, hi + 2), lambda lbl: lbl[1], ambient, Gf2Matrix.identity(ambient.dim), ambient_h
        )
        col = reference_build_side(
            range(-hi - 1, -lo + 2), lambda lbl: lbl[2], flip.source, flip.matrix, ambient_h
        )
        prof = profile(c)
        assert prof.row == SideData(*row), c.name
        assert prof.col == SideData(*col), c.name


def test_graded_pieces_match_reference():
    for c in oracle_models() + [torus_staircase(2, 41), torus_staircase(9, 10)]:
        prof = profile(c)
        a_dims, e_dims, diagonal = reference_graded_pieces(prof)
        assert list(prof.A.items()) == list(a_dims.items()), c.name
        assert list(prof.e.items()) == list(e_dims.items()), c.name
        assert diagonal == {t: prof.e.get(t, 0) for t in diagonal}, c.name


def test_lemma_run_builds_one_flip_per_complex(monkeypatch):
    built = []

    def counting_flip_map(complex_):
        built.append(complex_.name)
        return flip_map(complex_)

    monkeypatch.setattr(surgery, "flip_map", counting_flip_map)
    monkeypatch.setattr(filtration, "flip_map", counting_flip_map)
    for c in [corpus(name) for name in corpus_names()] + [random_complex(seed, 8) for seed in range(4)]:
        built.clear()
        check_all_lemmas(c)
        assert built == [c.name]


def test_totals_hold_each_level_of_the_triple():
    # the lemma suite reads dim H0(s), dim H1(s) and f_inf(s) from the totals:
    # f_inf keeps the level, so f_inf(s) is the total's diagonal block at the
    # level offsets, and nothing lies outside those blocks
    for c in oracle_models():
        triple = total_package(c)
        totals = triple.totals
        assert totals.window == triple.window, c.name
        assert totals.h0_dims == tuple(triple.H0[s].dim for s in triple.window), c.name
        assert totals.h1_dims == tuple(triple.H1[s].dim for s in triple.window), c.name
        row = col = ones = 0
        for s in triple.window:
            f = triple.f_inf[s]
            block = totals.f_inf.submatrix(range(row, row + f.rows), range(col, col + f.cols))
            assert block == f, (c.name, s)
            row, col = row + f.rows, col + f.cols
            ones += sum(b.bit_count() for b in f.row_bits)
        assert (row, col) == (totals.f_inf.rows, totals.f_inf.cols), c.name
        assert ones == sum(b.bit_count() for b in totals.f_inf.row_bits), c.name


def test_warm_lemma_run_builds_no_triple_and_reports_as_cold(monkeypatch):
    monkeypatch.setattr(duality, "_BUILT", type(duality._BUILT)())
    built = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(complex_):
            built.append(name)
            return original(complex_)

        monkeypatch.setattr(module, name, counted)

    counting(filtration, "total_package")
    counting(surgery, "flip_map")
    counting(filtration, "flip_map")
    makers = [lambda name=name: corpus(name) for name in corpus_names()]
    makers += [lambda seed=seed: random_complex(seed, 8) for seed in range(6)]
    makers += [lambda pq=pq: torus_staircase(*pq) for pq in ((2, 9), (3, 7), (4, 5))]
    for make in makers:
        first, second = make(), make()
        assert first == second and first is not second
        built.clear()
        cold = check_all_lemmas(first)
        assert built == ["total_package", "flip_map"], first.name
        # an equal complex hits the memo entry the cold run made
        built.clear()
        warm = check_all_lemmas(second)
        assert built == ["flip_map"], first.name
        assert warm == cold, first.name
        assert all(report.ok for report in warm.values()), first.name


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("span_intersection", lambda u, v, ambient: [], "graded pieces must fill the ambient rank"),
        ("span_dim", lambda vectors: 0, "E pieces disagree with A pieces"),
    ],
    ids=["sum-of-A", "E-pieces"],
)
def test_profile_checks_raise_on_wrong_spans(monkeypatch, name, fake, message):
    # both checks of the graded pieces still read real spans: wrong
    # intersections break the sum of A, wrong diagonal sums the E pieces
    monkeypatch.setattr(filtration, name, fake)
    with pytest.raises(StatsInconsistent, match=message):
        profile(corpus("trefoil_staircase"))
