"""Filtration profiles and the lemma suite on corpus and random models."""

from __future__ import annotations

import gc

import pytest

from splicerank import filtration, surgery
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import geometric_package, stats
from splicerank.errors import ShapeMismatch, StatsInconsistent
from splicerank.filtration import (
    FiltrationProfile,
    LemmaEntry,
    LemmaReport,
    SideData,
    check_all_lemmas,
    lemma31_check,
    lemma32_check,
    lemma33_check,
    lemma37_check,
    profile,
)
from splicerank.gf2 import Gf2Matrix
from splicerank.homology import ChainComplexF2, HomologySpace
from splicerank.model import BifilteredComplex, Generator, flip_map, hf_hat, mirror, random_complex, staircase
from splicerank.surgery import MappingCone, SurgeryTriple, total_package

from oracles import (
    ReferenceHomology,
    calibrate_e_readings,
    oracle_models,
    reachable,
    reference_build_side,
    reference_graded_pieces,
    torus_staircase,
)
from packages import own_packages


def mismatches(report: LemmaReport) -> list[LemmaEntry]:
    """The entries of a report whose two sides differ."""
    return [e for e in report.entries if not e.ok]


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
        assert sum(p.e.values()) == hf_hat(c).dim == p.hf_dim, name


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
        assert st.y_inf == sum(profile(c).e.values()), name
    for seed in range(6):
        c = random_complex(seed)
        assert stats(geometric_package(c)).y_inf == sum(profile(c).e.values())


def test_lemma31_unknot_and_trefoil():
    for name in ("unknot", "trefoil_staircase"):
        c = corpus(name)
        report = lemma31_check(total_package(c), profile(c))
        assert report.ok, mismatches(report)


def test_lemma31_totals_on_unknot():
    c = corpus("unknot")
    triple = total_package(c)
    report = lemma31_check(triple, profile(c))
    n0 = sum(e.lhs for e in report.entries if e.label.startswith("H_0"))
    n1 = sum(e.lhs for e in report.entries if e.label.startswith("H_1"))
    assert n0 == 0 and n1 == 1


def test_lemma32_on_small_corpus():
    for name in ("unknot", "trefoil_staircase", "fig8_box"):
        c = corpus(name)
        report = lemma32_check(total_package(c), profile(c))
        assert report.ok, (name, mismatches(report))


def test_lemma33_trefoil_hand_values():
    c = corpus("trefoil_staircase")
    report = lemma33_check(geometric_package(c), profile(c))
    by_label = {e.label: e for e in report.entries}
    assert by_label["ker B0 = e_1"].lhs == 0
    assert by_label["coker B1 = e_0"].lhs == 0
    assert by_label["ker B1"].lhs == 1
    assert report.ok, mismatches(report)


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
        assert report.ok, (name, mismatches(report))


def test_lemma_suite_entire_corpus():
    for name in corpus_names():
        reports = check_all_lemmas(corpus(name))
        for key, report in reports.items():
            assert report.ok, (name, key, mismatches(report))


def test_lemma_suite_random_models():
    for seed in range(25):
        c = random_complex(seed)
        reports = check_all_lemmas(c)
        for key, report in reports.items():
            assert report.ok, (seed, key, mismatches(report))


def test_calibration_singles_out_frozen_reading():
    pool = [corpus(n) for n in corpus_names()] + [random_complex(s) for s in range(10)]
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
    for c in [corpus(name) for name in corpus_names()] + [random_complex(seed) for seed in range(4)]:
        built.clear()
        check_all_lemmas(c)
        assert built == [c.name]


# -- the per-complex memo of check_all_lemmas ---------------------------------


@pytest.fixture
def reports(monkeypatch):
    """A fresh, empty report memo for the test."""
    fresh = type(filtration._REPORTS)()
    monkeypatch.setattr(filtration, "_REPORTS", fresh)
    return fresh


def test_a_caller_cannot_corrupt_a_label_index(reports, monkeypatch):
    # a complex keeps no label index: a write into the dict it hands out is
    # lost, and a lemma run leaves no cone, spot or plane holding one
    plane = flip_map(corpus("t35_staircase")).source
    plane.index[plane.basis[0]] = plane.dim
    assert plane.index == {lbl: k for k, lbl in enumerate(plane.basis)}
    triples = []

    def kept(complex_):
        triples.append(total_package(complex_))
        return triples[-1]

    monkeypatch.setattr(filtration, "total_package", kept)
    with own_packages():
        check_all_lemmas(corpus("t35_staircase"))
    (t,) = triples
    # the cones' summands and the spots are the store's planes
    complexes = [space.complex for spaces in t.H for space in spaces.values()]
    complexes += [*t.planes._planes.values(), t.flip.source, t.flip.target]
    assert [c for c in complexes if "index" in vars(c)] == []


def test_a_cold_lemma_run_label_index_budget(reports, monkeypatch):
    # a label index is built on each read and kept by no one, so its entries
    # are what a cold lemma run pays for label lookups: on T(2,61) the
    # triangles read the n = 1 cone's index once per level for both, and
    # the row side of the profile reads the inclusion columns of the plane
    # store (53,558 entries when each triangle read it twice and the row
    # side rebuilt C{j=0}'s index per level)
    real = ChainComplexF2.index.fget
    entries = []

    def counted(self):
        index = real(self)
        entries.append(len(index))
        return index

    monkeypatch.setattr(ChainComplexF2, "index", property(counted))
    with own_packages():
        check_all_lemmas(staircase([1] * 60))
    assert sum(entries) == 26_596


def test_warm_lemma_run_builds_no_triple_and_reports_as_cold(reports, monkeypatch):
    built = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(complex_, **kwargs):
            built.append(name)
            return original(complex_, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(filtration, "total_package")
    counting(surgery, "flip_map")
    counting(filtration, "flip_map")
    counting(filtration, "profile")
    makers = [lambda name=name: corpus(name) for name in corpus_names()]
    makers += [lambda seed=seed: random_complex(seed) for seed in range(6)]
    makers += [lambda pq=pq: torus_staircase(*pq) for pq in ((2, 9), (3, 7), (4, 5))]
    for make in makers:
        first, second = make(), make()
        assert first == second and first is not second
        built.clear()
        cold = check_all_lemmas(first)
        assert built == ["total_package", "flip_map", "profile"], first.name
        # an equal complex hits the memo entry the cold run made
        built.clear()
        warm = check_all_lemmas(second)
        assert built == [], first.name
        assert warm == cold, first.name
        assert all(report.ok for report in warm.values()), first.name


def test_report_entry_dies_with_its_complex(reports):
    c = random_complex(5)
    check_all_lemmas(c)
    assert len(reports) == 1
    del c
    gc.collect()
    assert len(reports) == 0


def test_report_memo_keeps_only_reports(reports):
    knots = [corpus(name) for name in corpus_names()]
    for c in knots:
        check_all_lemmas(c)
    assert len(reports) == len(knots)
    held = [x for value in reports.values() for x in reachable(value)]
    big = (SurgeryTriple, MappingCone, HomologySpace, FiltrationProfile, BifilteredComplex)
    assert not [x for x in held if isinstance(x, big)]
    # nothing else either: a value is a dict of reports, made of labels and dims
    assert {type(x) for x in held} <= {dict, LemmaReport, LemmaEntry, tuple, str, int}


def test_a_lemma_run_that_raises_caches_nothing(reports, monkeypatch):
    monkeypatch.setattr(filtration, "span_dim", lambda vectors: 0)
    for _ in range(2):
        with pytest.raises(StatsInconsistent):
            check_all_lemmas(corpus("trefoil_staircase"))
    assert len(reports) == 0


def test_a_non_int_grading_does_not_hit_an_equal_report_entry(reports):
    # a grading of 0.0 or False would make a complex equal to good: it
    # cannot be built, so it never reaches the memo
    good = BifilteredComplex("e", (Generator("e", 0),), (), {"e": "e"})
    assert all(report.ok for report in check_all_lemmas(good).values())
    for value in (0.0, False):
        assert Generator("e", value) == Generator("e", 0)
        with pytest.raises(ShapeMismatch, match="not an int"):
            BifilteredComplex("e", (Generator("e", value),), (), {"e": "e"})
    assert list(reports) == [good]


def test_changing_the_returned_reports_leaves_the_memo(reports):
    c = corpus("trefoil_staircase")
    first = check_all_lemmas(c)
    kept = dict(first)
    first.pop("lemma31")
    first["lemma32"] = first["lemma33"]
    assert check_all_lemmas(c) == kept


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
