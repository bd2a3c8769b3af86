"""Surgery groups and triangle exactness against hand-computed values."""

from __future__ import annotations

from dataclasses import replace

import pytest

from splicerank import duality, surgery
from splicerank.corpus import corpus, corpus_names
from splicerank.errors import NormalizationFailure, ShapeMismatch, WindowNotStable
from splicerank.gf2 import Gf2Matrix
from splicerank.homology import ChainComplexF2, HomologySpace
from splicerank.model import flip_map, hf_hat, plane_i0, random_complex
from splicerank.surgery import CYCLE, PlaneStore, SurgeryTriple, label_columns, total_package

from oracles import (
    INF,
    ReferenceHomology,
    build_cone,
    cone_chain_map,
    h_number,
    hfk_hat_dims,
    oracle_models,
    reference_level_maps,
    reference_totals,
    summand_dims,
    surgery_homology,
    triangle_maps,
)


def test_unknot_cone_n0_acyclic():
    cone = build_cone(corpus("unknot"), 0, 0)
    assert summand_dims(cone) == (1, 0, 1)
    assert cone_chain_map(cone).dense() == [[1]]
    assert HomologySpace(cone.cone).dim == 0


def test_unknot_cone_n1_rank_one():
    cone = build_cone(corpus("unknot"), 1, 0)
    assert sum(summand_dims(cone)[:2]) == 2
    assert HomologySpace(cone.cone).dim == 1


def test_unknot_surgery_dims():
    u = corpus("unknot")
    t = total_package(u)
    assert t.totals.dims == (0, 1, 1)
    for s in t.window:
        assert surgery_homology(u, 0, s).dim == 0


def test_trefoil_surgery_dims():
    c = corpus("trefoil_staircase")
    t = total_package(c)
    assert [surgery_homology(c, INF, s).dim for s in (-1, 0, 1)] == [1, 1, 1]
    assert t.totals.dims == (4, 3, 3)
    # stabilization outside the support window
    for s in (-3, 2, 3):
        assert surgery_homology(c, 0, s).dim == 0


def test_t25_surgery_dims():
    c = corpus("t25_staircase")
    t = total_package(c)
    assert t.totals.dims == (8, 7, 5)


def test_fig8_surgery_dims():
    c = corpus("fig8_box")
    t = total_package(c)
    assert t.totals.dims == (4, 5, 5)


def test_hinf_matches_hfk():
    for name in ("trefoil_staircase", "fig8_box", "t34_staircase"):
        c = corpus(name)
        dims = hfk_hat_dims(c)
        t = total_package(c)
        assert t.totals.dims[2] == sum(dims.values())
        for s in t.window:
            assert t.H[2][s].dim == dims.get(s, 0)


def test_unknot_triangle_f0_iso():
    maps = triangle_maps(corpus("unknot"), 0)
    # exactness with H0 = 0 forces f0 to be an isomorphism F -> F
    assert maps["f0"].dense() == [[1]]


def test_trefoil_exactness_all_levels():
    t = SurgeryTriple(corpus("trefoil_staircase"))
    assert t.exactness_failures() == []
    for s in range(-2, 3):
        maps = triangle_maps(corpus("trefoil_staircase"), s)
        assert (maps["f0"] @ maps["f_inf"]).is_zero()
        assert maps["f_inf"].rank() + maps["f0"].rank() == t.H[1][s].dim if s in t.window else True


def test_exactness_on_corpus_and_randoms():
    from splicerank.corpus import corpus_names

    for name in corpus_names():
        assert total_package(corpus(name)).exactness_failures() == []
    for seed in range(8):
        assert total_package(random_complex(seed)).exactness_failures() == []


def test_exactness_failures_name_the_broken_nodes():
    # f0[1] sits in the unbarred triangle at s = 1, fbar1[0] in the barred
    # one at s = 0, where it maps Hinf(0) -> H0(-1); each level's nodes are
    # named in CYCLE order of the map into them
    t = SurgeryTriple(corpus("trefoil_staircase"))
    for family, s in ((t.maps[0][0], 1), (t.maps[1][1], 0)):
        family[s] = Gf2Matrix(family[s].rows, family[s].cols)
    assert t.exactness_failures() == [
        "barred s=0: image/kernel gap at Hinf",
        "barred s=0: image/kernel gap at H0",
        "unbarred s=1: image/kernel gap at Hinf",
        "unbarred s=1: image/kernel gap at H1",
    ]


def test_a_triple_that_is_not_exact_is_not_built(monkeypatch):
    # the same two maps broken while the triple is built: construction
    # raises with every broken node named, and total_package builds nothing
    real = SurgeryTriple._build_triangles

    def broken(self, s):
        real(self, s)
        for family, level in ((self.maps[0][0], 1), (self.maps[1][1], 0)):
            if s == level:
                family[s] = Gf2Matrix(family[s].rows, family[s].cols)

    monkeypatch.setattr(SurgeryTriple, "_build_triangles", broken)
    for build in (SurgeryTriple, total_package):
        with pytest.raises(NormalizationFailure) as info:
            build(corpus("trefoil_staircase"))
        assert str(info.value) == "; ".join(
            [
                "barred s=0: image/kernel gap at Hinf",
                "barred s=0: image/kernel gap at H0",
                "unbarred s=1: image/kernel gap at Hinf",
                "unbarred s=1: image/kernel gap at H1",
            ]
        )


def test_rank_dimension_relations():
    for name in ("unknot", "trefoil_staircase", "fig8_box", "t25_staircase"):
        t = total_package(corpus(name))
        a0, a1, ainf = (f.rank() for f in t.totals.fs)
        assert t.totals.dims == (a1 + ainf, a0 + ainf, a0 + a1)


def test_parity_on_corpus():
    from splicerank.corpus import corpus_names

    for name in corpus_names():
        totals = total_package(corpus(name)).totals
        a0, a1, a_inf = (f.rank() for f in totals.fs)
        assert a1 % 2 == a_inf % 2 == (a0 + 1) % 2, name


def test_hinf_total_equals_hfk_sum_definitional():
    c = random_complex(3)
    t = total_package(c)
    assert t.totals.dims[2] == sum(hfk_hat_dims(c).values())


def test_barred_unbarred_independent_construction():
    # barred maps must compose exactly per the second exact sequence
    t = total_package(corpus("t34_staircase"))
    fbar0, fbar1, fbar_inf = t.totals.fbars
    assert (fbar0 @ fbar_inf).is_zero()
    assert (fbar1 @ fbar0).is_zero()
    assert (fbar_inf @ fbar1).is_zero()
    assert [f.rank() for f in t.totals.fbars] == [f.rank() for f in t.totals.fs]


@pytest.mark.parametrize("name", corpus_names())
def test_totals_are_the_level_maps_placed_by_cycle_position(name):
    # totals are tuples in CYCLE order, map k from H_next(k) to H_prev(k),
    # the barred ones reading H0 one level down: bit for bit what the level
    # maps give when placed entry by entry
    t = total_package(corpus(name))
    assert t.totals == reference_totals(t)
    assert [(f.rows, f.cols) for f in t.totals.fs] == [(t.totals.dims[k.prev], t.totals.dims[k.next]) for k in CYCLE]


def test_the_triangles_read_one_label_index_per_level(monkeypatch):
    # one pass per level builds both triangles and reads the n = 1 cone's
    # label index once; the projection reads the lift, not the spot's index
    t = SurgeryTriple(corpus("t35_staircase"))
    maps = t.maps
    reads = []
    real = ChainComplexF2.index.fget
    monkeypatch.setattr(ChainComplexF2, "index", property(lambda self: reads.append(self) or real(self)))
    t.maps = tuple(tuple({} for _ in CYCLE) for _ in maps)
    for s in t.window:
        t._build_triangles(s)
    assert reads == [t.cones1[s].cone for s in t.window]
    assert t.maps == maps


def test_cycle_is_defined_once():
    # the package and splice modules read the index cycle the triple reads
    assert duality.CYCLE is surgery.CYCLE
    assert [k.label for k in surgery.CYCLE] == ["0", "1", "inf"]


def test_meridian_suspension_dims_vs_ambient():
    # total h of (f_inf + fbar_inf) equals the ambient rank; checked later via
    # the splice with the unknot, asserted here at the matrix level
    for name in ("unknot", "trefoil_staircase", "fig8_box", "t25_staircase", "t35_staircase"):
        c = corpus(name)
        t = total_package(c)
        total = t.totals.fs[2] + t.totals.fbars[2]
        assert h_number(total) == hf_hat(c).dim, name


def test_homology_and_level_maps_match_reference_on_oracle_models():
    for c in oracle_models():
        t = SurgeryTriple(c)
        for s in t.window:
            for space in (spaces[s] for spaces in t.H):
                ref = ReferenceHomology(space.complex)
                assert space.reps == ref.reps, (c.name, s)
                boundary = space.complex.boundary
                cycles = boundary.kernel_basis()
                columns = [b for b in boundary.transpose().row_bits if b]
                # every kernel vector, and the first few moved by each boundary
                probes = cycles + [z ^ b for z in cycles[:3] for b in columns]
                assert [space.coords(z) for z in probes] == [ref.coords(z) for z in probes]
        assert t.maps == reference_level_maps(t), c.name


def test_cones_share_the_stored_planes(monkeypatch):
    t = SurgeryTriple(corpus("t35_staircase"))
    # every plane a cone reads was cut once, into the triple's store: each
    # cone built again from the store cuts none, and its basis is the
    # store's first(s), then second(n - s - 1), then C{j=0}, each label
    # tagged by its summand; so C{i=0, j<=-s-1}, the second summand of
    # cones (0, s) and (1, s+1), is one plane
    cuts = []
    real = ChainComplexF2.restrict
    monkeypatch.setattr(ChainComplexF2, "restrict", lambda self, keep: cuts.append(keep) or real(self, keep))
    for s in t.window:
        for n, cones in enumerate((t.cones0, t.cones1)):
            cone = t.planes.cone(n, s)
            assert cone.cone == cones[s].cone
            fresh = (
                tuple(("u", lbl) for lbl in t.planes.first(s).basis)
                + tuple(("v", lbl) for lbl in t.planes.second(n - s - 1).basis)
                + tuple(("w", lbl) for lbl in t.flip.target.basis)
            )
            assert cone.cone.basis == fresh
    assert cuts == []
    # the cones hold one tagged label per (tag, label) of the store, so their
    # bases together hold at most three objects per generator
    cones = [*t.cones0.values(), *t.cones1.values()]
    assert len({id(lbl) for cone in cones for lbl in cone.cone.basis}) <= 3 * len(t.complex.generators)


def test_homology_dim_matches_homology_inside_and_outside_the_window():
    for c in oracle_models():
        planes = PlaneStore(flip_map(c))
        lo, hi = c.grading_range()
        for s in range(lo - 4, hi + 5):
            for complex_ in (planes.cone(0, s).cone, planes.cone(1, s).cone, planes.spot(s)):
                assert complex_.homology_dim() == HomologySpace(complex_).dim, (c.name, s)


def test_zero_flip_is_caught_outside_the_window(monkeypatch):
    def zero_flip(complex_):
        flip = flip_map(complex_)
        return replace(flip, matrix=Gf2Matrix(flip.matrix.rows, flip.matrix.cols))

    monkeypatch.setattr(surgery, "flip_map", zero_flip)
    with pytest.raises(WindowNotStable, match=r"H_0\(-4\) nonzero outside window"):
        total_package(corpus("trefoil_staircase"))


def test_a_label_sent_outside_the_target_is_a_shape_mismatch():
    # the one label-map helper refuses an image that is not a label of its
    # target with the typed error, not the KeyError of the basis lookup
    plane = plane_i0(corpus("trefoil_staircase"))
    assert label_columns(plane, plane, lambda lbl: lbl) == [1 << k for k in range(plane.dim)]
    with pytest.raises(ShapeMismatch, match="not in the target basis") as info:
        label_columns(plane, plane, lambda lbl: ("elsewhere", lbl))
    assert info.type is ShapeMismatch


@pytest.mark.parametrize("reader", ["first_columns", "flip_columns"])
def test_a_store_column_reader_refuses_a_label_outside_its_plane(reader):
    # the store reads a sub-plane's columns from the table of its own plane,
    # C{j=0} for the inclusion and C{i=0} for the flip: a plane of another
    # knot is refused with the typed error, not the KeyError of the lookup
    planes = PlaneStore(flip_map(corpus("trefoil_staircase")))
    other = PlaneStore(flip_map(corpus("t25_staircase")))
    own, foreign = ((p.flip.target if reader == "first_columns" else p.flip.source) for p in (planes, other))
    assert getattr(planes, reader)(own) == getattr(planes, reader)(own)
    with pytest.raises(ShapeMismatch, match="not in the target basis") as info:
        getattr(planes, reader)(foreign)
    assert info.type is ShapeMismatch
