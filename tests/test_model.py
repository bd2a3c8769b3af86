"""Bifiltered model tests: validation, planes, homology, flip, corpus."""

from __future__ import annotations

import json
import re
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splicerank import corpus as corpus_module, duality, filtration, model
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import geometric_package
from splicerank.errors import NoFlipData, NotAComplex, NotQuasiIso, ShapeMismatch, UnknownName
from splicerank.gf2 import Gf2Matrix, xor_columns
from splicerank.homology import ChainComplexF2, HomologySpace
from splicerank.model import (
    Arrow,
    BifilteredComplex,
    Generator,
    TauOverride,
    flip_map,
    hf_hat,
    mirror,
    plane_i0,
    plane_j0,
    random_complex,
    staircase,
)
from splicerank.surgery import PlaneStore

from oracles import (
    ReferenceHomology,
    cone_chain_map,
    hfk_hat_dims,
    oracle_models,
    reference_label_matrix,
    summand_dims,
)


def trefoil() -> BifilteredComplex:
    return corpus("trefoil_staircase")


def reference_subquotient(
    complex_: BifilteredComplex,
    i_eq: int | None = None,
    i_le: int | None = None,
    j_eq: int | None = None,
    j_le: int | None = None,
) -> ChainComplexF2:
    """Reference plane cut straight from the arrow list: one placement per
    generator on the pinned axis, then every arrow whose two ends both land
    inside the constraints."""
    basis = []
    for g in complex_.generators:
        if j_eq is not None:
            i, j = g.alexander + j_eq, j_eq
        else:
            i, j = i_eq, i_eq - g.alexander
        if (
            (i_eq is None or i == i_eq)
            and (i_le is None or i <= i_le)
            and (j_eq is None or j == j_eq)
            and (j_le is None or j <= j_le)
        ):
            basis.append((g.id, i, j))
    index = {label: k for k, label in enumerate(basis)}
    entries = []
    for a in complex_.arrows:
        for src_label in basis:
            if src_label[0] != a.src:
                continue
            _, i, j = src_label
            dst_label = (a.dst, i - a.drop_i, j - a.drop_j)
            if dst_label in index:
                entries.append((index[dst_label], index[src_label]))
    n = len(basis)
    return ChainComplexF2(tuple(basis), Gf2Matrix.from_entries(n, n, entries))


def _rebuilt(complex_: BifilteredComplex, **changes) -> list:
    """How each way of making a complex fares on complex_ with changes: the
    constructor and ``dataclasses.replace``, each the complex or the error."""
    out = []
    kept = {f.name: getattr(complex_, f.name) for f in fields(complex_)}
    for make in (lambda: BifilteredComplex(**{**kept, **changes}), lambda: replace(complex_, **changes)):
        try:
            out.append(make())
        except ShapeMismatch as exc:
            out.append(exc)
    return out


def _raises_both_ways(complex_: BifilteredComplex, match: str, **changes) -> None:
    for result in _rebuilt(complex_, **changes):
        assert type(result) is ShapeMismatch and match in str(result), result


def test_validate_unknot():
    u = corpus("unknot")
    assert _rebuilt(u) == [u, u]


def test_validate_trefoil_by_hand():
    c = trefoil()
    # s(b)-s(a) = 1 = 1-0 and s(b)-s(c) = -1 = 0-1
    assert [(a.src, a.dst, a.drop_i, a.drop_j) for a in c.arrows] == [("b", "a", 1, 0), ("b", "c", 0, 1)]
    assert _rebuilt(c) == [c, c]


def test_validate_flags_grading_violation():
    _raises_both_ways(
        trefoil(), "violates grading", arrows=(Arrow("b", "a", 0, 1), Arrow("b", "c", 1, 0))
    )


def test_validate_flags_broken_symmetry():
    # fails s(sigma x) = -s(x)
    _raises_both_ways(trefoil(), "does not negate the grading", symmetry={"a": "a", "b": "b", "c": "c"})


def test_validate_flags_d_squared():
    _raises_both_ways(
        trefoil(),
        "d^2 != 0",
        generators=(Generator("a", 0), Generator("b", 1), Generator("c", 2)),
        arrows=(Arrow("c", "b", 1, 0), Arrow("b", "a", 1, 0)),
        symmetry=None,
    )


_ABC = (Generator("a", -1), Generator("b", 0), Generator("c", 1))


@pytest.mark.parametrize(
    "match, changes",
    [
        ("is not an int: -1.0", {"generators": (Generator("a", -1.0), *_ABC[1:])}),
        ("is not an int: True", {"generators": (_ABC[0], Generator("b", True), _ABC[2])}),
        ("drop that is not an int", {"arrows": (Arrow("b", "a", 1.0, 0), Arrow("b", "c", 0, 1))}),
        ("drop that is not an int", {"arrows": (Arrow("b", "a", True, 0), Arrow("b", "c", 0, 1))}),
        ("duplicate generator id 'a'", {"generators": (*_ABC, Generator("a", -1))}),
        ("duplicate arrow", {"arrows": (Arrow("b", "a", 1, 0), Arrow("b", "a", 1, 0), Arrow("b", "c", 0, 1))}),
        ("references a missing generator", {"arrows": (Arrow("b", "z", 1, 0), Arrow("b", "c", 0, 1))}),
        ("negative drop", {"arrows": (Arrow("b", "a", 2, 1), Arrow("b", "c", -1, 0))}),
        ("violates grading", {"arrows": (Arrow("b", "a", 0, 0), Arrow("b", "c", 0, 0))}),
        (
            "d^2 != 0",
            {
                "generators": (*_ABC, Generator("d", 2)),
                "arrows": (Arrow("d", "b", 2, 0), Arrow("b", "a", 1, 0)),
                "symmetry": None,
            },
        ),
        ("does not cover generator 'b'", {"symmetry": {"a": "c", "c": "a"}}),
        ("maps through missing generator", {"symmetry": {"a": "c", "c": "a", "b": "b", "z": "z"}}),
        ("not an involution at 'a'", {"symmetry": {"a": "c", "c": "b", "b": "b"}}),
        ("does not negate the grading", {"symmetry": {"a": "a", "b": "b", "c": "c"}}),
        ("symmetry image of arrow b->a", {"arrows": (Arrow("b", "a", 1, 0),)}),
        ("generators None is not iterable", {"generators": None}),
        ("arrows 3 is not iterable", {"arrows": 3}),
        ("generator 1 is not a Generator", {"generators": [1]}),
        ("is not a Generator with a str id", {"generators": (Generator(["a"], -1), *_ABC[1:])}),
        # a Generator, Arrow or TauOverride is a NamedTuple, so it equals the
        # plain tuple of its values: the validator refuses that tuple by type
        ("generator ('a', 0) is not a Generator", {"generators": (("a", 0), *_ABC[1:])}),
        ("arrow 'b->a' is not an Arrow", {"arrows": ("b->a", Arrow("b", "c", 0, 1))}),
        ("is not an Arrow between str ids", {"arrows": (Arrow("b", ("a",), 1, 0), Arrow("b", "c", 0, 1))}),
        ("arrow ('b', 'a', 1, 0) is not an Arrow", {"arrows": (("b", "a", 1, 0), Arrow("b", "c", 0, 1))}),
        ("symmetry [('a', 'c')] is not a mapping", {"symmetry": [("a", "c")]}),
        ("symmetry maps something other than str ids", {"symmetry": {"a": ["c"], "b": "b", "c": "a"}}),
        ("flip [[1]] is not a Gf2Matrix", {"flip": [[1]]}),
        ("tau override 'x' is not a TauOverride", {"tau_override": "x"}),
        ("is not a TauOverride of three Gf2Matrix", {"tau_override": TauOverride(None, None, None)}),
        (
            "tau override (Gf2Matrix(1x1), Gf2Matrix(1x1), Gf2Matrix(1x1)) is not a TauOverride",
            {"tau_override": (Gf2Matrix(1, 1),) * 3},
        ),
        ("name None is not a str", {"name": None}),
    ],
    ids=[
        "float-grading",
        "bool-grading",
        "float-drop",
        "bool-drop",
        "duplicate-generator",
        "duplicate-arrow",
        "missing-generator",
        "negative-drop",
        "grading-mismatch",
        "d-squared",
        "symmetry-cover",
        "symmetry-missing",
        "symmetry-involution",
        "symmetry-grading",
        "symmetry-arrow",
        "generators-none",
        "arrows-int",
        "generator-int",
        "generator-id-list",
        "generator-tuple",
        "arrow-str",
        "arrow-end-tuple",
        "arrow-tuple",
        "symmetry-list",
        "symmetry-value-list",
        "flip-list",
        "tau-override-str",
        "tau-override-none-maps",
        "tau-override-tuple",
        "name-none",
    ],
)
def test_every_violation_raises_at_construction(match, changes):
    _raises_both_ways(trefoil(), match, **changes)


def test_a_violation_message_lists_every_violation():
    with pytest.raises(ShapeMismatch) as info:
        replace(trefoil(), name="two-faults", arrows=(Arrow("b", "a", 0, 0), Arrow("b", "z", 1, 0)))
    assert str(info.value).startswith("invalid complex 'two-faults': ")
    assert "violates grading" in str(info.value) and "missing generator" in str(info.value)


def test_subquotient_unknot_j0():
    x = plane_j0(corpus("unknot"))
    assert x.basis == (("e", 0, 0),)
    assert x.boundary.is_zero()


def test_subquotient_trefoil_j0():
    x = plane_j0(trefoil())
    assert x.basis == (("a", -1, 0), ("b", 0, 0), ("c", 1, 0))
    # the j-dropping arrow b->c is excluded; d[b] = [a]
    assert x.boundary.transpose().row_bits[x.index[("b", 0, 0)]] == 1 << x.index[("a", -1, 0)]
    assert x.boundary.transpose().row_bits[x.index[("a", -1, 0)]] == 0


def test_subquotient_trefoil_bounded_column():
    x = plane_j0(trefoil()).restrict(lambda lbl: lbl[1] <= 0)
    assert x.basis == (("a", -1, 0), ("b", 0, 0))
    assert HomologySpace(x).dim == 0


def test_homology_zero_boundary_and_empty():
    x = plane_i0(corpus("unknot"))
    assert HomologySpace(x).dim == 1
    empty = plane_j0(trefoil()).restrict(lambda lbl: lbl[1] == 99)
    assert empty.dim == 0 and empty.boundary.rows == 0
    assert HomologySpace(empty).dim == 0


def test_complex_rejects_a_boundary_that_does_not_square_to_zero():
    # d(c) = b, d(b) = a: d @ d sends c to a
    with pytest.raises(NotAComplex, match="square to zero"):
        ChainComplexF2(("a", "b", "c"), Gf2Matrix.from_entries(3, 3, [(0, 1), (1, 2)]))


def test_coords_rejects_non_cycles_and_too_wide_vectors():
    # d(b) = a, c a cycle: homology is spanned by c, and a is a boundary
    h = HomologySpace(ChainComplexF2(("a", "b", "c"), Gf2Matrix.from_entries(3, 3, [(0, 1)])))
    assert h.dim == 1
    assert h.coords(0b100) == 1
    assert h.coords(0b101) == 1
    assert h.coords(0b001) == 0
    with pytest.raises(NotAComplex, match="non-cycle"):
        h.coords(0b010)
    with pytest.raises(ShapeMismatch, match="beyond 3"):
        h.coords(0b1000)
    with pytest.raises(ShapeMismatch):
        h.coords(-1)


@st.composite
def square_zero_boundaries(draw):
    """g N g^-1 on up to 9 generators, where N sends e_(r+i) to e_i for i < r,
    so N @ N = 0, and g = L U is a unit lower times a unit upper triangular
    matrix, so invertible.  The n columns span only r dimensions, so they
    depend on each other, and some kernel basis vectors are boundaries."""
    n = draw(st.integers(0, 9))
    r = draw(st.integers(0, n // 2))
    low = [(1 << i) | draw(st.integers(0, (1 << i) - 1)) for i in range(n)]
    up = [(1 << i) | (draw(st.integers(0, (1 << n) - 1)) >> (i + 1) << (i + 1)) for i in range(n)]
    g = Gf2Matrix(n, n, low) @ Gf2Matrix(n, n, up)
    nil = Gf2Matrix.from_entries(n, n, [(i, r + i) for i in range(r)])
    return g @ nil @ g.inverse()


masks = st.lists(st.tuples(st.integers(0, 511), st.integers(0, 511)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(square_zero_boundaries(), masks)
# d(b) = d(c) = a: two equal columns, and the kernel vector a is a boundary
@example(Gf2Matrix.from_entries(4, 4, [(0, 1), (0, 2)]), [(0b1, 0b10), (0b111, 0b110)])
def test_homology_space_matches_the_reference_solver(boundary, pairs):
    # each pair picks a cycle among the kernel basis vectors and a chain whose
    # boundary moves it
    n = boundary.rows
    complex_ = ChainComplexF2(tuple(range(n)), boundary)
    h, ref = HomologySpace(complex_), ReferenceHomology(complex_)
    assert h.reps == ref.reps
    kernel = boundary.kernel_basis()
    for pick, chain in pairs:
        cycle = xor_columns(kernel, pick & ((1 << len(kernel)) - 1))
        moved = cycle ^ xor_columns(h.boundary_columns, chain & ((1 << n) - 1))
        assert h.coords(cycle) == ref.coords(cycle)
        assert h.coords(moved) == ref.coords(moved) == ref.coords(cycle)


def test_planes_match_reference_on_oracle_models():
    for c in oracle_models():
        assert plane_j0(c) == reference_subquotient(c, j_eq=0), c.name
        assert plane_i0(c) == reference_subquotient(c, i_eq=0), c.name
        lo, hi = c.grading_range()
        want = {}
        for s in range(lo, hi + 1):
            d = HomologySpace(reference_subquotient(c, i_eq=0, j_eq=-s)).dim
            if d:
                want[s] = d
        assert hfk_hat_dims(c) == want, c.name


def test_cones_and_spots_match_reference_on_oracle_models():
    # a cone's summands are the store's planes, and its chain map, the
    # lower-left block of its boundary, is the inclusion on C{i<=s, j=0}
    # beside the flip on C{i=0, j<=n-s-1}
    for c in oracle_models():
        flip = flip_map(c)
        planes = PlaneStore(flip)
        flip_cols = dict(zip(flip.source.basis, flip.matrix.transpose().row_bits))
        lo, hi = c.grading_range()
        for s in range(lo - 3, hi + 4):
            for n in (0, 1):
                first, second = planes.first(s), planes.second(n - s - 1)
                assert first == reference_subquotient(c, i_le=s, j_eq=0), (c.name, n, s)
                assert second == reference_subquotient(c, i_eq=0, j_le=n - s - 1), (c.name, n, s)
                cone = planes.cone(n, s)
                assert summand_dims(cone) == (first.dim, second.dim, flip.target.dim), (c.name, n, s)
                inclusion = reference_label_matrix(first, flip.target, lambda lbl: lbl).transpose().row_bits
                chain_map = Gf2Matrix.from_columns(
                    [*inclusion, *(flip_cols[lbl] for lbl in second.basis)], flip.target.dim
                )
                assert cone_chain_map(cone) == chain_map, (c.name, n, s)
            assert planes.spot(s) == reference_subquotient(c, i_eq=0, j_eq=-s), (c.name, s)


def test_profile_sub_planes_match_reference_on_oracle_models(monkeypatch):
    seen: list[ChainComplexF2] = []

    def recording_homology(complex_):
        seen.append(complex_)
        return HomologySpace(complex_)

    monkeypatch.setattr(filtration, "HomologySpace", recording_homology)
    for c in oracle_models():
        seen.clear()
        filtration.profile(c)
        lo, hi = c.grading_range()
        # the ambient plane, then the row side C{i<=s, j=0}, then the column
        # side C{i=0, j<=s} (the second filtration runs over -hi-1 .. -lo+1)
        want = [reference_subquotient(c, j_eq=0)]
        want += [reference_subquotient(c, i_le=s, j_eq=0) for s in range(lo - 1, hi + 2)]
        want += [reference_subquotient(c, i_eq=0, j_le=s) for s in range(-hi - 1, -lo + 2)]
        assert seen == want, c.name


def test_homology_trefoil_j0_representative():
    x = plane_j0(trefoil())
    h = HomologySpace(x)
    assert h.dim == 1
    assert h.reps == [1 << x.index[("c", 1, 0)]]


def test_reverse_and_mirror_are_involutions():
    for name in ("trefoil_staircase", "fig8_box", "t34_staircase"):
        c = corpus(name)
        assert mirror(mirror(c)).generators == c.generators
        assert set(mirror(mirror(c)).arrows) == set(c.arrows)


def test_mirror_dual_hfk_dims():
    for name in ("trefoil_staircase", "t34_staircase", "fig8_box"):
        c = corpus(name)
        dims = hfk_hat_dims(c)
        dual = hfk_hat_dims(mirror(c))
        assert dual == {-s: d for s, d in dims.items()}


def test_flip_unknot_identity():
    f = flip_map(corpus("unknot"))
    assert f.matrix.dense() == [[1]]


def test_flip_trefoil_permutation():
    c = trefoil()
    f = flip_map(c)
    src, tgt, m = f.source, f.target, f.matrix
    assert m.transpose().row_bits[src.index[("a", 0, 1)]] == 1 << tgt.index[("c", 1, 0)]
    assert m.transpose().row_bits[src.index[("b", 0, 0)]] == 1 << tgt.index[("b", 0, 0)]
    assert m.transpose().row_bits[src.index[("c", 0, -1)]] == 1 << tgt.index[("a", -1, 0)]


def test_flip_requires_data():
    c = BifilteredComplex("bare", (Generator("e", 0),), ())
    with pytest.raises(NoFlipData):
        flip_map(c)


def test_explicit_flip_must_be_quasi_iso():
    c = BifilteredComplex("bad-flip", (Generator("e", 0),), (), None, Gf2Matrix(1, 1))
    with pytest.raises(NotQuasiIso):
        flip_map(c)


def test_corpus_catalog():
    names = corpus_names()
    assert "unknot" in names and "trefoil_staircase" in names and "fig8_box" in names
    assert len(names) >= 10
    for name in ("granny", "./unknot", "../data/unknot"):
        with pytest.raises(UnknownName):
            corpus(name)
    u = corpus("unknot")
    assert len(u.generators) == 1 and not u.arrows


def test_corpus_lists_its_directory_once(monkeypatch):
    # the listing is kept for the process: loading never lists again, and
    # each caller of corpus_names gets a fresh list of its own
    names = corpus_names()
    names.append("granny")

    def unlisted(path="."):
        raise AssertionError(f"{path} was listed again")

    monkeypatch.setattr(corpus_module.os, "listdir", unlisted)
    assert corpus_names() == names[:-1] and corpus_names() is not corpus_names()
    with open(corpus_module.os.path.join(corpus_module._DATA, "unknot.json"), encoding="utf-8") as f:
        assert corpus("unknot") == corpus_module.complex_from_dict(json.load(f))
    known = re.escape(", ".join(names[:-1]))
    with pytest.raises(UnknownName, match=f"^no corpus entry 'granny'; known: {known}$"):
        corpus("granny")


def test_fig8_hfk_ranks():
    assert hfk_hat_dims(corpus("fig8_box")) == {-1: 1, 0: 3, 1: 1}
    assert hf_hat(corpus("fig8_box")).dim == 1


def test_corpus_all_valid_and_hf_matches_planes():
    for name in corpus_names():
        c = corpus(name)
        assert replace(c) == c, name  # building validates, and a rebuild passes again
        assert HomologySpace(plane_j0(c)).dim == HomologySpace(plane_i0(c)).dim, name


def test_random_complex_deterministic_and_valid():
    a = random_complex(7)
    b = random_complex(7)
    assert a == b
    assert replace(a) == a
    # the draw is accepted on an odd generator count: the homology of the
    # j = 0 plane, computed here, has the same parity
    for seed in range(50):
        assert hf_hat(random_complex(seed)).dim % 2 == 1, seed


def test_random_complexes_flip_quasi_iso():
    for seed in range(12):
        c = random_complex(seed)
        f = flip_map(c)  # raises if not a chain quasi-isomorphism
        assert f.matrix.rows == f.target.dim


@pytest.mark.parametrize(
    "make",
    [
        lambda: BifilteredComplex("float-grading", (Generator("a", 0.0),), (), {"a": "a"}),
        lambda: BifilteredComplex("bool-grading", (Generator("a", False),), (), {"a": "a"}),
        lambda: BifilteredComplex(
            "float-drop",
            (Generator("a", -1), Generator("b", 0), Generator("c", 1)),
            (Arrow("b", "a", 1.0, 0), Arrow("b", "c", 0, 1.0)),
            {"a": "c", "b": "b", "c": "a"},
        ),
        lambda: staircase([2.0, 2.0]),
        lambda: staircase([0, 0]),
        lambda: staircase([True, True]),
        lambda: staircase([1, -1, -1, 1]),
        lambda: staircase(None),
    ],
    ids=[
        "float-grading",
        "bool-grading",
        "float-drop",
        "float-step",
        "zero-step",
        "bool-step",
        "negative-step",
        "none-steps",
    ],
)
def test_non_integer_models_raise_shape_mismatch(make):
    with pytest.raises(ShapeMismatch):
        geometric_package(make())
    with pytest.raises(ShapeMismatch):
        filtration.profile(make())


# -- a complex is validated once, when it is built ------------------------------

_MEMOS = [(duality, "_BUILT", geometric_package), (filtration, "_REPORTS", filtration.check_all_lemmas)]


@pytest.fixture
def validated(monkeypatch):
    """The names of the complexes validated from here on."""
    names = []
    check = model._violations

    def counted(complex_):
        names.append(complex_.name)
        return check(complex_)

    monkeypatch.setattr(model, "_violations", counted)
    return names


def test_replace_and_mirror_validate_what_they_build(validated):
    c = trefoil()
    replace(c, name="renamed")
    mirror(c)
    assert validated == ["trefoil_staircase", "renamed", "trefoil_staircase-mirror"]


@pytest.mark.parametrize("module, memo, call", _MEMOS, ids=["packages", "reports"])
def test_a_warm_memo_hit_runs_no_validation(monkeypatch, validated, module, memo, call):
    # neither a cold call nor a warm one validates: the complex was
    # validated when it was built
    monkeypatch.setattr(module, memo, type(getattr(module, memo))())
    cold, warm = ([trefoil(), random_complex(3)] for _ in range(2))  # equal, other objects
    assert "trefoil_staircase" in validated and "random-3" in validated
    validated.clear()
    for c in cold + warm:
        call(c)
    assert validated == []
    assert len(getattr(module, memo)) == 2


@pytest.mark.parametrize("module, memo, call", _MEMOS, ids=["packages", "reports"])
@pytest.mark.parametrize("drop", [1.0, True], ids=["float", "bool"])
def test_a_drop_that_is_not_an_int_misses_an_equal_entry(monkeypatch, module, memo, call, drop):
    # a complex with such a drop would equal and hash like a valid one
    # (1 == 1.0 == True), so it must never reach a memo: it cannot be built
    entries = type(getattr(module, memo))()
    monkeypatch.setattr(module, memo, entries)
    good = trefoil()
    call(good)
    first, *rest = good.arrows
    assert first.drop_i == 1 and Arrow(first.src, first.dst, drop, first.drop_j) == first
    arrows = (Arrow(first.src, first.dst, drop, first.drop_j), *rest)
    with pytest.raises(ShapeMismatch, match="not an int") as info:
        BifilteredComplex(good.name, good.generators, arrows, good.symmetry)
    assert info.type is ShapeMismatch
    with pytest.raises(ShapeMismatch, match="not an int"):
        replace(good, arrows=arrows)
    assert list(entries) == [good]
