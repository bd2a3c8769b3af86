"""Splice matrix assembly, rank identities, witnesses, cases, bounds."""

from __future__ import annotations

import copy
import re
from collections import Counter
from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splicerank import duality, splice
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import PackageStats, geometric_package, stats
from splicerank.errors import ShapeMismatch, WitnessNotInKernel
from splicerank.gf2 import BlockGrid, Gf2Matrix, KronSide, kron_blocks, kron_factor, kron_side
from splicerank.model import BifilteredComplex, hf_hat, mirror, random_complex
from splicerank.splice import (
    TheoremVerdict,
    build_D,
    kernel_witnesses,
    splice_rank,
    subspace_bounds,
    theorem_check,
)

from oracles import (
    assemble_witness,
    basis_tuples,
    mul_vec,
    oracle_models,
    reachable,
    reference_build_D,
    reference_kernel_witnesses,
    reference_subspace_bounds,
    torus_staircase,
)
from packages import apply_admissible, direct_sum, own_packages, random_admissible, synthetic_package


def pkg(name: str):
    return geometric_package(corpus(name))


def mirrored_h(c1: BifilteredComplex, c2: BifilteredComplex) -> tuple[int, int]:
    """h of the splice of c1 and c2, and h with both knots mirrored."""
    return tuple(
        splice_rank(geometric_package(k1), geometric_package(k2)).h
        for k1, k2 in ((c1, c2), (mirror(c1), mirror(c2)))
    )


def test_unknot_pair_gives_one_by_zero_matrix():
    d = build_D(pkg("unknot"), pkg("unknot"))
    assert (d.matrix.rows, d.matrix.cols) == (1, 0)


def _oracle_pairs():
    corpus_packs = [pkg(n) for n in corpus_names()]
    yield from product(corpus_packs, repeat=2)
    randoms = [geometric_package(random_complex(seed)) for seed in range(6)]
    yield from zip(randoms, randoms[1:] + randoms[:1])
    zero_dims = [(1, 0, 0), (1, 0, 2), (2, 3, 0), (1, 2, 2), (3, 0, 1), (0, 1, 1)]
    synthetic = [synthetic_package(seed, dims) for seed, dims in enumerate(zero_dims)]
    # X1 Binf, D0 X1 and B0 X1 are zero on every knot above: these three
    # packages make every X1 term of D nonzero on some pair
    synthetic += [synthetic_package(seed, dims) for seed, dims in ((14, (1, 3, 3)), (28, (2, 3, 2)), (22, (2, 3, 3)))]
    yield from product(synthetic, repeat=2)
    summed = direct_sum(pkg("trefoil_staircase"), synthetic[3])
    yield summed, pkg("fig8_box")
    yield pkg("t25_staircase"), summed
    torus = {pq: geometric_package(torus_staircase(*pq)) for pq in ((2, 21), (4, 7), (5, 6), (6, 7))}
    yield torus[2, 21], torus[2, 21]
    yield torus[4, 7], torus[5, 6]
    yield torus[6, 7], torus[6, 7]


def test_build_D_matches_the_block_by_block_reference():
    count = 0
    for p1, p2 in _oracle_pairs():
        got, want = build_D(p1, p2), reference_build_D(p1, p2)
        assert got.matrix == want.matrix, (p1.dims, p2.dims)
        count += 1
    assert count == 100 + 6 + 81 + 2 + 3


_SMALL_DIMS = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), _SMALL_DIMS, st.integers(0, 3), _SMALL_DIMS)
@example(0, (0, 0, 0), 1, (2, 3, 1))
@example(1, (2, 3, 1), 0, (0, 0, 0))
@example(2, (1, 0, 0), 2, (0, 4, 0))
def test_build_D_is_the_reference_on_synthetic_pairs(seed1, dims1, seed2, dims2):
    # dims 0 to 4 on each index: empty blocks, all-zero factors and sides
    # whose mask is 0 (dims (0, 0, 0)) all occur
    p1, p2 = synthetic_package(seed1, dims1), synthetic_package(seed2, dims2)
    assert build_D(p1, p2) == reference_build_D(p1, p2)


def _factor_matrix(p, name: str) -> Gf2Matrix:
    """The factor of ``_TERMS`` of that name, from p's blocks: an identity on
    a dim, or a product of two of its A, B, D and X1 matrices."""
    if name in ("a0", "a1", "a_inf"):
        return Gf2Matrix.identity(getattr(p, name))
    mats = {"X1": p.xs[1]}
    for label, blocks in zip(("0", "1", "inf"), p.blocks):
        mats.update({letter + label: m for letter, m in zip("ABD", blocks)})
    first, second = name.split()
    return mats[first] @ mats[second]


def test_a_side_masks_exactly_the_terms_whose_factor_is_nonzero():
    packages = list({id(p): p for pair in _oracle_pairs() for p in pair}.values())
    packages += [synthetic_package(0, (0, 0, 0)), synthetic_package(0, (0, 2, 1))]
    terms = [pair for pairs in splice._TERMS.values() for pair in pairs]
    seen = set()
    for p in packages:
        for side in (0, 1):
            made = duality._from_entry(p, splice._side, side)
            assert len(made.factors) == len(terms) == 31
            for t, pair in enumerate(terms):
                m = _factor_matrix(p, pair[side])
                assert made.factors[t] == kron_factor(m), (p.dims, side, pair)
                nonzero = not m.is_zero()
                assert bool(made.mask >> t & 1) == nonzero, (p.dims, side, pair)
                seen.add(nonzero)
            assert made.mask >> len(terms) == 0
    assert seen == {True, False}
    assert duality._from_entry(synthetic_package(0, (0, 0, 0)), splice._side, 0).mask == 0


def test_a_factor_of_the_wrong_shape_fails_when_its_side_is_made(monkeypatch):
    p = synthetic_package(0, (1, 2, 3))
    # row blocks 0 and 1 swapped: block (0,0)'s factors no longer fit
    rows = splice._ROW_BLOCKS
    monkeypatch.setattr(splice, "_ROW_BLOCKS", (rows[1], rows[0], *rows[2:]))
    for side, slot in ((0, "3x3"), (1, "2x3")):
        with pytest.raises(ShapeMismatch, match=rf"block \(0,0\) has a factor 1x3, slot needs {slot}"):
            duality._from_entry(p, splice._side, side)
    with pytest.raises(ShapeMismatch, match=r"block \(0,0\)"):
        build_D(p, p)
    assert not [key for key in p._store if key[0] is splice._side]
    monkeypatch.undo()
    assert build_D(p, p) == reference_build_D(p, p)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: splice_rank(None, None),
        lambda p: splice_rank(p, None),
        lambda p: splice_rank("trefoil_staircase", p),
        lambda p: build_D(p, corpus("trefoil_staircase")),
    ],
    ids=["none", "second-none", "first-name", "second-complex"],
)
def test_a_splice_of_something_else_is_a_typed_error(call):
    with pytest.raises(ShapeMismatch, match="both must be SurgeryPackages") as info:
        call(pkg("trefoil_staircase"))
    assert info.type is ShapeMismatch


def test_build_D_operation_budget(monkeypatch):
    # cold, each knot's 14 products are made once and the rows of D are
    # written straight from them: no sum, no block grid, and no matrix built
    # besides the 28 products, the 6 identity factors and D itself.  Warm,
    # the factors come from the packages' stores, so D is the only matrix built
    ceiling = {"__matmul__": 28, "_trusted": 28 + 6 + 1, "__add__": 0, "__init__": 0, "assemble": 0}
    # packages of the test's own, with empty stores: no factors yet
    with own_packages():
        pairs = [
            (pkg("t34_staircase"), pkg("fig8_box")),
            (pkg("trefoil_staircase"), pkg("trefoil_staircase")),
            (synthetic_package(1, (2, 3, 1)), pkg("t25_staircase")),
        ]
    counts = Counter()
    counted_ops = [(Gf2Matrix, name) for name in ceiling if name != "assemble"] + [(BlockGrid, "assemble")]
    for owner, name in counted_ops:
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for p1, p2 in pairs:
        counts.clear()
        d = build_D(p1, p2)
        assert {name: n for name, n in counts.items() if n > ceiling[name]} == {}, (p1.dims, p2.dims)
        assert counts["__matmul__"] == 28, (p1.dims, p2.dims)  # the wrappers count
        counts.clear()
        assert build_D(p1, p2) == d
        assert counts == {"_trusted": 1}, (p1.dims, p2.dims)
    monkeypatch.undo()
    assert d == reference_build_D(p1, p2)


def test_unknot_identity_h():
    assert splice_rank(pkg("unknot"), pkg("unknot")).h == 1


def test_trefoil_unknot_shape_audit_and_h():
    p1, p2 = pkg("trefoil_staircase"), pkg("unknot")
    d = build_D(p1, p2)
    # each block of D is (first knot's dim) x (second knot's dim) wide or high
    assert d.matrix.rows == sum(p1.dims[a] * p2.dims[b] for a, b in splice._ROW_BLOCKS)
    assert d.matrix.cols == sum(p1.dims[a] * p2.dims[b] for a, b in splice._COL_BLOCKS)
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
            d = build_D(packs[n1], packs[n2]).matrix
            diff = d.cols - d.rows
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


# -- the five violation cases ---------------------------------------------------


@dataclass(frozen=True)
class SCase:
    s1: bool
    s2: bool
    s3: bool
    s4: bool
    s5: bool

    @property
    def satisfied(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, flag in zip(("S1", "S2", "S3", "S4", "S5"), (self.s1, self.s2, self.s3, self.s4, self.s5))
            if flag
        )


def classify_S(st: PackageStats) -> SCase:
    """Evaluate the five rank conditions on the second knot's statistics."""
    a0, a1, ai = st.a0, st.a1, st.a_inf
    r0, r1, ri = st.r0, st.r1, st.r_inf
    return SCase(
        s1=r0 <= r1 == ri == a1 == ai < a0,
        s2=r0 == r1 == ai <= ri and ai < a1 and ai < a0,
        s3=r0 == ri == a1 <= r1 and a1 < ai and a1 < a0,
        s4=r0 == ai and ri == a0 and a1 >= a0 and a1 >= ai,
        s5=r0 == a1 and r1 == a0 and ai >= a0 and ai >= a1,
    )


def test_classify_S_paper_instances():
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

    for a0, a1, ai in product(range(4), repeat=3):
        for r0, r1, ri in product(range(4), repeat=3):
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


def test_subspace_bounds_read_from_stats_equal_the_eliminated_ones():
    packages = [geometric_package(c) for c in oracle_models() if c.symmetry is not None or c.tau_override is not None]
    packages += [synthetic_package(seed, dims) for seed in range(4) for dims in ((1, 2, 2), (2, 3, 1), (3, 2, 0))]
    assert len(packages) > 40
    for p1 in packages:
        for p2 in packages:
            assert subspace_bounds(p1, p2) == reference_subspace_bounds(p1, p2), (p1.dims, p2.dims)


def test_a_warm_subspace_bounds_makes_no_product(monkeypatch):
    # the kernel and cokernel dims of each knot's B blocks and of their
    # products of two are kept per package value, as are the factors of D
    packages = [pkg(name) for name in corpus_names()]
    pairs = list(product(packages, repeat=2))
    pairs += [(synthetic_package(seed, (2, 1, 2)), synthetic_package(seed + 500, (2, 1, 2))) for seed in (0, 13)]
    cold = [subspace_bounds(p1, p2) for p1, p2 in pairs]
    met = {r.label.split()[0] for records in cold for r in records if r.hypothesis_met}
    assert met == {"case1", "case2", "remark"}
    counts = Counter()
    matmul = Gf2Matrix.__matmul__

    def counted(*args):
        counts["@"] += 1
        return matmul(*args)

    monkeypatch.setattr(Gf2Matrix, "__matmul__", counted)
    assert [subspace_bounds(p1, p2) for p1, p2 in pairs] == cold
    assert counts == Counter()
    monkeypatch.undo()
    assert cold == [reference_subspace_bounds(p1, p2) for p1, p2 in pairs]


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
    verdict = theorem_check(pkg("trefoil_staircase"), pkg("trefoil_staircase"))
    assert verdict.applicable
    assert verdict.holds
    assert verdict.h >= 1
    assert verdict.witness_bounds_hold


@pytest.fixture(scope="module")
def geometric_verdicts() -> dict[tuple[str, str], tuple[TheoremVerdict, int]]:
    """theorem_check on every ordered pair of the corpus, its mirrors and
    random_complex seeds 0-11 (32 knots, 1,024 pairs), by name, each with
    the first knot's y_inf."""
    knots = [corpus(name) for name in corpus_names()]
    knots += [mirror(c) for c in knots] + [random_complex(seed) for seed in range(12)]
    packages = {c.name: geometric_package(c) for c in knots}
    return {
        (a, b): (theorem_check(packages[a], packages[b]), stats(packages[a]).y_inf)
        for a, b in product(packages, repeat=2)
    }


def test_the_theorem_holds_on_every_pair_of_geometric_knots(geometric_verdicts):
    # the six-term witness bounds hold on every pair, and h >= y_inf(K1) on
    # every pair whose second knot sits in a sphere of rank 1: the 20
    # corpus knots and mirrors, and random-7
    assert len(geometric_verdicts) == 1024
    assert all(v.witness_bounds_hold for v, _ in geometric_verdicts.values())
    applicable = {pair: (v, y) for pair, (v, y) in geometric_verdicts.items() if v.applicable}
    assert len({b for _, b in applicable}) == 21 and "random-7" in {b for _, b in applicable}
    assert len(applicable) == 21 * 32 == 672
    # the bound is the first knot's y_inf: the second's is 1 on every such pair
    assert all(v.holds and v.lower_bound == y and v.margin == v.h - y for v, y in applicable.values())


def test_the_theorem_is_tight_exactly_on_the_unknot_pairs(geometric_verdicts):
    # margin 0 when either knot is the unknot or its mirror: 64 pairs with
    # it second and 38 with it first (the other 19 applicable second knots),
    # and at least 6 on every other applicable pair
    unknots = {"unknot", "unknot-mirror"}
    margins = {pair: v.margin for pair, (v, _) in geometric_verdicts.items() if v.applicable}
    tight = {pair for pair, margin in margins.items() if margin == 0}
    assert tight == {pair for pair in margins if unknots & set(pair)}
    assert len(tight) == 102
    assert sum(b in unknots for _, b in tight) == 64
    assert min(margin for pair, margin in margins.items() if pair not in tight) == 6


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
        h, h_mirrored = mirrored_h(corpus(n1), corpus(n2))
        assert h == h_mirrored, (n1, n2, h, h_mirrored)


def test_random_complex_pairs_witness_bounds():
    packs = [geometric_package(random_complex(seed)) for seed in range(5)]
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
    assert rank.coker == len(d.transpose().kernel_basis())
    report = kernel_witnesses(p1, p2)
    assert (report.ker_dim, report.coker_dim) == (rank.ker, rank.coker)


def test_kernel_witnesses_match_the_full_product_loop():
    names = ("unknot", "trefoil_staircase", "trefoil_staircase_mirror", "fig8_box", "t25_staircase", "t34_staircase")
    packs = [pkg(n) for n in names]
    packs += [geometric_package(random_complex(seed)) for seed in range(4)]
    packs += [synthetic_package(seed, dims) for seed, dims in ((1, (1, 2, 2)), (2, (2, 1, 3)), (3, (3, 2, 0)))]
    for p1, p2 in product(packs, repeat=2):
        report, found = reference_kernel_witnesses(p1, p2)
        assert kernel_witnesses(p1, p2) == report
        assert sorted(splice._nonzero_witnesses(p1, p2)) == sorted(w for _, w in found)


def _flipped(side: KronSide, t: int, r: int, c: int) -> KronSide:
    """side with bit (r, c) of its factor of term t flipped: a fault in
    one knot's splice side, which D and the per-knot check both read."""
    f = side.factors[t]
    rows = dict(f.nonzero_rows)
    m = Gf2Matrix(f.rows, f.cols, [rows.get(i, 0) ^ ((i == r) << c) for i in range(f.rows)])
    factors = list(side.factors)
    factors[t] = kron_factor(m)
    return kron_side(side.row_dims, side.col_dims, side.blocks, factors)


def _inject(p, side: int, t: int, r: int, c: int) -> KronSide:
    """Put into p's store its splice side ``side`` with bit (r, c) of term
    t's factor flipped, before anything reads it; p must be the test's own
    (see ``packages.own_packages``)."""
    faulty = _flipped(duality._from_entry(p, splice._side, side), t, r, c)
    p._store[(splice._side, side)] = faulty
    return faulty


def _named_pair(check, p1, p2) -> int | None:
    """The pair number that check's WitnessNotInKernel names, or None when
    it does not raise; an error that names no pair fails the test."""
    try:
        check(p1, p2)
    except WitnessNotInKernel as error:
        found = re.search(r"pair #(\d+) ", str(error))
        assert found, str(error)
        return int(found.group(1))
    return None


def test_witness_outside_kernel_names_its_pair():
    # bit (0, 1) of the first knot's Binf B1 in block (3, 0) flipped: D, as
    # kron_blocks assembles it from the faulty sides, fails a witness that
    # is not the first, and so must the per-knot check, naming it
    with own_packages():
        p1 = p2 = pkg("trefoil_staircase")
        t = splice._TERM_LIST.index(((3, 0), ("Binf B1", "a_inf")))
        faulty = _inject(p1, 0, t, 0, 1)
        broken = kron_blocks(faulty, duality._from_entry(p2, splice._side, 1))
        witnesses = [
            assemble_witness(t1, t2, p1, p2)
            for t1, t2 in product(basis_tuples(p1), basis_tuples(p2))
        ]
        first_bad = next(i for i, v in enumerate(witnesses, 1) if v and mul_vec(broken, v))
        assert first_bad > 1
        assert build_D(p1, p2).matrix == broken
        with pytest.raises(WitnessNotInKernel, match=rf"pair #{first_bad} "):
            kernel_witnesses(p1, p2)


# The knots of the fault property, each (kind, how to build it): corpus,
# random and synthetic models.
_FAULT_KNOTS = (
    *(("corpus", name) for name in ("unknot", "trefoil_staircase", "fig8_box", "t25_staircase", "t34_staircase")),
    *(("random", seed) for seed in range(4)),
    *(("synthetic", seed, dims) for seed, dims in ((1, (1, 2, 2)), (2, (2, 1, 3)), (3, (3, 2, 0)), (14, (1, 3, 3)))),
)


def _fault_knot(knot):
    kind, *args = knot
    if kind == "corpus":
        return pkg(*args)
    if kind == "random":
        return geometric_package(random_complex(*args))
    return synthetic_package(*args)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(_FAULT_KNOTS),
    st.sampled_from(_FAULT_KNOTS),
    st.sampled_from((0, 1)),
    st.integers(0, 10**6),
)
@example(("corpus", "trefoil_staircase"), ("corpus", "trefoil_staircase"), 0, 0)  # passes
@example(("corpus", "trefoil_staircase"), ("corpus", "trefoil_staircase"), 0, 43)  # fails at pair 2
@example(("corpus", "t34_staircase"), ("random", 2), 1, 23)  # fails at pair 74
@example(("synthetic", 14, (1, 3, 3)), ("corpus", "fig8_box"), 0, 5)  # fails at pair 19
def test_the_per_knot_check_gives_the_verdict_of_D_under_one_flipped_bit(knot1, knot2, side, pick):
    # one bit of one factor flipped in either knot's side: the per-knot
    # check fails exactly when the D of the faulty sides leaves some witness
    # outside its kernel, and then names the same pair as the reference
    with own_packages():
        p1, p2 = _fault_knot(knot1), _fault_knot(knot2)
        p = (p1, p2)[side]
        bits = [
            (t, r, c)
            for t, f in enumerate(duality._from_entry(p, splice._side, side).factors)
            for r in range(f.rows)
            for c in range(f.cols)
        ]
        if bits:
            _inject(p, side, *bits[pick % len(bits)])
        want = _named_pair(reference_kernel_witnesses, p1, p2)
        assert _named_pair(kernel_witnesses, p1, p2) == want
        if want is None:
            assert kernel_witnesses(p1, p2) == reference_kernel_witnesses(p1, p2)[0]
        else:
            # a failed check keeps nothing, so it raises again, warm or not
            assert (splice._pair_witnesses, p2.dims, p2.taus) not in p1._store
            assert _named_pair(kernel_witnesses, p1, p2) == want
            assert _named_pair(theorem_check, p1, p2) == want
            assert not _pair_keys(p1) and not _pair_keys(p2)


def _pair_keys(p) -> list:
    """The keys of the pair values in p's store."""
    return [key for key in p._store if key[0] in (splice._pair_rank, splice._pair_witnesses, splice._pair_bounds)]


def _counting(monkeypatch, counts: Counter) -> None:
    """Counts, in ``counts``, each call of what a check call would redo
    without its pair values: D built, the witnesses built and their span,
    the per-knot images and families, and any transpose or product."""
    for owner, name in (
        (Gf2Matrix, "transpose"),
        (Gf2Matrix, "__matmul__"),
        (splice, "build_D"),
        (splice, "_nonzero_witnesses"),
        (splice, "span_dim"),
        (splice, "_witness_images"),
        (splice, "_family_parts"),
    ):
        def counted(*args, _real=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)


def _made(counts: Counter) -> dict:
    """The counts of ``_counting`` but for transposes and products, which a
    cold call makes for each knot's per-value values."""
    return {name: n for name, n in counts.items() if name not in ("transpose", "__matmul__")}


def test_kernel_witnesses_operation_budget(monkeypatch):
    # warm, the witness report is read from the pair values: no witness
    # built, no span taken, no D built, no transpose and no matrix product
    p1 = geometric_package(torus_staircase(4, 7))
    p2 = geometric_package(torus_staircase(5, 6))
    pairs = [(p1, p2), (pkg("t34_staircase"), pkg("fig8_box")), (pkg("trefoil_staircase"),) * 2]
    reports = [kernel_witnesses(*pair) for pair in pairs]
    counts = Counter()
    _counting(monkeypatch, counts)
    assert [kernel_witnesses(*pair) for pair in pairs] == reports
    assert counts == Counter()
    assert reports[0].nonzero == 838


def test_a_check_call_builds_D_at_most_once(monkeypatch):
    # cold, theorem_check and subspace_bounds of one pair build D once
    # between them and the witnesses once; warm, neither builds anything.
    # A cold subspace_bounds alone builds D once and no witness
    with own_packages():
        counts = Counter()
        _counting(monkeypatch, counts)
        c1, c2 = corpus("t34_staircase"), corpus("fig8_box")
        p1, p2 = geometric_package(c1), geometric_package(c2)
        verdict, bounds = theorem_check(p1, p2), subspace_bounds(p1, p2)
        # cold, each knot's images and families are made once, with products
        assert _made(counts) == {
            "build_D": 1,
            "_nonzero_witnesses": 1,
            "span_dim": 1,
            "_witness_images": 2,
            "_family_parts": 2,
        }
        # warm: the same packages, and the same again from equal complexes
        # while the first two live
        for q1, q2 in ((p1, p2), (pkg("t34_staircase"), pkg("fig8_box"))):
            assert q1 is p1 and q2 is p2
            counts.clear()
            assert (theorem_check(q1, q2), subspace_bounds(q1, q2)) == (verdict, bounds)
            assert counts == Counter()
        counts.clear()
        q1, q2 = pkg("trefoil_staircase"), pkg("t25_staircase")
        alone = subspace_bounds(q1, q2)
        assert _made(counts) == {"build_D": 1}
        # the other order is another pair, kept in the other package's store
        counts.clear()
        subspace_bounds(q2, q1)
        assert _made(counts) == {"build_D": 1}
        counts.clear()
        assert subspace_bounds(q1, q2) == alone and counts == Counter()
        monkeypatch.undo()

def test_a_pair_value_holds_ints_and_no_other_entry():
    # the pair values are the SpliceRank, the WitnessReport and the tuple of
    # SubspaceBounds, frozen records of ints, flags and labels, keyed on the
    # second package's dims and taus: no D, no witness list, no package or
    # store
    p1, p2 = geometric_package(torus_staircase(4, 7)), geometric_package(torus_staircase(5, 6))
    report, bounds = kernel_witnesses(p1, p2), subspace_bounds(p1, p2)
    value = (p2.dims, p2.taus)
    assert sorted(_pair_keys(p1), key=repr) == sorted(
        [(splice._pair_rank, *value), (splice._pair_witnesses, *value), (splice._pair_bounds, *value)], key=repr
    )
    assert _pair_keys(p2) == []
    records = (splice.SpliceRank, splice.WitnessReport, splice.SubspaceBound)
    for key in _pair_keys(p1):
        held = list(reachable(p1._store[key]))
        assert all(type(x) in (int, bool, str, type(None), tuple, *records) for x in held), key
        assert {type(x) for x in reachable(key[1:])} <= {int, tuple, Gf2Matrix}
    rank = splice_rank(p1, p2)
    assert p1._store[(splice._pair_rank, *value)] == rank
    assert p1._store[(splice._pair_witnesses, *value)] == report
    assert p1._store[(splice._pair_bounds, *value)] == tuple(bounds)
    # a caller gets a list of its own: changing it leaves the pair's value
    bounds.clear()
    assert subspace_bounds(p1, p2) == list(p1._store[(splice._pair_bounds, *value)]) != []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FAULT_KNOTS), st.sampled_from(_FAULT_KNOTS))
@example(("corpus", "t34_staircase"), ("corpus", "fig8_box"))
@example(("synthetic", 14, (1, 3, 3)), ("random", 2))
def test_warm_check_reports_equal_cold_ones_and_the_reference(knot1, knot2):
    # in both orders: the cold reports, the warm ones read from the pair
    # values by the same packages, those of equal packages built by hand,
    # which compute their own, and the reference all agree
    for first, second in ((knot1, knot2), (knot2, knot1)):
        p1, p2 = _fault_knot(first), _fault_knot(second)
        cold = kernel_witnesses(p1, p2), subspace_bounds(p1, p2), theorem_check(p1, p2)
        assert (kernel_witnesses(p1, p2), subspace_bounds(p1, p2), theorem_check(p1, p2)) == cold
        q1, q2 = copy.copy(p1), copy.copy(p2)
        assert (q1, q2) == (p1, p2) and not q1._store and not q2._store
        assert (kernel_witnesses(q1, q2), subspace_bounds(q1, q2), theorem_check(q1, q2)) == cold
        assert cold[0] == reference_kernel_witnesses(p1, p2)[0]
        assert cold[1] == reference_subspace_bounds(p1, p2)
        assert cold[2].h == splice_rank(p1, p2).h == cold[0].ker_dim + cold[0].coker_dim


random_models = st.integers(0, 300).map(lambda seed: geometric_package(random_complex(seed)))


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
    c = random_complex(seed)
    p = geometric_package(c)
    assert splice_rank(p, pkg("unknot")).h == stats(p).y_inf == hf_hat(c).dim


@settings(max_examples=20)
@given(st.integers(0, 300), st.integers(0, 300))
def test_h_is_mirror_invariant_on_random_models(seed1, seed2):
    h, h_mirrored = mirrored_h(random_complex(seed1), random_complex(seed2))
    assert h == h_mirrored, (h, h_mirrored)


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
