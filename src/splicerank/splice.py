"""The splice matrix, its rank invariant, witnesses, bounds and verdicts.

The 6x6-block matrix D of the splicing formula is assembled from the
normalized duality blocks of the two knots; its kernel plus cokernel rank is
the rank of the hat invariant of the spliced manifold.  Column blocks follow
the six-component witness vector of the linear-algebra argument, row blocks
the printed order of the block matrix.  Identity block sizes are the unique
shape-consistent choices.  Each of D's 24 nonzero blocks is a sum of
Kronecker products (factor of the first knot) ⊗ (factor of the second knot),
31 terms in all (``_TERMS``); ``tests/oracles.reference_build_D`` keeps the
block-by-block assembly as the reference.

A knot's splice sides, witness families and witness images are read from
its package alone, so the package keeps them in its store (see
``duality``), checked once when made.  What joins two knots, the rank of D,
the witness report and the subspace bounds, depends on the pair's two
values alone: the check path keeps it in the first package's store, keyed
on the second package's value (its dims and taus), so no store keeps
another package alive.  A theorem check and the bounds of one pair thus
build D once between them, and a warm one builds no D, witness or report
and reads its frozen records from the store.  ``splice_rank`` itself keeps
nothing.

Column layout and kernel witnesses
----------------------------------
Block k of D's columns holds Kronecker products u ⊗ v, u of length
p1.left and v of length p2.right (``_COL_BLOCKS``), bit a * n + b of u ⊗ v
for bits a of u and b of v, n = p2.right.  Each knot has six witness
families (``_family_parts``), two per index k of the cycle: z_k = Ker
B_next(k), and w_k, the kernel of (B_prev(k) 0; D_prev(k) + A_next(k)
B_next(k)), whose vectors have parts (x, y) split at a_k; a vector of z_k is
one part z.  The witness W(u, v) of a pair of vectors, one per knot, is a
sum of terms, each a part of the first times a part of the second in one
column block; ``_WITNESS_TERMS`` lists them for the six family pairs that
have any, and every other family pair (30 of the 36) gives the witness 0.
A term x ⊗ v is built as v * spread(x, n) (see ``gf2.spread``).

The check that D annihilates every witness is made per knot, without D.
Term t of D, L_t ⊗ R_t, sends x ⊗ y to (L_t x) ⊗ (R_t y).  So row block i
of D·W(u_a, v_b) is the sum, over the terms s in row block i whose column
block the pair's terms hit (``_WITNESS_CHECKS``), of (L_s x_a) ⊗ (R_s y_b),
x_a the term's part of u_a and y_b of v_b.  Each knot keeps every such image
of all of its family's vectors flattened into one int,
P_s = Σ_a (L_s x_a) << (a * L_s.rows), and Q_s likewise on the other side.
Entry ((r1, a), (r2, b)) of Σ_s P_s Q_sᵀ is then row (r1, r2) of row block
i of D·W(u_a, v_b), so D annihilates every witness of the pair in that row
block exactly when the sum is zero, and a nonzero entry names a pair
(u_a, v_b) whose witness is outside Ker D.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

from .duality import CYCLE, SurgeryPackage, _b_nullities, _from_entry, stats
from .errors import WitnessNotInKernel, require_type
from .gf2 import (
    BlockGrid,
    Gf2Matrix,
    KronSide,
    kron_blocks,
    kron_factor,
    kron_side,
    outer_sum_rows,
    span_dim,
    spread,
)


class SpliceMatrix(NamedTuple):
    """The splice matrix D of a package pair."""

    matrix: Gf2Matrix


# D's column blocks: the positions in ``SurgeryPackage.dims`` of the dims
# (first knot, second knot) whose product is the block's width,
# (a_inf, a_inf), (a_inf, a0), (a1, a0), (a0, a_inf), (a0, a1), (a1, a1).
_COL_BLOCKS = ((2, 2), (2, 0), (1, 0), (0, 2), (0, 1), (1, 1))

# D's row blocks, in the printed order of the block matrix, in the same form:
# (a0, a0), (a_inf, a1), (a_inf, a0), (a1, a_inf), (a0, a_inf), (a1, a1).
_ROW_BLOCKS = ((0, 0), (2, 1), (2, 0), (1, 2), (0, 2), (1, 1))

# The position in ``SurgeryPackage.dims`` of each dim a factor of _TERMS names.
_DIMS = {"a0": 0, "a1": 1, "a_inf": 2}

# D's nonzero blocks (row block, column block), each a sum of Kronecker
# products (first knot's factor) ⊗ (second knot's factor).  A factor is a
# dim, standing for the identity on it, or a product of two of the knot's
# matrices in the printed order: "Dinf B1" is blocks[2].D @ blocks[1].B, and
# "X1" is xs[1].
_TERMS = {
    (0, 0): (("Dinf B1", "B1 A0"),),
    (0, 1): (("B1 A0", "a0"),),
    (0, 2): (("B1 B0", "a0"),),
    (0, 3): (("Dinf A1", "B1 A0"),),
    (0, 4): (("a0", "B1 B0"),),
    (1, 0): (("a_inf", "Binf B1"),),
    (1, 1): (("D1 A0", "Binf A1"),),
    (1, 2): (("D1 B0", "Binf A1"),),
    (1, 4): (("B0 Binf", "a1"),),
    (1, 5): (("B0 Ainf", "a1"),),
    (2, 0): (("a_inf", "Dinf B1"),),
    (2, 1): (("a_inf", "a0"), ("D1 A0", "Dinf A1")),
    (2, 2): (("D1 B0", "Dinf A1"),),
    (3, 0): (("Binf B1", "a_inf"),),
    (3, 2): (("a1", "B0 Binf"),),
    (3, 3): (("Binf A1", "a_inf"),),
    (3, 4): (("D0 Binf", "B0 Ainf"), ("X1 Binf", "B0 X1")),
    (3, 5): (("D0 Ainf", "B0 Ainf"), ("X1 Ainf", "B0 X1")),
    (4, 0): (("Dinf B1", "D1 A0"),),
    (4, 3): (("a0", "a_inf"), ("Dinf A1", "D1 A0")),
    (4, 4): (("a0", "D1 B0"),),
    (5, 2): (("a1", "D0 Binf"),),
    (5, 4): (("D0 Binf", "D0 Ainf"), ("X1 Binf", "D0 X1")),
    (5, 5): (("a1", "a1"), ("D0 Ainf", "D0 Ainf"), ("X1 Ainf", "D0 X1")),
}
# Each term of D in _TERMS order: its block and its two factors' names.
_TERM_LIST = tuple((block, pair) for block, pairs in _TERMS.items() for pair in pairs)
_TERM_BLOCKS = tuple([block for block, _ in _TERM_LIST])


def _side(p: SurgeryPackage, side: int) -> KronSide:
    """One knot's splice side, as the first knot (side 0) or the second (1):
    its factor of each term of D (see ``_TERMS``), each distinct one laid out
    once, and each checked by ``kron_side`` against the dims that
    ``_ROW_BLOCKS`` and ``_COL_BLOCKS`` give its block; kept by p."""
    dims, mats = p.dims, {"X1": p.xs[1]}
    for k, blocks in zip(CYCLE, p.blocks):
        mats.update({letter + k.label: m for letter, m in zip("ABD", blocks)})
    laid = {}
    for _, pair in _TERM_LIST:
        name = pair[side]
        if name not in laid:
            if name in _DIMS:
                m = Gf2Matrix.identity(dims[_DIMS[name]])
            else:
                first, second = name.split()
                m = mats[first] @ mats[second]
            laid[name] = kron_factor(m)
    return kron_side(
        [dims[block[side]] for block in _ROW_BLOCKS],
        [dims[block[side]] for block in _COL_BLOCKS],
        _TERM_BLOCKS,
        [laid[pair[side]] for _, pair in _TERM_LIST],
    )


def build_D(p1: SurgeryPackage, p2: SurgeryPackage) -> SpliceMatrix:
    """Assemble the splice matrix of a package pair in one pass from the
    two knots' sides, read from their packages' stores:
    only the terms nonzero on both sides are written."""
    require_type(SurgeryPackage, p1, p2, message="splice of {0!r} and {1!r}: both must be SurgeryPackages")
    return SpliceMatrix(kron_blocks(_from_entry(p1, _side, 0), _from_entry(p2, _side, 1)))


@dataclass(frozen=True)
class SpliceRank:
    """The rank h of the splice's hat invariant, dim Ker D + dim Coker D."""

    h: int
    ker: int
    coker: int


def splice_rank(p1: SurgeryPackage, p2: SurgeryPackage) -> SpliceRank:
    """Rank of the hat invariant of the splice: dim Ker + dim Coker.  Each
    call builds and eliminates D; the check path reads it once per pair
    (``_pair_rank``)."""
    d = build_D(p1, p2).matrix
    rank = d.rank()
    ker, coker = d.cols - rank, d.rows - rank
    return SpliceRank(ker + coker, ker, coker)


def _pair_rank(p1: SurgeryPackage, p2: SurgeryPackage) -> SpliceRank:
    """The pair's ``splice_rank``, kept by the check path under this key:
    a wrapper put on the name ``splice_rank`` (a trace, say) runs on a miss
    and changes no key."""
    return splice_rank(p1, p2)


# -- kernel witnesses and the six-term bounds --------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """The kernel witnesses of a pair: how many were checked and are
    nonzero, and the span they reach, beside the six-term bounds and the
    kernel and cokernel dims of D."""

    checked: int
    nonzero: int
    ker_bound: int
    coker_bound: int
    ker_dim: int
    coker_dim: int
    witness_span: int

    @property
    def bounds_hold(self) -> bool:
        return self.ker_dim >= self.ker_bound and self.coker_dim >= self.coker_bound


# The family pairs (first knot, second knot) that give a nonzero witness, with
# their terms (column block of D, part of the first knot's vector, part of
# the second's); see the module docstring.  No pair hits a column block twice.
_WITNESS_TERMS = {
    ("w0", "w_inf"): ((0, "y", "x"), (3, "x", "x"), (4, "x", "y")),
    ("w_inf", "w0"): ((0, "x", "y"), (1, "x", "x"), (2, "y", "x")),
    ("w1", "w1"): ((2, "x", "y"), (4, "y", "x"), (5, "x", "x")),
    ("z0", "z0"): ((0, "z", "z"),),
    ("z_inf", "z1"): ((2, "z", "z"),),
    ("z1", "z_inf"): ((4, "z", "z"),),
}

# The checks of the witnesses, one per family pair of _WITNESS_TERMS and row
# block of D that its witnesses meet: the pair, and each term of D in the
# row block whose column block the pair hits, as its index in _TERM_LIST
# with the pair's parts (first knot's, second knot's) in that column block.
_WITNESS_CHECKS = tuple(
    (pair, group)
    for pair, terms in _WITNESS_TERMS.items()
    for group in (
        tuple(
            (t, (part1, part2))
            for t, ((i, j), _) in enumerate(_TERM_LIST)
            if i == row
            for block, part1, part2 in terms
            if block == j
        )
        for row in range(len(_ROW_BLOCKS))
    )
    if group
)


def _family_parts(p: SurgeryPackage) -> Mapping[str, tuple[Mapping[str, int], ...]]:
    """One knot's witness families, w_k and z_k for each index k, their
    vectors split into their parts, by family, in pair-numbering order;
    kept by p (see the module docstring)."""
    blocks = p.blocks
    out = {}
    for (suffix, _, prev, nxt), a in zip(CYCLE, p.dims):
        before, after = blocks[prev], blocks[nxt]
        grid = BlockGrid(
            (before.B.rows, after.B.rows),
            (a, after.B.cols),
            {(0, 0): before.B, (1, 0): before.D + after.A, (1, 1): after.B},
        )
        out["w" + suffix] = tuple(
            [MappingProxyType({"x": w & ((1 << a) - 1), "y": w >> a}) for w in grid.assemble().kernel_basis()]
        )
    for k in CYCLE:
        out["z" + k.suffix] = tuple([MappingProxyType({"z": z}) for z in blocks[k.next].B.kernel_basis()])
    return MappingProxyType(out)


def _witness_images(p: SurgeryPackage, side: int) -> tuple[tuple[int, ...], ...]:
    """One knot's witness images as the first knot (side 0) or the second
    (1): for each check of ``_WITNESS_CHECKS`` and each of its terms, the
    side's factor F of the term applied to the term's part x_a of every
    vector a of the side's family, stacked as Σ_a (F·x_a) << (a·F.rows);
    kept by p per side (see the module docstring)."""
    factors = _from_entry(p, _side, side).factors
    families = _from_entry(p, _family_parts)
    out = []
    for pair, group in _WITNESS_CHECKS:
        images = []
        for t, parts in group:
            f, image = factors[t], 0
            for a, u in enumerate(families[pair[side]]):
                x = u[parts[side]]
                for r, b in f.nonzero_rows:
                    if (b & x).bit_count() & 1:
                        image |= 1 << (a * f.rows + r)
            images.append(image)
        out.append(tuple(images))
    return tuple(out)


def _nonzero_witnesses(p1: SurgeryPackage, p2: SurgeryPackage) -> list[int]:
    """Every nonzero witness of the pair."""
    fam1, fam2 = _from_entry(p1, _family_parts), _from_entry(p2, _family_parts)
    blocks = []  # (offset in D's columns, length of the second knot's factor)
    at = 0
    for left, right in _COL_BLOCKS:
        blocks.append((at, p2.dims[right]))
        at += p1.dims[left] * p2.dims[right]
    found = []
    for (name1, name2), terms in _WITNESS_TERMS.items():
        seconds = [tuple([v[part2] for _, _, part2 in terms]) for v in fam2[name2]]
        for u in fam1[name1]:
            # u's nonzero part of each term spread once, at its column
            # block's offset: y * spread is then that part ⊗ y (see
            # gf2.spread)
            spreads = [
                (k, spread(u[part1], blocks[block][1]) << blocks[block][0])
                for k, (block, part1, _) in enumerate(terms)
                if u[part1]
            ]
            for ys in seconds:
                w = 0
                for k, s in spreads:
                    w ^= ys[k] * s
                if w:
                    found.append(w)
    return found


def _pair_witnesses(p1: SurgeryPackage, p2: SurgeryPackage) -> WitnessReport:
    """The pair's ``kernel_witnesses`` report, once the per-knot check has
    found every witness in Ker D: the value the check path keeps in the
    first package's store (see the module docstring).  A failed check
    raises, naming the first witness outside Ker D in pair order, so nothing
    is kept: the pair of the i-th vector of the first knot's families
    concatenated and the j-th of the second's is pair number
    i * width + j + 1, width the second knot's vector count."""
    left, right = _from_entry(p1, _witness_images, 0), _from_entry(p2, _witness_images, 1)
    fam1, fam2 = _from_entry(p1, _family_parts), _from_entry(p2, _family_parts)
    start1 = dict(zip(fam1, accumulate(map(len, fam1.values()), initial=0)))
    start2 = dict(zip(fam2, accumulate(map(len, fam2.values()), initial=0)))
    width = sum(map(len, fam2.values()))
    outside = []  # the pair number of each witness found outside Ker D
    for ((name1, name2), group), ps, qs in zip(_WITNESS_CHECKS, left, right):
        k1, k2 = _ROW_BLOCKS[_TERM_BLOCKS[group[0][0]][0]]
        rows1, rows2 = p1.dims[k1], p2.dims[k2]
        # a nonzero row (r1, a), at bit a * rows1 + r1, is one of u_a's: its
        # lowest bit b * rows2 + r2 names its first pair (u_a, v_b)
        outside += [
            (start1[name1] + at // rows1) * width + start2[name2] + ((q & -q).bit_length() - 1) // rows2 + 1
            for at, q in outer_sum_rows(zip(ps, qs)).items()
        ]
    if outside:
        raise WitnessNotInKernel(f"witness from pair #{min(outside)} not annihilated by the splice matrix")
    found = _nonzero_witnesses(p1, p2)
    st1, st2 = stats(p1), stats(p2)
    rank = _from_entry(p1, _pair_rank, p2)
    ker_bound = (
        st1.k0 * st2.k0
        + st1.k_inf * st2.k1
        + st1.k1 * st2.k_inf
        + st1.l_inf * st2.l0
        + st1.l0 * st2.l_inf
        + st1.l1 * st2.l1
    )
    coker_bound = (
        st1.c_inf * st2.c_inf
        + st1.c0 * st2.c1
        + st1.c1 * st2.c0
        + st1.d_inf * st2.d0
        + st1.d0 * st2.d_inf
        + st1.d1 * st2.d1
    )
    checked = sum(map(len, fam1.values())) * width
    return WitnessReport(checked, len(found), ker_bound, coker_bound, rank.ker, rank.coker, span_dim(found))


def kernel_witnesses(p1: SurgeryPackage, p2: SurgeryPackage) -> WitnessReport:
    """Every basis witness checked to lie in Ker D, and both six-term bounds.

    The witnesses of the 30 family pairs outside ``_WITNESS_TERMS`` are 0 and
    only counted.  A failed check names the first witness, in pair order,
    outside Ker D; the report is the pair's value (see the module
    docstring), so a warm call reads it and builds no witness, D or record.
    """
    require_type(SurgeryPackage, p1, p2)
    return _from_entry(p1, _pair_witnesses, p2)


# -- subspace bounds (cyclic-triple and remark variants) -----------------------

@dataclass(frozen=True)
class SubspaceBound:
    """One tensor-factor bound: whether its hypothesis is met and, if it
    is, its kernel and cokernel bounds and whether D meets each."""

    label: str
    hypothesis_met: bool
    ker_bound: int | None = None
    coker_bound: int | None = None
    ker_ok: bool | None = None
    coker_ok: bool | None = None


def subspace_bounds(p1: SurgeryPackage, p2: SurgeryPackage) -> list[SubspaceBound]:
    """Tensor-factor lower bounds under the injectivity/surjectivity
    hypotheses, in a new list each call: the bounds are the pair's value
    (``_pair_bounds``), so a warm call builds no bound and eliminates
    nothing."""
    require_type(SurgeryPackage, p1, p2)
    return list(_from_entry(p1, _pair_bounds, p2))


def _pair_bounds(p1: SurgeryPackage, p2: SurgeryPackage) -> tuple[SubspaceBound, ...]:
    """The pair's ``subspace_bounds``, kept in the first package's store.

    The nullities come from each knot's ``duality._b_nullities`` and the rank
    of D from ``_pair_rank``.  The first knot's blocks are read through the
    involution 0 <-> inf.
    """
    # per knot: ker and coker of each B_k, then of each B_k B_prev(k)
    ker_1, coker_1, kk_1, cc_1 = _from_entry(p1, _b_nullities)
    ker_2, coker_2, kk_2, cc_2 = _from_entry(p2, _b_nullities)
    rank = _from_entry(p1, _pair_rank, p2)

    def bound(label: str, kb: int, cb: int) -> SubspaceBound:
        """The bound named label, whose hypothesis is met."""
        return SubspaceBound(label, True, kb, cb, rank.ker >= kb, rank.coker >= cb)

    # each bound's sizes are read only when its hypothesis is met; bullet is
    # next(circ) and star next(bullet), and the involution 0 <-> inf of the
    # first knot, k -> 2 - k, turns next into prev, so every product read
    # is some B_k B_prev(k)
    out = []
    for circ, bullet, star in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        label = "({},{},{})".format(*(CYCLE[k].label for k in (circ, bullet, star)))
        circ_1, bullet_1, star_1 = 2 - circ, 2 - bullet, 2 - star
        case1, case2 = (SubspaceBound(f"case{n} {label}", False) for n in (1, 2))
        if ker_2[circ] == 0 and coker_2[bullet] == 0:
            # B_circ_1 B_bullet_1 and B_bullet B_circ
            case1 = bound(case1.label, kk_1[circ_1] * kk_2[bullet], cc_1[circ_1] * cc_2[bullet])
        if coker_2[circ] == 0 and ker_2[bullet] == 0:
            # B_bullet_1 B_star_1 and B_star B_bullet; B_star_1 B_circ_1 and B_circ B_star
            case2 = bound(case2.label, kk_1[bullet_1] * kk_2[star], cc_1[star_1] * cc_2[circ])
        out += (case1, case2)
    # combined variant when B0 of the right knot is injective and Binf surjective;
    # the joined pair of overlapping subspaces is counted by the larger one:
    # products Binf B1 and B1 B0 (crossed for the cokernels) against B1
    remark = SubspaceBound("remark", False)
    if ker_2[0] == 0 and coker_2[2] == 0:
        k_pair, k_prime = kk_1[2] * kk_2[1], ker_1[1] * ker_2[1]
        c_pair, c_prime = cc_1[1] * cc_2[2], coker_1[1] * coker_2[1]
        kb = ker_1[0] * ker_2[2] + ker_1[2] * ker_2[0] + max(k_pair, k_prime)
        cb = coker_1[0] * coker_2[2] + coker_1[2] * coker_2[0] + max(c_pair, c_prime)
        remark = bound("remark", kb, cb)
    return (*out, remark)


# -- theorem verdict ----------------------------------------------------------


@dataclass(frozen=True)
class TheoremVerdict:
    """The main rank inequality on a pair: whether it applies and holds,
    h, its lower bound and margin, and whether the witness bounds hold."""

    applicable: bool
    holds: bool | None
    h: int
    lower_bound: int | None
    margin: int | None
    witness_bounds_hold: bool


def theorem_check(p1: SurgeryPackage, p2: SurgeryPackage) -> TheoremVerdict:
    """Main rank inequality when the right-hand knot sits in a minimal-rank sphere.

    The first knot's ambient rank is its package statistic y_inf, which
    equals the graded-piece total of its ``filtration.profile``.
    """
    require_type(SurgeryPackage, p1, p2)
    st1, st2 = stats(p1), stats(p2)
    witness = kernel_witnesses(p1, p2)
    h = witness.ker_dim + witness.coker_dim
    applicable = st2.y_inf == 1
    holds = h >= st1.y_inf if applicable else None
    return TheoremVerdict(
        applicable,
        holds,
        h,
        st1.y_inf if applicable else None,
        h - st1.y_inf if applicable else None,
        witness.bounds_hold,
    )

