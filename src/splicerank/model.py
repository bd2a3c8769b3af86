"""Finite algebraic models of bifiltered knot complexes.

A model is a finite generator set with Alexander gradings and a GF(2)
differential whose arrows drop the two filtration levels by recorded
amounts.  The grading relation s(x) - i + j = 0 places each generator once
in each of the two planes built from the arrows, C{j=0} (``plane_j0``, basis
``[x, s(x), 0]``) and C{i=0} (``plane_i0``, basis ``[x, 0, -s(x)]``).  Every
other plane the pipeline uses is a sub-plane of one of these two, cut by
``ChainComplexF2.restrict`` on its labels.

A ``BifilteredComplex`` is valid by construction: making one, by its
constructor, ``dataclasses.replace`` or ``mirror``, checks the types of its
fields and items, integer gradings and drops, grading compatibility, d^2 = 0
and the symmetry axioms, and raises ``ShapeMismatch`` listing every
violation.  No later stage checks again.  A complex is also immutable
(``errors.Frozen``) and hashable: its generators and arrows are tuples and
its symmetry a read-only copy of the mapping it was given, so equal
complexes hash equal and a complex can key a cache.  A complex computes
its hash once and keeps it; copy and pickle rebuild it through its
constructor, so the hash never travels to another process, where a str
hashes otherwise.  Every grading and drop of a complex is an int, so
equality cannot pair it with an invalid one, as 0 == 0.0 == False
otherwise would.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    Frozen,
    NoFlipData,
    NotChainMap,
    NotQuasiIso,
    SamplingExhausted,
    ShapeMismatch,
    require_type,
)
from .gf2 import Gf2Matrix
from .homology import ChainComplexF2, HomologySpace, induced_by_columns


class Generator(NamedTuple):
    """A generator: its id and its Alexander grading."""

    id: str
    alexander: int


class Arrow(NamedTuple):
    """A differential arrow from src to dst, dropping i and j by its drops."""

    src: str
    dst: str
    drop_i: int
    drop_j: int


class TauOverride(NamedTuple):
    """Duality maps given in the input, used in place of computed ones."""

    tau0: Gf2Matrix
    tau1: Gf2Matrix
    tau_inf: Gf2Matrix


@dataclass(frozen=True)
class BifilteredComplex(Frozen):
    """A knot's model: named generators and arrows, with a basis symmetry,
    an explicit flip matrix, or both, and optional duality maps.  Valid,
    immutable and hashable by construction (see the module docstring)."""

    name: str
    generators: tuple[Generator, ...]
    arrows: tuple[Arrow, ...]
    # a mapping proxy has no hash, so the symmetry stays out of the hash
    # (see __hash__); equality still compares it
    symmetry: Mapping[str, str] | None = None
    flip: Gf2Matrix | None = None
    tau_override: TauOverride | None = None

    def __post_init__(self):
        for name in ("generators", "arrows"):
            items = getattr(self, name)
            if not isinstance(items, Iterable):
                raise ShapeMismatch(f"invalid complex {self.name!r}: {name} {items!r} is not iterable")
            object.__setattr__(self, name, tuple(items))
        if self.symmetry is not None:
            if not isinstance(self.symmetry, Mapping):
                raise ShapeMismatch(f"invalid complex {self.name!r}: symmetry {self.symmetry!r} is not a mapping")
            object.__setattr__(self, "symmetry", MappingProxyType(dict(self.symmetry)))
        violations = _violations(self)
        if violations:
            raise ShapeMismatch(f"invalid complex {self.name!r}: " + "; ".join(violations))

    def __hash__(self) -> int:
        # computed once per complex, over every field but the symmetry, and
        # kept outside the fields; __reduce__ does not carry it, as a str
        # hashes differently in another process
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.name, self.generators, self.arrows, self.flip, self.tau_override))
        return h

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which copies the
        # symmetry into a new mapping proxy (a proxy cannot be pickled)
        sigma = None if self.symmetry is None else dict(self.symmetry)
        return BifilteredComplex, (self.name, self.generators, self.arrows, sigma, self.flip, self.tau_override)

    def grading_range(self) -> tuple[int, int]:
        values = [g.alexander for g in self.generators]
        return (min(values), max(values)) if values else (0, 0)


def is_int(value: object) -> bool:
    """An integer; bool is a subclass of int in Python, so True is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _violations(complex_: BifilteredComplex) -> list[str]:
    """Every way complex_ breaks the field types, integer gradings and drops,
    grading compatibility, d^2 = 0 or the symmetry axioms."""
    # the other checks read the fields as the types they are declared with,
    # so a field or item of another type ends the validation here
    sigma, flip, tau = complex_.symmetry, complex_.flip, complex_.tau_override
    out = [] if isinstance(complex_.name, str) else [f"name {complex_.name!r} is not a str"]
    out += [
        f"generator {g!r} is not a Generator with a str id"
        for g in complex_.generators
        if not (isinstance(g, Generator) and isinstance(g.id, str))
    ]
    out += [
        f"arrow {a!r} is not an Arrow between str ids"
        for a in complex_.arrows
        if not (isinstance(a, Arrow) and isinstance(a.src, str) and isinstance(a.dst, str))
    ]
    if sigma is not None and not all(isinstance(x, str) for pair in sigma.items() for x in pair):
        out.append("symmetry maps something other than str ids")
    if flip is not None and not isinstance(flip, Gf2Matrix):
        out.append(f"flip {flip!r} is not a Gf2Matrix")
    if tau is not None and not (
        isinstance(tau, TauOverride) and all(isinstance(m, Gf2Matrix) for m in (tau.tau0, tau.tau1, tau.tau_inf))
    ):
        out.append(f"tau override {tau!r} is not a TauOverride of three Gf2Matrix")
    if out:
        return out
    # the other checks do arithmetic on gradings and drops, so a value that
    # is not an int ends the validation here
    out = [
        f"Alexander grading of {g.id!r} is not an int: {g.alexander!r}"
        for g in complex_.generators
        if not is_int(g.alexander)
    ]
    out += [
        f"arrow {a.src}->{a.dst} has a drop that is not an int: ({a.drop_i!r}, {a.drop_j!r})"
        for a in complex_.arrows
        if not (is_int(a.drop_i) and is_int(a.drop_j))
    ]
    if out:
        return out
    grading: dict[str, int] = {}
    for g in complex_.generators:
        if g.id in grading:
            out.append(f"duplicate generator id {g.id!r}")
        grading[g.id] = g.alexander

    arrows_seen = set()
    outgoing: dict[str, list[Arrow]] = {}
    for a in complex_.arrows:
        key = (a.src, a.dst, a.drop_i, a.drop_j)
        if key in arrows_seen:
            out.append(f"duplicate arrow {key}")
        arrows_seen.add(key)
        if a.src not in grading or a.dst not in grading:
            out.append(f"arrow {a.src}->{a.dst} references a missing generator")
            continue
        if a.drop_i < 0 or a.drop_j < 0:
            out.append(f"arrow {a.src}->{a.dst} has a negative drop")
        if grading[a.src] - grading[a.dst] != a.drop_i - a.drop_j:
            out.append(
                f"arrow {a.src}->{a.dst} violates grading: "
                f"s difference {grading[a.src] - grading[a.dst]} != "
                f"{a.drop_i} - {a.drop_j}"
            )
        outgoing.setdefault(a.src, []).append(a)

    # d^2 = 0: composites grouped by endpoint and total bidegree drop
    square: dict[tuple[str, str, int, int], int] = {}
    for a in complex_.arrows:
        for b in outgoing.get(a.dst, []):
            key = (a.src, b.dst, a.drop_i + b.drop_i, a.drop_j + b.drop_j)
            square[key] = square.get(key, 0) ^ 1
    for (src, dst, di, dj), coeff in sorted(square.items()):
        if coeff:
            out.append(f"d^2 != 0: composite {src}->{dst} with total drop ({di},{dj})")

    if sigma is not None:
        for x in grading:
            if x not in sigma:
                out.append(f"symmetry does not cover generator {x!r}")
        for x, y in sigma.items():
            if x not in grading or y not in grading:
                out.append(f"symmetry maps through missing generator ({x!r},{y!r})")
                continue
            if sigma.get(y) != x:
                out.append(f"symmetry is not an involution at {x!r}")
            if grading[y] != -grading[x]:
                out.append(f"symmetry does not negate the grading at {x!r}")
        for a in complex_.arrows:
            if a.src in sigma and a.dst in sigma:
                image = (sigma[a.src], sigma[a.dst], a.drop_j, a.drop_i)
                if image not in arrows_seen:
                    out.append(
                        f"symmetry image of arrow {a.src}->{a.dst} "
                        f"(expected {image[0]}->{image[1]} with drop "
                        f"({a.drop_j},{a.drop_i})) is missing"
                    )
    return out


def _plane(complex_: BifilteredComplex, place: Callable[[Generator], tuple[str, int, int]]) -> ChainComplexF2:
    """The plane holding one label place(g) per generator, with the arrows inside it."""
    require_type(BifilteredComplex, complex_)
    basis = tuple(place(g) for g in complex_.generators)
    index = {label: k for k, label in enumerate(basis)}
    at = {label[0]: label for label in basis}
    entries = []
    for a in complex_.arrows:
        if a.src in at:
            _, i, j = src = at[a.src]
            dst = index.get((a.dst, i - a.drop_i, j - a.drop_j))
            if dst is not None:
                entries.append((dst, index[src]))
    n = len(basis)
    return ChainComplexF2(basis, Gf2Matrix.from_entries(n, n, entries))


def plane_j0(complex_: BifilteredComplex) -> ChainComplexF2:
    return _plane(complex_, lambda g: (g.id, g.alexander, 0))


def plane_i0(complex_: BifilteredComplex) -> ChainComplexF2:
    return _plane(complex_, lambda g: (g.id, 0, -g.alexander))


def hf_hat(complex_: BifilteredComplex) -> HomologySpace:
    """Homology of the j = 0 plane: the ambient manifold's invariant."""
    return HomologySpace(plane_j0(complex_))


def mirror(complex_: BifilteredComplex) -> BifilteredComplex:
    """Dual complex: arrows reversed, gradings negated, drops kept."""
    require_type(BifilteredComplex, complex_)
    return replace(
        complex_,
        name=complex_.name + "-mirror",
        generators=tuple(Generator(g.id, -g.alexander) for g in complex_.generators),
        arrows=tuple(Arrow(a.dst, a.src, a.drop_i, a.drop_j) for a in complex_.arrows),
        flip=None,
        tau_override=None,
    )


def sigma_chain_map(
    complex_: BifilteredComplex, source: ChainComplexF2, target: ChainComplexF2
) -> Gf2Matrix:
    """Matrix of [x,i,j] -> [sigma x, j, i] between two plane complexes."""
    require_type(BifilteredComplex, complex_)
    require_type(ChainComplexF2, source, target)
    sigma = complex_.symmetry
    if sigma is None:
        raise NoFlipData(f"complex {complex_.name!r} has no basis symmetry")
    target_index = target.index
    entries = []
    for col, (x, i, j) in enumerate(source.basis):
        image = (sigma[x], j, i)
        if image not in target_index:
            raise ShapeMismatch(f"sigma image {image} missing from target plane")
        entries.append((target_index[image], col))
    return Gf2Matrix.from_entries(target.dim, source.dim, entries)


@dataclass(frozen=True)
class FlipMap:
    """The flip from the i = 0 plane to the j = 0 plane, a chain homotopy
    equivalence; its fields' types are checked when built."""

    source: ChainComplexF2
    target: ChainComplexF2
    matrix: Gf2Matrix

    def __post_init__(self):
        require_type(ChainComplexF2, self.source, self.target)
        require_type(Gf2Matrix, self.matrix)


def flip_map(complex_: BifilteredComplex) -> FlipMap:
    """Chain homotopy equivalence from the i = 0 plane to the j = 0 plane.

    Built from the basis symmetry when present, otherwise taken from the
    explicit matrix in the input; verified to be a chain map inducing an
    isomorphism on homology.
    """
    source = plane_i0(complex_)
    target = plane_j0(complex_)
    if complex_.flip is not None:
        matrix = complex_.flip
        if (matrix.rows, matrix.cols) != (target.dim, source.dim):
            raise ShapeMismatch(
                f"explicit flip is {matrix.rows}x{matrix.cols}, expected "
                f"{target.dim}x{source.dim}"
            )
    elif complex_.symmetry is not None:
        matrix = sigma_chain_map(complex_, source, target)
    else:
        raise NoFlipData(f"complex {complex_.name!r} has neither symmetry nor flip")
    if (matrix @ source.boundary) != (target.boundary @ matrix):
        raise NotChainMap("flip map does not commute with the differentials")
    h_src = HomologySpace(source)
    h_tgt = HomologySpace(target)
    induced = induced_by_columns(matrix.transpose().row_bits, h_src, h_tgt)
    if h_src.dim != h_tgt.dim or induced.rank() != h_src.dim:
        raise NotQuasiIso("flip map is not a quasi-isomorphism")
    return FlipMap(source, target, matrix)


# -- named corpus -----------------------------------------------------------


def staircase(steps: Iterable[int], name: str = "staircase") -> BifilteredComplex:
    """Symmetric staircase complex from alternating step lengths.

    Steps must form a palindrome of even length; odd-position generators
    carry the differentials onto their two neighbours.
    """
    if not isinstance(steps, Iterable):
        raise ShapeMismatch(f"staircase steps {steps!r} are not iterable")
    steps = list(steps)
    bad = [step for step in steps if not (is_int(step) and step > 0)]
    if bad:
        raise ShapeMismatch(f"staircase steps must be positive ints, got {bad!r}")
    if not steps:
        return BifilteredComplex(name, (Generator("v0", 0),), (), {"v0": "v0"})
    if len(steps) % 2 or steps != steps[::-1]:
        raise ShapeMismatch("step list must be an even-length palindrome")
    total = sum(steps)
    if total % 2:
        raise ShapeMismatch("step list must have even total")
    gradings = [-total // 2]
    for step in steps:
        gradings.append(gradings[-1] + step)
    generators = tuple(Generator(f"v{k}", s) for k, s in enumerate(gradings))
    arrows = []
    for k in range(1, len(gradings), 2):
        arrows.append(Arrow(f"v{k}", f"v{k - 1}", steps[k - 1], 0))
        arrows.append(Arrow(f"v{k}", f"v{k + 1}", 0, steps[k]))
    n = len(gradings) - 1
    sigma = {f"v{k}": f"v{n - k}" for k in range(n + 1)}
    return BifilteredComplex(name, generators, tuple(arrows), sigma)


MAX_GENERATORS = 8


def random_complex(seed: int) -> BifilteredComplex:
    """Deterministic random valid symmetric model with odd ambient rank.

    Drawn as a two-layer complex of at most ``MAX_GENERATORS`` generators
    (killers mapping onto cycles, so d^2 = 0 holds by construction), then
    closed under the symmetry.  Rejection keeps drawing until a draw builds
    (the constructor validates it) and the j = 0 plane has odd homology
    rank, matching the homology-sphere setting of the geometric inputs.
    That rank is read off the generator count, with no homology computed:
    the j = 0 plane has one basis element per generator, and over GF(2)
    dim H = dim C - 2 rank(d), so dim H and dim C have the same parity.
    """
    rng = random.Random(f"splicerank-complex-{seed}")
    for _ in range(400):
        try:
            candidate = _draw_two_layer(rng, seed)
        except ShapeMismatch:
            continue
        if len(candidate.generators) % 2 == 1:
            return candidate
    raise SamplingExhausted(f"no valid random complex after 400 draws (seed {seed})")


def _draw_two_layer(rng: random.Random, seed: int) -> BifilteredComplex:
    generators: list[Generator] = []
    sigma: dict[str, str] = {}
    layer: dict[str, str] = {}

    def room(extra: int) -> bool:
        return len(generators) + extra <= MAX_GENERATORS

    def add_pair(kind: str) -> list[str]:
        s = rng.randint(-3, 3)
        base = f"{kind[0]}{len(generators)}"
        if s == 0 and rng.random() < 0.5 and room(1):
            generators.append(Generator(base, 0))
            sigma[base] = base
            layer[base] = kind
            return [base]
        if not room(2):
            return []
        other = base + "m"
        generators.append(Generator(base, s))
        generators.append(Generator(other, -s))
        sigma[base] = other
        sigma[other] = base
        layer[base] = layer[other] = kind
        return [base, other]

    add_pair("cycle")
    while room(1) and rng.random() < 0.75:
        add_pair("cycle" if rng.random() < 0.6 else "killer")

    grading = {g.id: g.alexander for g in generators}
    killers = [g.id for g in generators if layer[g.id] == "killer"]
    cycles = [g.id for g in generators if layer[g.id] == "cycle"]
    arrow_set: set[tuple[str, str, int, int]] = set()
    if killers and cycles:
        for k in killers:
            for _ in range(rng.randint(0, 2)):
                c = rng.choice(cycles)
                delta = grading[k] - grading[c]
                if abs(delta) > 3:
                    continue
                slack = rng.randint(0, 3 - max(delta, 0, -delta))
                di = max(delta, 0) + slack
                dj = di - delta
                arrow_set.add((k, c, di, dj))
                arrow_set.add((sigma[k], sigma[c], dj, di))
    arrows = tuple(Arrow(*a) for a in sorted(arrow_set))
    return BifilteredComplex(f"random-{seed}", tuple(generators), arrows, sigma)
