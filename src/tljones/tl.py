"""Exact Temperley-Lieb diagram algebra and the symbolic Jones polynomial.

Basis diagrams are non-crossing perfect matchings of 2n boundary points of a
rectangle: points 1..n along the top (left to right) and n+1..2n along the
bottom (left to right). Elements are formal integer-Laurent-polynomial
combinations of such matchings in the Kauffman variable A, with the loop
weight d = -A^2 - A^-2.

Multiplication stacks rectangles: the left factor sits on top, its bottom
points are glued to the right factor's top points, and every closed loop
produced by the gluing is deleted in exchange for one factor of d.

The Markov trace closes a diagram by joining top point j to bottom point j
around the rectangle and weighs the result d^(loops - n). Because negative
powers of d appear, trace values live in Z[A, A^-1, d^-1] and are carried
exactly as a Laurent numerator over an explicit power of d (TraceValue).
Powers of d are closed forms; d = -A^-2 (A^4 + 1) is cancelled where A^4 = -1 shows it divides.

A braid maps into the algebra by the Jones representation
b_i -> A E_i + A^-1 1 (inverse letters swap A and A^-1), applied letter by
letter as an action on the coefficients, and the Jones polynomial of the
braid's trace closure is

    jones = (-A^3)^writhe * d^(n-1) * trace(image of the braid),

normalized so the unknot evaluates to exactly 1. The writhe prefactor base
-A^3 is fixed by that normalization together with invariance under both
stabilization moves.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Mapping

from .braids import BraidWord, writhe
from .laurent import LaurentPoly, convert_to_t

# Loop weight d = -A^2 - A^-2 as an exact polynomial in A.
LOOP_WEIGHT = LaurentPoly({2: -1, -2: -1})

# jones_rep's image bound: refused n=14 runs peaked at 165-526 MB RSS (2.8-10.4 KB per diagram).
MAX_IMAGE_TERMS = 50_000

# Writhe prefactor base: (-A^3)^w, the unique signed monomial s with
# s * bracket(unknot as closure of b_1) = 1.
PREFACTOR_BASE_EXPONENT = 3


class TLError(ValueError):
    """Invalid diagram-algebra construction or operation."""


def times_d(poly: LaurentPoly, j: int) -> LaurentPoly:
    """poly * d^j for j >= 0, d^j = (-1)^j sum_r C(j, r) A^(2j - 4r); no product for j = 0."""
    if not j:
        return poly
    return poly * LaurentPoly({2 * j - 4 * r: (-1) ** j * math.comb(j, r) for r in range(j + 1)})


def d_divides(poly: LaurentPoly) -> bool:
    """Whether d divides poly: A^4 + 1 is monic, so iff poly = 0 where A^4 = -1, A^8 = 1."""
    folded = [0] * 8
    for e, c in poly.coeffs.items():
        folded[e % 8] += c
    return folded[:4] == folded[4:]


def divide_by_d(poly: LaurentPoly) -> LaurentPoly:
    """poly / d for a poly that d divides: p_e = -q_(e-2) - q_(e+2), solved top down."""
    p, q = poly.coeffs, {}
    for e in range(max(p, default=0), min(p, default=0) + 3, -1):
        q[e - 2] = -p.get(e, 0) - q.get(e + 2, 0)
    return LaurentPoly(q)


def _is_planar(partner: list[int], n: int) -> bool:
    """Walk the boundary in circular order (top left-to-right, then bottom
    right-to-left); a matching is non-crossing iff every second endpoint
    meets its partner on top of the stack of open first endpoints."""
    stack: list[int] = []
    for p in (*range(1, n + 1), *range(2 * n, n, -1)):
        if stack and stack[-1] == partner[p]:
            stack.pop()
        else:
            stack.append(p)
    return not stack


@dataclasses.dataclass(frozen=True, order=True)
class PlanarMatching:
    """A non-crossing perfect matching of the 2n boundary points of a rectangle.

    Stored as the partner table: partner[p] is the point joined to p, for
    p in 1..2n (partner[0] is 0). Ordering the tables orders the canonical
    pairs the same way.
    """

    n: int
    partner: tuple[int, ...]

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 1:
            raise TLError(f"strand count must be >= 1, got {n}")
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        if sorted(p for pair in canon for p in pair) != list(range(1, 2 * n + 1)):
            raise TLError(f"pairs {canon} are not a perfect matching of 1..{2 * n}")
        partner = [0] * (2 * n + 1)
        for a, b in canon:
            partner[a], partner[b] = b, a
        if not _is_planar(partner, n):
            raise TLError(f"matching {canon} is not planar")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "partner", tuple(partner))

    @classmethod
    def _from_partner(cls, n: int, partner: list[int]) -> PlanarMatching:
        """Wrap a table that is planar by construction (a stacking product), unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "partner", tuple(partner))
        return m

    @classmethod
    def identity(cls, n: int) -> PlanarMatching:
        if n < 1:
            raise TLError(f"strand count must be >= 1, got {n}")
        return cls._from_partner(n, [0, *range(n + 1, 2 * n + 1), *range(1, n + 1)])

    @classmethod
    def generator(cls, n: int, i: int) -> PlanarMatching:
        """The cup-cap diagram E_i: top i paired with top i+1, likewise on the bottom."""
        if not 1 <= i <= n - 1:
            raise TLError(f"generator index {i} out of range [1, {n - 1}]")
        partner = list(cls.identity(n).partner)
        partner[i : i + 2], partner[n + i : n + i + 2] = (i + 1, i), (n + i + 1, n + i)
        return cls._from_partner(n, partner)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Canonical pairs (a, b) with a < b, sorted."""
        return tuple((a, b) for a, b in enumerate(self.partner) if a < b)


def stack_matchings(upper: PlanarMatching, lower: PlanarMatching) -> tuple[PlanarMatching, int]:
    """Glue upper's bottom points to lower's top points; return (result, loops).

    Junction j joins upper bottom point n+j to lower top point j. Each external
    point (upper's top 1..n, lower's bottom n+1..2n) is followed across the
    junctions to the other end of its strand; junctions no strand crossed lie
    on closed loops, each deleted for a factor of d.
    """
    if upper.n != lower.n:
        raise TLError(f"cannot stack matchings on {upper.n} and {lower.n} strands")
    n = upper.n
    up, lo = upper.partner, lower.partner
    out = [0] * (2 * n + 1)
    crossed = [False] * (n + 1)
    for start in range(1, 2 * n + 1):
        if out[start]:
            continue
        on_upper = start <= n
        p = up[start] if on_upper else lo[start]
        while (p > n) == on_upper:  # p is a junction point: cross into the other diagram
            j = p - n if on_upper else p
            crossed[j] = True
            on_upper = not on_upper
            p = up[n + j] if on_upper else lo[j]
        out[start], out[p] = p, start
    loops = 0
    for first in range(1, n + 1):
        if crossed[first]:
            continue
        loops += 1
        j = first
        while not crossed[j]:  # lower arc j -> j2, then upper arc n+j2 -> next junction
            j2 = lo[j]
            crossed[j] = crossed[j2] = True
            j = up[n + j2] - n
    return PlanarMatching._from_partner(n, out), loops


def close_and_count_loops(m: PlanarMatching) -> int:
    """Loops of the trace closure: join top j to bottom j around the rectangle."""
    n, partner = m.n, m.partner
    closed = [False] * (n + 1)
    loops = 0
    for first in range(1, n + 1):
        if closed[first]:
            continue
        loops += 1
        arc, p = first, n + first  # leave the first closure arc at its bottom end
        while not closed[arc]:
            closed[arc] = True
            q = partner[p]
            arc, p = (q, q + n) if q <= n else (q - n, q - n)  # enter the arc at q, leave at its other end
    return loops


@dataclasses.dataclass(frozen=True)
class TLElement:
    """Formal Laurent-polynomial combination of planar matchings on n strands."""

    n: int
    terms: Mapping[PlanarMatching, LaurentPoly]

    def __init__(self, n: int, terms: Mapping[PlanarMatching, LaurentPoly]):
        for matching in terms:
            if matching.n != n:
                raise TLError(f"matching on {matching.n} strands in an element on {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    @classmethod
    def identity(cls, n: int) -> TLElement:
        return cls(n, {PlanarMatching.identity(n): LaurentPoly.one()})

    @classmethod
    def generator(cls, n: int, i: int) -> TLElement:
        return cls(n, {PlanarMatching.generator(n, i): LaurentPoly.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.n == other.n and dict(self.terms) == dict(other.terms)

    def __add__(self, other: TLElement) -> TLElement:
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise TLError("cannot add elements on different strand counts")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, LaurentPoly.zero()) + c
        return TLElement(self.n, out)

    def __neg__(self) -> TLElement:
        return TLElement(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: TLElement) -> TLElement:
        return self + (-other)

    def scaled(self, factor: LaurentPoly | int) -> TLElement:
        return TLElement(self.n, {m: c * factor for m, c in self.terms.items()})

    def __mul__(self, other: TLElement) -> TLElement:
        """Bilinear diagram stacking, self on top of other; loops become factors of d."""
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise TLError(f"cannot multiply elements on {self.n} and {other.n} strands")
        out: dict[PlanarMatching, LaurentPoly] = {}
        for mu, cu in self.terms.items():
            for ml, cl in other.terms.items():
                matching, loops = stack_matchings(mu, ml)
                coeff = times_d(cu if cl.coeffs == {0: 1} else cl if cu.coeffs == {0: 1} else cu * cl, loops)
                out[matching] = out[matching] + coeff if matching in out else coeff
        return TLElement(self.n, out)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"TLElement({self.n}, 0)"
        bits = [f"({c.format()})*{m.pairs}" for m, c in sorted(self.terms.items())]
        return f"TLElement({self.n}, " + " + ".join(bits) + ")"


def embed(element: TLElement) -> TLElement:
    """Include TL_n into TL_(n+1) by appending one identity strand on the right."""
    n = element.n
    out = {}
    for m, c in element.terms.items():
        moved = [p if p <= n else p + 1 for p in m.partner]  # bottom point n+j becomes n+1+j
        partner = [*moved[: n + 1], 2 * n + 2, *moved[n + 1 :], n + 1]
        out[PlanarMatching._from_partner(n + 1, partner)] = c
    return TLElement(n + 1, out)


@dataclasses.dataclass(frozen=True)
class TraceValue:
    """An exact element of Z[A, A^-1, d^-1]: numerator / d^d_power.

    Normalized on construction by cancelling every exact factor of
    d = -A^2 - A^-2 out of the numerator; d is prime in Z[A, A^-1] up to
    units, so the normal form is unique and equality is field equality.
    """

    numerator: LaurentPoly
    d_power: int

    def __init__(self, numerator: LaurentPoly, d_power: int):
        if d_power < 0:
            numerator = times_d(numerator, -d_power)
            d_power = 0
        while d_power > 0 and numerator and d_divides(numerator):
            numerator = divide_by_d(numerator)
            d_power -= 1
        if numerator.is_zero():
            d_power = 0
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "d_power", d_power)

    def __add__(self, other: TraceValue) -> TraceValue:
        if not isinstance(other, TraceValue):
            return NotImplemented
        e = max(self.d_power, other.d_power)
        num = times_d(self.numerator, e - self.d_power) + times_d(other.numerator, e - other.d_power)
        return TraceValue(num, e)

    def __sub__(self, other: TraceValue) -> TraceValue:
        return self + TraceValue(-other.numerator, other.d_power)

    def div_d(self, times: int = 1) -> TraceValue:
        """Multiply by d^-times (times may be negative to multiply by d)."""
        return TraceValue(self.numerator, self.d_power + times)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def as_laurent(self) -> LaurentPoly:
        """The value as a plain Laurent polynomial; requires all d factors cancelled."""
        if self.d_power != 0:
            raise TLError(f"trace value has a residual d^-{self.d_power} denominator")
        return self.numerator

    def evaluate(self, a_value: complex) -> complex:
        d = -a_value**2 - a_value**-2
        return self.numerator.evaluate(a_value) / d**self.d_power

    def __repr__(self) -> str:
        if self.d_power == 0:
            return f"TraceValue({self.numerator.format()})"
        return f"TraceValue(({self.numerator.format()}) / d^{self.d_power})"


def markov_trace(element: TLElement) -> TraceValue:
    """Diagrammatic Markov trace: close each diagram and weigh by d^(loops - n),
    summing per loop count and cancelling d^(fewest loops) first."""
    by_loops: dict[int, LaurentPoly] = {}
    for matching, coeff in element.terms.items():
        loops = close_and_count_loops(matching)
        by_loops[loops] = by_loops.get(loops, LaurentPoly.zero()) + coeff
    fewest = min(by_loops, default=0)
    numerator = sum((times_d(c, loops - fewest) for loops, c in by_loops.items()), LaurentPoly.zero())
    descending = dict(sorted(numerator.coeffs.items(), reverse=True))  # the order a division by d leaves
    return TraceValue(LaurentPoly(descending), element.n - fewest)


def jones_rep(word: BraidWord) -> TLElement:
    """Image of a braid word; TLError once it has over MAX_IMAGE_TERMS diagrams.

    The letter b_i^s = A^s E_i + A^-s 1 acts on each term c*mu as A^-s c at
    mu plus A^s d^loops c at mu E_i, where (mu E_i, loops) = stack_matchings(mu, E_i).
    """
    n = word.strands
    image = {PlanarMatching.identity(n): LaurentPoly.one()}
    for count, (index, s) in enumerate(word.letters, 1):
        cap = PlanarMatching.generator(n, index)
        taps = (((s, 1),), ((s + 2, -1), (s - 2, -1)))  # A^s d^loops as (shift, factor), loops = 0, 1
        out: dict[PlanarMatching, dict[int, int]] = {}
        for mu, coeff in image.items():
            nu, loops = stack_matchings(mu, cap)
            for target, terms in ((mu, ((-s, 1),)), (nu, taps[loops])):
                acc = out.setdefault(target, {})
                for shift, factor in terms:
                    for e, c in coeff.coeffs.items():
                        acc[e + shift] = acc.get(e + shift, 0) + factor * c
        image = {m: poly for m, acc in out.items() if (poly := LaurentPoly(acc))}
        if len(image) > MAX_IMAGE_TERMS:
            raise TLError(f"braid image passed MAX_IMAGE_TERMS = {MAX_IMAGE_TERMS} diagrams at letter {count}")
    return TLElement(n, image)


def writhe_prefactor(w: int) -> LaurentPoly:
    """(-A^3)^w as an exact signed monomial, for any integer w."""
    return LaurentPoly.monomial(PREFACTOR_BASE_EXPONENT * w, (-1) ** (w % 2))


def jones_polynomial(word: BraidWord) -> LaurentPoly:
    """Exact Jones polynomial (in A) of the braid's trace closure.

    All d^-1 factors of the Markov trace provably cancel against the d^(n-1)
    factor; a residual denominator would be an internal error and raises.
    """
    trace = markov_trace(jones_rep(word))
    scaled = TraceValue(times_d(trace.numerator, word.strands - 1), trace.d_power)
    if scaled.d_power != 0:
        raise AssertionError(f"d^-{scaled.d_power} failed to cancel against d^{word.strands - 1}")
    return scaled.as_laurent() * writhe_prefactor(writhe(word))


def jones_polynomial_t(word: BraidWord) -> LaurentPoly:
    """The Jones polynomial in the variable t = A^-4; raises for half-integer powers."""
    return convert_to_t(jones_polynomial(word))


@dataclasses.dataclass(frozen=True)
class RelationReport:
    """Outcome of the symbolic defining-relation checks for one strand count."""

    n: int
    results: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.results)


def verify_tl_relations(n: int, sample_count: int = 10, seed: int = 0) -> RelationReport:
    """Check the defining relations of the algebra symbolically, plus random
    associativity triples; every check is exact polynomial equality."""
    import random

    if n < 2:
        raise TLError("relations require n >= 2")
    results: list[tuple[str, bool]] = []
    gens = {i: TLElement.generator(n, i) for i in range(1, n)}
    for i in range(1, n):
        lhs = gens[i] * gens[i]
        results.append((f"E{i}^2 = d E{i}", lhs == gens[i].scaled(LOOP_WEIGHT)))
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if 1 <= j <= n - 1:
                lhs = gens[i] * gens[j] * gens[i]
                results.append((f"E{i} E{j} E{i} = E{i}", lhs == gens[i]))
    for i in range(1, n):
        for j in range(i + 2, n):
            results.append((f"E{i} E{j} = E{j} E{i}", gens[i] * gens[j] == gens[j] * gens[i]))
    rng = random.Random(seed)
    for case in range(sample_count):
        x, y, z = (random_generator_word(n, rng.randint(0, 6), rng) for _ in range(3))
        ok = (x * y) * z == x * (y * z)
        results.append((f"associativity sample {case}", ok))
    return RelationReport(n, tuple(results))


def generator_word(n: int, indices: Iterable[int]) -> TLElement:
    """E_(i_1) E_(i_2) ... (identity for no indices): one diagram times d^loops.

    The generators' partner tables are stacked in order and their loops summed.
    """
    diagram, loops = PlanarMatching.identity(n), 0
    for i in indices:
        diagram, more = stack_matchings(diagram, PlanarMatching.generator(n, i))
        loops += more
    return TLElement(n, {diagram: times_d(LaurentPoly.one(), loops)})


def random_generator_word(n: int, length: int, rng) -> TLElement:
    """Product of `length` random generators; rng is random.Random."""
    return generator_word(n, [rng.randint(1, n - 1) for _ in range(length)])
