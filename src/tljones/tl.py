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

A braid maps into the algebra by the Jones representation
b_i -> A E_i + A^-1 1 (inverse letters swap A and A^-1), and the Jones
polynomial of the braid's trace closure is

    jones = (-A^3)^writhe * d^(n-1) * trace(image of the braid),

normalized so the unknot evaluates to exactly 1. The writhe prefactor base
-A^3 is fixed by that normalization together with invariance under both
stabilization moves.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from .braids import BraidWord, writhe
from .laurent import ExactDivisionError, LaurentPoly, convert_to_t

# Loop weight d = -A^2 - A^-2 as an exact polynomial in A.
LOOP_WEIGHT = LaurentPoly({2: -1, -2: -1})

# Writhe prefactor base: (-A^3)^w, the unique signed monomial s with
# s * bracket(unknot as closure of b_1) = 1.
PREFACTOR_BASE_EXPONENT = 3


class TLError(ValueError):
    """Invalid diagram-algebra construction or operation."""


def _circular_position(point: int, n: int) -> int:
    """Boundary order for planarity: top left-to-right, then bottom right-to-left."""
    if point <= n:
        return point - 1
    return 3 * n - point


def _is_planar(pairs: Iterable[tuple[int, int]], n: int) -> bool:
    partner = {}
    for a, b in pairs:
        partner[_circular_position(a, n)] = _circular_position(b, n)
        partner[_circular_position(b, n)] = _circular_position(a, n)
    stack: list[int] = []
    for pos in range(2 * n):
        if partner[pos] > pos:
            stack.append(pos)
        elif not stack or stack.pop() != partner[pos]:
            return False
    return not stack


@dataclasses.dataclass(frozen=True, order=True)
class PlanarMatching:
    """A non-crossing perfect matching of the 2n boundary points of a rectangle."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 1:
            raise TLError(f"strand count must be >= 1, got {n}")
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", canon)
        points = [p for pair in canon for p in pair]
        if sorted(points) != list(range(1, 2 * n + 1)):
            raise TLError(f"pairs {canon} are not a perfect matching of 1..{2 * n}")
        if not _is_planar(canon, n):
            raise TLError(f"matching {canon} is not planar")

    @classmethod
    def identity(cls, n: int) -> PlanarMatching:
        return cls(n, tuple((j, n + j) for j in range(1, n + 1)))

    @classmethod
    def generator(cls, n: int, i: int) -> PlanarMatching:
        """The cup-cap diagram E_i: top i paired with top i+1, likewise on the bottom."""
        if not 1 <= i <= n - 1:
            raise TLError(f"generator index {i} out of range [1, {n - 1}]")
        pairs = [(i, i + 1), (n + i, n + i + 1)]
        pairs += [(j, n + j) for j in range(1, n + 1) if j not in (i, i + 1)]
        return cls(n, tuple(pairs))

    def partner_map(self) -> dict[int, int]:
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out


def stack_matchings(upper: PlanarMatching, lower: PlanarMatching) -> tuple[PlanarMatching, int]:
    """Glue upper's bottom points to lower's top points; return (result, loops).

    Nodes are ('u', p) and ('l', p); upper bottom point n+j is joined to lower
    top point j. External points are upper's top (new top, labels 1..n) and
    lower's bottom (new bottom, labels n+1..2n); cycles touching no external
    point are the loops deleted in exchange for factors of d.
    """
    if upper.n != lower.n:
        raise TLError(f"cannot stack matchings on {upper.n} and {lower.n} strands")
    n = upper.n
    up = upper.partner_map()
    lo = lower.partner_map()

    new_pairs = []
    visited: set[tuple[str, int]] = set()
    externals = [("u", j) for j in range(1, n + 1)] + [("l", n + j) for j in range(1, n + 1)]
    for start in externals:
        if start in visited:
            continue
        visited.add(start)
        side, p = start
        while True:
            p = up[p] if side == "u" else lo[p]  # follow the strand inside one diagram
            visited.add((side, p))
            if (side == "u" and p <= n) or (side == "l" and p > n):
                break  # reached an external point
            side, p = ("l", p - n) if side == "u" else ("u", p + n)  # cross the junction
            visited.add((side, p))
        new_pairs.append((start[1], p))
    loops = 0
    for j in range(1, n + 1):
        node = ("u", n + j)
        if node in visited:
            continue
        loops += 1
        while node not in visited:
            visited.add(node)
            side, p = node
            p = up[p] if side == "u" else lo[p]
            visited.add((side, p))
            node = ("l", p - n) if side == "u" else ("u", p + n)
    return PlanarMatching(n, tuple(new_pairs)), loops


def close_and_count_loops(m: PlanarMatching) -> int:
    """Loops of the trace closure: join top j to bottom j around the rectangle."""
    partner = m.partner_map()
    visited: set[int] = set()
    loops = 0
    for start in range(1, 2 * m.n + 1):
        if start in visited:
            continue
        loops += 1
        p = start
        while p not in visited:
            visited.add(p)
            q = partner[p]
            visited.add(q)
            p = q - m.n if q > m.n else q + m.n  # closure arc
    return loops


@dataclasses.dataclass(frozen=True)
class TLElement:
    """Formal Laurent-polynomial combination of planar matchings on n strands."""

    n: int
    terms: Mapping[PlanarMatching, LaurentPoly]

    def __init__(self, n: int, terms: Mapping[PlanarMatching, LaurentPoly]):
        filtered = {}
        for matching, coeff in terms.items():
            if matching.n != n:
                raise TLError(f"matching on {matching.n} strands in an element on {n}")
            if not coeff.is_zero():
                filtered[matching] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", filtered)

    @classmethod
    def identity(cls, n: int) -> TLElement:
        return cls(n, {PlanarMatching.identity(n): LaurentPoly.one()})

    @classmethod
    def generator(cls, n: int, i: int) -> TLElement:
        return cls(n, {PlanarMatching.generator(n, i): LaurentPoly.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[PlanarMatching, LaurentPoly]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].pairs)

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
        if isinstance(factor, int):
            factor = LaurentPoly({0: factor})
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
                coeff = cu * cl * LOOP_WEIGHT**loops
                out[matching] = out.get(matching, LaurentPoly.zero()) + coeff
        return TLElement(self.n, out)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"TLElement({self.n}, 0)"
        bits = [f"({c.format()})*{m.pairs}" for m, c in self.sorted_terms()]
        return f"TLElement({self.n}, " + " + ".join(bits) + ")"


def embed(element: TLElement, extra_strands: int = 1) -> TLElement:
    """Include TL_n into TL_(n+extra) by appending identity strands on the right."""
    if extra_strands < 0:
        raise TLError("extra_strands must be >= 0")
    n, n2 = element.n, element.n + extra_strands
    out = {}
    for m, c in element.terms.items():
        pairs = [
            (a if a <= n else a + extra_strands, b if b <= n else b + extra_strands)
            for a, b in m.pairs
        ]
        pairs += [(n + j, n2 + n + j) for j in range(1, extra_strands + 1)]
        out[PlanarMatching(n2, tuple(pairs))] = c
    return TLElement(n2, out)


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
            numerator = numerator * LOOP_WEIGHT ** (-d_power)
            d_power = 0
        while d_power > 0 and not numerator.is_zero():
            try:
                numerator = numerator.div_exact(LOOP_WEIGHT)
            except ExactDivisionError:
                break
            d_power -= 1
        if numerator.is_zero():
            d_power = 0
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "d_power", d_power)

    def __add__(self, other: TraceValue) -> TraceValue:
        if not isinstance(other, TraceValue):
            return NotImplemented
        e = max(self.d_power, other.d_power)
        num = (
            self.numerator * LOOP_WEIGHT ** (e - self.d_power)
            + other.numerator * LOOP_WEIGHT ** (e - other.d_power)
        )
        return TraceValue(num, e)

    def __sub__(self, other: TraceValue) -> TraceValue:
        return self + TraceValue(-other.numerator, other.d_power)

    def scaled(self, factor: LaurentPoly | int) -> TraceValue:
        if isinstance(factor, int):
            factor = LaurentPoly({0: factor})
        return TraceValue(self.numerator * factor, self.d_power)

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
    """Diagrammatic Markov trace: close each diagram and weigh by d^(loops - n)."""
    numerator = LaurentPoly.zero()
    for matching, coeff in element.terms.items():
        numerator = numerator + coeff * LOOP_WEIGHT ** close_and_count_loops(matching)
    return TraceValue(numerator, element.n)


def jones_rep(word: BraidWord) -> TLElement:
    """Image of a braid word: each letter contributes A E_i + A^-1 1 (or the swap)."""
    n = word.strands
    a = LaurentPoly.monomial(1)
    a_inv = LaurentPoly.monomial(-1)
    result = TLElement.identity(n)
    for index, sign in word.letters:
        cap_coeff, id_coeff = (a, a_inv) if sign == 1 else (a_inv, a)
        factor = TLElement(
            n,
            {
                PlanarMatching.generator(n, index): cap_coeff,
                PlanarMatching.identity(n): id_coeff,
            },
        )
        result = result * factor
    return result


def writhe_prefactor(w: int) -> LaurentPoly:
    """(-A^3)^w as an exact signed monomial, for any integer w."""
    return LaurentPoly.monomial(PREFACTOR_BASE_EXPONENT * w, (-1) ** (w % 2))


def jones_polynomial(word: BraidWord) -> LaurentPoly:
    """Exact Jones polynomial (in A) of the braid's trace closure.

    All d^-1 factors of the Markov trace provably cancel against the d^(n-1)
    factor; a residual denominator would be an internal error and raises.
    """
    trace = markov_trace(jones_rep(word))
    scaled = trace.scaled(LOOP_WEIGHT ** (word.strands - 1))
    if scaled.d_power != 0:
        raise AssertionError(
            f"d^-{scaled.d_power} failed to cancel against d^{word.strands - 1}"
        )
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

    def failures(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


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


def random_generator_word(n: int, length: int, rng) -> TLElement:
    """Product of random generators (identity for length 0); rng is random.Random."""
    result = TLElement.identity(n)
    for _ in range(length):
        result = result * TLElement.generator(n, rng.randint(1, n - 1))
    return result
