"""Diagram-algebra oracle tests, cross-checked against the independent
state-sum oracle in bruteforce.py and frozen golden polynomials."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import bruteforce_jones_a
from tljones.braids import BraidWord, inverse, markov_conjugate, markov_stabilize, parse_braid_word, product, random_braid
from tljones.laurent import ExactDivisionError, LaurentPoly
from tljones.tl import (
    LOOP_WEIGHT,
    PlanarMatching,
    TLElement,
    TLError,
    TraceValue,
    close_and_count_loops,
    d_divides,
    divide_by_d,
    embed,
    generator_word,
    jones_polynomial,
    jones_polynomial_t,
    jones_rep,
    markov_trace,
    random_generator_word,
    stack_matchings,
    times_d,
    verify_tl_relations,
)

# Golden values computed by the independent state-sum oracle before the
# diagram algebra was built (tests/bruteforce.py run standalone).
GOLDEN_A = {
    "unknot": {0: 1},
    "hopf": {2: -1, 10: -1},
    "trefoil": {4: 1, 12: 1, 16: -1},
    "figure_eight": {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1},
}
GOLDEN_T = {
    "trefoil": {-1: 1, -3: 1, -4: -1},
    "figure_eight": {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1},
}
WORDS = {
    "unknot": ("1", 2),
    "hopf": ("1 1", 2),
    "trefoil": ("1 1 1", 2),
    "figure_eight": ("1 -2 1 -2", 3),
}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def all_matchings(n: int) -> list[PlanarMatching]:
    """Brute-force enumeration of planar matchings (test-only oracle)."""
    out = []

    def rec(points: tuple[int, ...], pairs: tuple):
        if not points:
            try:
                out.append(PlanarMatching(n, pairs))
            except TLError:
                pass
            return
        first, rest = points[0], points[1:]
        for i, second in enumerate(rest):
            rec(rest[:i] + rest[i + 1 :], pairs + ((first, second),))

    rec(tuple(range(1, 2 * n + 1)), ())
    return out


def _partner_dict(m: PlanarMatching) -> dict[int, int]:
    out = {}
    for a, b in m.pairs:
        out[a], out[b] = b, a
    return out


def reference_stack(upper: PlanarMatching, lower: PlanarMatching) -> tuple[tuple, int]:
    """Tuple-graph stacking (the earlier implementation): nodes ('u', p) and
    ('l', p), upper bottom n+j joined to lower top j; returns (pairs, loops)."""
    n = upper.n
    up, lo = _partner_dict(upper), _partner_dict(lower)
    new_pairs = []
    visited: set[tuple[str, int]] = set()
    externals = [("u", j) for j in range(1, n + 1)] + [("l", n + j) for j in range(1, n + 1)]
    for start in externals:
        if start in visited:
            continue
        visited.add(start)
        side, p = start
        while True:
            p = up[p] if side == "u" else lo[p]
            visited.add((side, p))
            if (side == "u" and p <= n) or (side == "l" and p > n):
                break
            side, p = ("l", p - n) if side == "u" else ("u", p + n)
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
    return tuple(sorted((min(a, b), max(a, b)) for a, b in new_pairs)), loops


def reference_closure_loops(m: PlanarMatching) -> int:
    """Closure loop count by a visited set over points (the earlier implementation)."""
    partner = _partner_dict(m)
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
            p = q - m.n if q > m.n else q + m.n
    return loops


class TestPlanarMatching:
    def test_identity(self):
        assert PlanarMatching.identity(2).pairs == ((1, 3), (2, 4))

    def test_generator(self):
        assert PlanarMatching.generator(2, 1).pairs == ((1, 2), (3, 4))
        assert PlanarMatching.generator(3, 2).pairs == ((1, 4), (2, 3), (5, 6))

    def test_rejects_crossing(self):
        with pytest.raises(TLError, match="planar"):
            PlanarMatching(2, ((1, 4), (2, 3)))  # top1-bot2 crossing top2-bot1

    def test_rejects_non_matching(self):
        with pytest.raises(TLError):
            PlanarMatching(2, ((1, 2), (2, 3)))

    def test_generator_range(self):
        with pytest.raises(TLError):
            PlanarMatching.generator(2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_basis_count_is_catalan(self, n):
        assert len(all_matchings(n)) == catalan(n)

    def test_closure_loop_counts(self):
        assert close_and_count_loops(PlanarMatching.identity(3)) == 3
        assert close_and_count_loops(PlanarMatching.generator(3, 1)) == 2


def reference_generator_word(n: int, length: int, rng) -> TLElement:
    """The earlier random_generator_word: one TLElement product per letter."""
    result = TLElement.identity(n)
    for _ in range(length):
        result = result * TLElement.generator(n, rng.randint(1, n - 1))
    return result


class TestMultiplication:
    def test_generator_square(self):
        e1 = TLElement.generator(2, 1)
        assert e1 * e1 == e1.scaled(LOOP_WEIGHT)

    def test_recoupling(self):
        e1, e2 = TLElement.generator(3, 1), TLElement.generator(3, 2)
        assert e1 * e2 * e1 == e1
        assert e2 * e1 * e2 == e2

    def test_identity_neutral(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(2, 5)
            x = random_generator_word(n, rng.randint(0, 6), rng)
            assert TLElement.identity(n) * x == x
            assert x * TLElement.identity(n) == x

    @pytest.mark.parametrize("n", range(2, 9))
    def test_generator_word_equals_letter_by_letter_product(self, n):
        for length in range(13):
            for seed in range(3):
                rng, reference_rng = random.Random(seed), random.Random(seed)
                assert random_generator_word(n, length, rng) == reference_generator_word(n, length, reference_rng)
                assert rng.getstate() == reference_rng.getstate()  # the same draws, in the same order

    def test_distant_generators_stack_without_loops(self):
        prod = TLElement.generator(4, 1) * TLElement.generator(4, 3)
        assert len(prod.terms) == 1
        matching, coeff = next(iter(prod.terms.items()))
        assert matching.pairs == ((1, 2), (3, 4), (5, 6), (7, 8))
        assert coeff == LaurentPoly.one()

    def test_strand_mismatch(self):
        with pytest.raises(TLError):
            TLElement.generator(2, 1) * TLElement.generator(3, 1)

    def test_associativity_random(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(2, 4)
            x, y, z = (random_generator_word(n, rng.randint(0, 5), rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_result_size_bounded_by_catalan(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(2, 5)
            x = random_generator_word(n, rng.randint(0, 8), rng)
            y = random_generator_word(n, rng.randint(0, 8), rng)
            assert len((x * y).terms) <= catalan(n)


class TestPartnerTableStacking:
    """The integer walk over partner tables against the tuple-graph reference."""

    @staticmethod
    def assert_matches_reference(upper: PlanarMatching, lower: PlanarMatching):
        result, loops = stack_matchings(upper, lower)
        assert (result.pairs, loops) == reference_stack(upper, lower)
        assert result == PlanarMatching(upper.n, result.pairs)  # the public checks accept it
        assert close_and_count_loops(result) == reference_closure_loops(result)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_catalan_pair(self, n):
        basis = all_matchings(n)
        for m in basis:
            assert close_and_count_loops(m) == reference_closure_loops(m)
        for upper in basis:
            for lower in basis:
                self.assert_matches_reference(upper, lower)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_random_generator_words(self, n):
        rng = random.Random(100 + n)
        for _ in range(200):
            upper, lower = (
                next(iter(random_generator_word(n, rng.randint(0, 12), rng).terms))
                for _ in range(2)
            )
            self.assert_matches_reference(upper, lower)

    def test_table_order_is_pairs_order(self):
        basis = all_matchings(5)
        assert sorted(basis) == sorted(basis, key=lambda m: m.pairs)


class TestRelationsReport:
    def test_n3_passes(self):
        assert verify_tl_relations(3).passed

    def test_n2_only_square_relation(self):
        report = verify_tl_relations(2, sample_count=0)
        assert report.passed
        assert [name for name, _ in report.results] == ["E1^2 = d E1"]

    def test_n5_distant_commutation_present(self):
        report = verify_tl_relations(5)
        assert report.passed
        assert any("E1 E4 = E4 E1" in name for name, _ in report.results)


class TestMarkovTrace:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_trace_of_identity(self, n):
        assert markov_trace(TLElement.identity(n)).as_laurent() == LaurentPoly.one()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_trace_of_generator(self, n):
        value = markov_trace(TLElement.generator(n, 1))
        assert value == TraceValue(LaurentPoly.one(), 1)  # exactly 1/d

    def test_trace_of_distant_pair(self):
        e1e3 = TLElement.generator(4, 1) * TLElement.generator(4, 3)
        assert markov_trace(e1e3) == TraceValue(LaurentPoly.one(), 2)  # exactly 1/d^2

    def test_cyclicity_random(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 5)
            x = random_generator_word(n, rng.randint(0, 8), rng)
            y = random_generator_word(n, rng.randint(0, 8), rng)
            assert (markov_trace(x * y) - markov_trace(y * x)).is_zero()

    def test_strand_closure_axiom_random(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 5)
            x = random_generator_word(n, rng.randint(0, 8), rng)
            lhs = markov_trace(embed(x) * TLElement.generator(n + 1, n))
            assert (lhs - markov_trace(x).div_d(1)).is_zero()

    def test_trace_value_normalization(self):
        # d * (1/d) normalizes to the polynomial 1
        assert TraceValue(LOOP_WEIGHT, 1) == TraceValue(LaurentPoly.one(), 0)
        assert TraceValue(LOOP_WEIGHT, 1).as_laurent() == LaurentPoly.one()

    def test_unnormalizable_denominator_raises(self):
        with pytest.raises(TLError, match="denominator"):
            TraceValue(LaurentPoly.one(), 1).as_laurent()


class TestJonesRep:
    def test_single_generator(self):
        rep = jones_rep(parse_braid_word("1", 2))
        assert rep == TLElement(
            2,
            {
                PlanarMatching.generator(2, 1): LaurentPoly.monomial(1),
                PlanarMatching.identity(2): LaurentPoly.monomial(-1),
            },
        )

    def test_letter_times_inverse_is_identity(self):
        rep = jones_rep(parse_braid_word("1 -1", 2))
        assert rep == TLElement.identity(2)

    def test_identity_braid(self):
        assert jones_rep(BraidWord.identity(3)) == TLElement.identity(3)

    def test_homomorphism_random(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_braid(rng, max_strands=4, max_length=5)
            b = BraidWord(a.strands, random_braid(
                rng, max_strands=a.strands, min_strands=a.strands, max_length=5).letters)
            assert jones_rep(product(a, b)) == jones_rep(a) * jones_rep(b)


class TestJonesPolynomial:
    @pytest.mark.parametrize("name", sorted(WORDS))
    def test_golden_values(self, name):
        text, strands = WORDS[name]
        poly = jones_polynomial(parse_braid_word(text, strands))
        assert dict(poly.coeffs) == GOLDEN_A[name]

    def test_trefoil_t_form(self):
        poly = jones_polynomial_t(parse_braid_word("1 1 1", 2))
        assert dict(poly.coeffs) == GOLDEN_T["trefoil"]

    def test_figure_eight_palindromic(self):
        poly = jones_polynomial_t(parse_braid_word("1 -2 1 -2", 3))
        assert dict(poly.coeffs) == GOLDEN_T["figure_eight"]
        assert poly.substitute_inverse() == poly

    def test_hopf_has_no_integer_t_form(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            jones_polynomial_t(parse_braid_word("1 1", 2))

    def test_matches_bruteforce_random(self):
        rng = random.Random(6)
        for _ in range(25):
            word = random_braid(rng, max_strands=4, max_length=6)
            mine = jones_polynomial(word)
            brute = bruteforce_jones_a(list(word.letters), word.strands)
            assert dict(mine.coeffs) == brute

    def test_markov_invariance_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            word = random_braid(rng, max_strands=4, max_length=6)
            conj = BraidWord(word.strands, random_braid(
                rng, max_strands=word.strands, min_strands=word.strands, max_length=4).letters)
            base = jones_polynomial(word)
            assert jones_polynomial(markov_conjugate(word, conj)) == base
            assert jones_polynomial(markov_stabilize(word, 1)) == base
            assert jones_polynomial(markov_stabilize(word, -1)) == base

    def test_mirror_image_swaps_variable(self):
        rng = random.Random(8)
        for _ in range(20):
            word = random_braid(rng, max_strands=4, max_length=6)
            mirror = BraidWord(word.strands, tuple((i, -s) for i, s in word.letters))
            assert jones_polynomial(mirror) == jones_polynomial(word).substitute_inverse()

    def test_inverse_closure_is_mirror(self):
        # reversal preserves the closure; negating exponents mirrors it, so
        # the inverse word's closure has the A <-> A^-1 polynomial
        rng = random.Random(9)
        for _ in range(10):
            word = random_braid(rng, max_strands=4, max_length=6)
            assert jones_polynomial(inverse(word)) == jones_polynomial(word).substitute_inverse()

    def test_knot_value_at_third_root_is_one(self):
        import cmath

        a3 = 1j * cmath.exp(-1j * math.pi / 6)  # phase for k=3
        for name in ("trefoil", "figure_eight"):
            text, strands = WORDS[name]
            poly = jones_polynomial(parse_braid_word(text, strands))
            assert abs(poly.evaluate(a3) - 1) < 1e-12


# ---------------------------------------------------------------------------
# The letter-local oracle and the division-free normal form against
# test-local copies of the earlier general-purpose code.

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

polys = st.dictionaries(st.integers(-12, 12), st.integers(-40, 40), max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(bool)


@st.composite
def braid_words(draw, max_strands=8, max_length=10):
    n = draw(st.integers(2, max_strands))
    letters = draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=max_length))
    return BraidWord(n, tuple(letters))


def reference_product(x: TLElement, y: TLElement) -> TLElement:
    """General bilinear stacking with LOOP_WEIGHT**loops per term (the earlier product)."""
    out: dict = {}
    for mu, cu in x.terms.items():
        for ml, cl in y.terms.items():
            matching, loops = stack_matchings(mu, ml)
            out[matching] = out.get(matching, LaurentPoly.zero()) + cu * cl * LOOP_WEIGHT**loops
    return TLElement(x.n, out)


def reference_jones_rep(word: BraidWord) -> TLElement:
    """The earlier jones_rep: one bilinear product per letter with A E_i + A^-1 1 (or the swap)."""
    n = word.strands
    a, a_inv = LaurentPoly.monomial(1), LaurentPoly.monomial(-1)
    result = TLElement(n, {reference_identity(n): LaurentPoly.one()})
    for index, sign in word.letters:
        cap_coeff, id_coeff = (a, a_inv) if sign == 1 else (a_inv, a)
        factor = TLElement(n, {reference_generator(n, index): cap_coeff, reference_identity(n): id_coeff})
        result = reference_product(result, factor)
    return result


def reference_identity(n: int) -> PlanarMatching:
    """Through the validated constructor, as the earlier code built it."""
    return PlanarMatching(n, tuple((j, n + j) for j in range(1, n + 1)))


def reference_generator(n: int, i: int) -> PlanarMatching:
    """Through the validated constructor, as the earlier code built it."""
    pairs = [(i, i + 1), (n + i, n + i + 1)]
    pairs += [(j, n + j) for j in range(1, n + 1) if j not in (i, i + 1)]
    return PlanarMatching(n, tuple(pairs))


def reference_embed(m: PlanarMatching) -> PlanarMatching:
    """Through the validated constructor, as the earlier code built it."""
    n = m.n
    pairs = [(a if a <= n else a + 1, b if b <= n else b + 1) for a, b in m.pairs]
    return PlanarMatching(n + 1, pairs + [(n + 1, 2 * n + 2)])


def reference_normal_form(numerator: LaurentPoly, d_power: int) -> tuple[LaurentPoly, int]:
    """The earlier TraceValue normalization: long division by d until it raises."""
    if d_power < 0:
        numerator, d_power = numerator * LOOP_WEIGHT ** (-d_power), 0
    while d_power > 0 and not numerator.is_zero():
        try:
            numerator = numerator.div_exact(LOOP_WEIGHT)
        except ExactDivisionError:
            break
        d_power -= 1
    return numerator, 0 if numerator.is_zero() else d_power


class TestLetterAction:
    @PROPERTY
    @given(braid_words())
    def test_equals_the_bilinear_product(self, word):
        assert jones_rep(word) == reference_jones_rep(word)

    def test_long_word_on_eight_strands(self):
        word = random_braid(random.Random(11), max_strands=8, min_strands=8, max_length=24)
        assert jones_rep(word) == reference_jones_rep(word)

    def test_image_bound_refuses_after_the_letter_that_passes_it(self, monkeypatch):
        word = parse_braid_word("1 3 2 1 3", 4)
        sizes = [len(jones_rep(BraidWord(4, word.letters[:k])).terms) for k in range(6)]
        assert sizes[3] < sizes[4]
        monkeypatch.setattr("tljones.tl.MAX_IMAGE_TERMS", sizes[3])
        with pytest.raises(TLError, match=f"MAX_IMAGE_TERMS = {sizes[3]} diagrams at letter 4$"):
            jones_rep(word)
        assert len(jones_rep(BraidWord(4, word.letters[:3])).terms) == sizes[3]  # at the bound is allowed


class TestDivisionFreeNormalForm:
    @PROPERTY
    @given(polys, st.integers(0, 6))
    def test_closed_form_powers(self, p, j):
        assert times_d(p, j) == p * LOOP_WEIGHT**j

    @PROPERTY
    @given(nonzero_polys, st.integers(1, 5))
    def test_divisible_multiples_agree_with_div_exact(self, q, j):
        p = q * LOOP_WEIGHT**j
        assert d_divides(p)
        assert divide_by_d(p) == p.div_exact(LOOP_WEIGHT) == q * LOOP_WEIGHT ** (j - 1)

    @PROPERTY
    @given(polys, st.integers(0, 4), st.integers(-20, 20))
    def test_a_unit_added_is_never_divisible(self, q, j, e):
        p = q * LOOP_WEIGHT**j + LaurentPoly.monomial(e)
        assert not d_divides(p)
        with pytest.raises(ExactDivisionError):
            p.div_exact(LOOP_WEIGHT)

    def test_zero_is_divisible(self):
        assert d_divides(LaurentPoly.zero()) and divide_by_d(LaurentPoly.zero()).is_zero()

    @PROPERTY
    @given(polys, st.integers(0, 4), st.integers(-3, 6))
    def test_trace_value_normal_form(self, q, j, d_power):
        numerator = q * LOOP_WEIGHT**j
        value = TraceValue(numerator, d_power)
        assert (value.numerator, value.d_power) == reference_normal_form(numerator, d_power)

    def test_negative_d_power_multiplies_by_d(self):
        value = TraceValue(LaurentPoly.monomial(3), -2)
        assert (value.numerator, value.d_power) == (LaurentPoly.monomial(3) * LOOP_WEIGHT**2, 0)

    def test_div_d_by_a_negative_count_multiplies(self):
        value = TraceValue(LaurentPoly.one(), 1)  # 1/d
        assert value.div_d(-1) == TraceValue(LaurentPoly.one(), 0)
        assert value.div_d(-3).numerator == LOOP_WEIGHT**2 and value.div_d(-3).d_power == 0
        assert value.div_d(-3).div_d(3) == value


class TestLibraryBuiltTables:
    """identity, generator and embed build tables directly; the validated
    constructor must produce the same tables."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity_and_generators(self, n):
        assert PlanarMatching.identity(n) == reference_identity(n)
        for i in range(1, n):
            assert PlanarMatching.generator(n, i) == reference_generator(n, i)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_embed_generators(self, n):
        for m in [PlanarMatching.identity(n)] + [PlanarMatching.generator(n, i) for i in range(1, n)]:
            (embedded,) = embed(TLElement(n, {m: LaurentPoly.one()})).terms
            assert embedded == reference_embed(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_embed_every_catalan_matching(self, n):
        basis = all_matchings(n)
        image = embed(TLElement(n, {m: LaurentPoly.monomial(k) for k, m in enumerate(basis)}))
        assert image == TLElement(n + 1, {reference_embed(m): LaurentPoly.monomial(k) for k, m in enumerate(basis)})

    def test_identity_needs_a_strand(self):
        with pytest.raises(TLError, match="strand count"):
            PlanarMatching.identity(0)


class TestGeneratorWord:
    """generator_word stacks partner tables; the reference multiplies TLElements."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_element_product(self, n):
        rng = random.Random(n)
        for length in range(12):
            indices = [rng.randint(1, n - 1) for _ in range(length)]
            element = TLElement.identity(n)
            for i in indices:
                element = element * TLElement.generator(n, i)
            word = generator_word(n, indices)
            assert word == element
            a = complex(math.cos(math.pi / 7), math.sin(math.pi / 7))
            assert markov_trace(word).evaluate(a) == markov_trace(element).evaluate(a)  # bit for bit

    def test_empty_word_is_identity(self):
        assert generator_word(4, []) == TLElement.identity(4)

    @pytest.mark.parametrize("index", [0, 4])
    def test_index_out_of_range(self, index):
        with pytest.raises(TLError, match="out of range"):
            generator_word(4, [1, index])
