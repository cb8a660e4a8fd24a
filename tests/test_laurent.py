import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tljones.laurent import ExactDivisionError, LaurentPoly, convert_to_t


def poly_pow(base: LaurentPoly, exponent: int) -> LaurentPoly:
    """Square-and-multiply power, squaring the base only while a higher bit remains."""
    if exponent < 0:
        raise ValueError("negative powers are defined only for monomials; invert explicitly")
    result = LaurentPoly.one()
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def random_poly(rng: random.Random, span: int = 6, size: int = 5) -> LaurentPoly:
    return LaurentPoly(
        {rng.randint(-span, span): rng.randint(-9, 9) for _ in range(rng.randint(0, size))}
    )


class TestArithmetic:
    def test_zero_normalization(self):
        assert LaurentPoly({3: 0, 1: 2}).coeffs == {1: 2}
        assert LaurentPoly({}).is_zero()

    @pytest.mark.parametrize("coeffs", [{0: 1.5, 2.7: 3}, {0: 0.4}, {1.0: 2}], ids=["both", "below-one", "float-exponent"])
    def test_non_integers_refused(self, coeffs):
        # int() would truncate them, and {0: 0.4} would store a zero coefficient
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)

    def test_integer_likes_accepted(self):
        poly = LaurentPoly({np.int64(2): np.int64(-3), 0: np.int32(0), -1: 1})
        assert poly.coeffs == {2: -3, -1: 1}
        assert all(type(v) is int for pair in poly.coeffs.items() for v in pair)

    def test_add_sub(self):
        a = LaurentPoly({0: 1, 2: 3})
        b = LaurentPoly({2: -3, -1: 4})
        assert a + b == LaurentPoly({0: 1, -1: 4})
        assert (a + b) - b == a

    def test_mul(self):
        a = LaurentPoly({1: 1, -1: 1})
        assert a * a == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_int_operands_and_hash_refused(self):
        # an integer constant c is LaurentPoly.monomial(0, c); polynomials are unhashable
        a = LaurentPoly({1: 2})
        for attempt in (lambda: a + 1, lambda: 3 * a, lambda: a * 3, lambda: a - 1, lambda: hash(a)):
            with pytest.raises(TypeError):
                attempt()
        assert a + LaurentPoly.monomial(0, 1) == LaurentPoly({1: 2, 0: 1})
        assert (a == 2) is False

    def test_pow(self):
        d = LaurentPoly({2: -1, -2: -1})
        assert poly_pow(d, 0) == LaurentPoly.one()
        assert poly_pow(d, 3) == d * d * d

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            poly_pow(LaurentPoly({1: 1}), -1)

    def test_ring_properties_random(self):
        rng = random.Random(0)
        for _ in range(100):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_substitute_inverse_is_involution(self):
        rng = random.Random(1)
        for _ in range(50):
            a = random_poly(rng)
            assert a.substitute_inverse().substitute_inverse() == a


class TestDivision:
    def test_exact_division(self):
        d = LaurentPoly({2: -1, -2: -1})
        rng = random.Random(2)
        for _ in range(50):
            q = random_poly(rng)
            if q.is_zero():
                continue
            assert (q * d).div_exact(d) == q

    def test_inexact_division_raises(self):
        d = LaurentPoly({2: -1, -2: -1})
        with pytest.raises(ExactDivisionError):
            LaurentPoly({0: 1}).div_exact(d)

    def test_zero_dividend(self):
        assert LaurentPoly.zero().div_exact(LaurentPoly({1: 3})) == LaurentPoly.zero()


class TestEvaluation:
    def test_monomial(self):
        assert LaurentPoly({3: 2}).evaluate(2.0) == pytest.approx(16.0)

    def test_negative_exponent(self):
        assert LaurentPoly({-2: 1}).evaluate(2.0) == pytest.approx(0.25)

    def test_matches_horner_free_form(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_poly(rng)
            x = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            expected = sum(c * x**e for e, c in a.coeffs.items())
            assert a.evaluate(x) == pytest.approx(expected)

    @pytest.mark.parametrize("k", range(3, 12))
    def test_bits_independent_of_insertion_order(self, k):
        # the figure-eight's polynomial; summed in dict order, 6 of these 9 points differ in the last bits
        terms = [(-8, 1), (-4, -1), (0, 1), (4, -1), (8, 1)]
        x = 1j * cmath.exp(-1j * math.pi / (2 * k))
        up, down = LaurentPoly(dict(terms)).evaluate(x), LaurentPoly(dict(reversed(terms))).evaluate(x)
        assert (up.real, up.imag) == (down.real, down.imag)


class TestVariableChange:
    def test_t_conversion(self):
        # trefoil: A^4 + A^12 - A^16  ->  t^-1 + t^-3 - t^-4
        poly = LaurentPoly({4: 1, 12: 1, 16: -1})
        assert convert_to_t(poly) == LaurentPoly({-1: 1, -3: 1, -4: -1})

    def test_conversion_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            convert_to_t(LaurentPoly({2: -1, 10: -1}))

    def test_conversion_names_the_lowest_bad_exponent(self):
        with pytest.raises(ValueError, match="A-exponent 2 is"):
            convert_to_t(LaurentPoly({10: -1, 4: 1, 2: -1}))


class TestSerialization:
    def test_json_shape(self):
        data = LaurentPoly({-1: 2, 3: -1}).to_json_dict("t")
        assert data == {"variable": "t", "terms": [[-1, "2"], [3, "-1"]]}

    def test_big_coefficients_survive(self):
        big = 12345678901234567890123456789
        a = LaurentPoly({0: big})
        assert a.to_json_dict("A")["terms"] == [[0, str(big)]]

    def test_format(self):
        assert LaurentPoly({2: -1, -2: -1}).format() == "-A^-2 - A^2"
        assert LaurentPoly.zero().format() == "0"


# ---------------------------------------------------------------------------
# Properties against test-local copies of the earlier code.

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
polys = st.dictionaries(st.integers(-10, 10), st.integers(-30, 30), max_size=5).map(LaurentPoly)


def reference_div_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """The earlier long division: shift both operands to ordinary polynomials first."""
    if num.is_zero():
        return LaurentPoly.zero()
    offset = min(num.coeffs) - min(den.coeffs)
    rest = {e - min(num.coeffs): c for e, c in num.coeffs.items()}
    shifted = {e - min(den.coeffs): c for e, c in den.coeffs.items()}
    top = max(shifted)
    quotient = {}
    while rest:
        deg = max(rest)
        if deg < top or rest[deg] % shifted[top]:
            raise ExactDivisionError("remainder")
        q = quotient[deg - top] = rest[deg] // shifted[top]
        for e, c in shifted.items():
            rest[e + deg - top] = rest.get(e + deg - top, 0) - q * c
            if not rest[e + deg - top]:
                del rest[e + deg - top]
    return LaurentPoly({e + offset: c for e, c in quotient.items()})


def division_outcome(divide, num: LaurentPoly, den: LaurentPoly):
    try:
        return divide(num, den)
    except ExactDivisionError:
        return "remainder"


class TestPowerMultiplications:
    @pytest.mark.parametrize("exponent, products", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4)])
    def test_no_square_after_the_last_bit(self, monkeypatch, exponent, products):
        calls = []
        multiply = LaurentPoly.__mul__

        def counted(self, other):
            calls.append(1)
            return multiply(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        x = LaurentPoly({1: 1, -1: 2})
        result = poly_pow(x, exponent)
        assert len(calls) == products
        monkeypatch.undo()
        expected = LaurentPoly.one()
        for _ in range(exponent):
            expected = expected * x
        assert result == expected


class TestDivisionProperties:
    @PROPERTY
    @given(polys, polys.filter(bool))
    def test_exact_products_divide_like_the_earlier_code(self, q, den):
        num = q * den
        assert num.div_exact(den) == reference_div_exact(num, den) == q

    @PROPERTY
    @given(polys, polys.filter(bool))
    def test_any_pair_has_the_earlier_outcome(self, num, den):
        ours = division_outcome(LaurentPoly.div_exact, num, den)
        assert ours == division_outcome(reference_div_exact, num, den)
