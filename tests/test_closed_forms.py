"""Closed-form values of the Jones polynomial at k = 3, 4 and 6, which check the
path model on braids wider than the symbolic oracle reaches.

With t = e^(2 pi i / k) and c the closure's component count:

- k=3: V = 1 for every link (Jones, Bull. AMS 12, 1985);
- k=4 (t = i): |V| is 0 or sqrt(2)^(c-1), the Arf-invariant formula;
- k=6 (t = e^(i pi / 3)): |V|^2 is an integer power of 3 (Lickorish-Millett,
  Topology 25, 1986);
- the mirror word (every exponent negated) gives conj(V), since A^-1 = conj(A)
  and V has integer coefficients.

The braids are seeded, with up to 20 letters; the whole module runs in a few
seconds.
"""

import math
import random

import pytest

from tljones import BraidWord, Tolerances, closure_component_count, jones_value_exact
from tljones.braids import random_braid

TOL = Tolerances().oracle_match


def braids(seed: int, count: int, max_strands: int) -> list[BraidWord]:
    rng = random.Random(seed)
    return [random_braid(rng, max_strands=max_strands, max_length=20) for _ in range(count)]


def mirror(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple((i, -s) for i, s in word.letters))


@pytest.mark.parametrize("word", braids(3, 40, max_strands=20))
def test_k3_value_is_one_for_every_closure(word):
    assert abs(jones_value_exact(word, 3).value - 1.0) <= TOL


@pytest.mark.parametrize("word", braids(4, 30, max_strands=20))
def test_k4_modulus_is_zero_or_a_power_of_sqrt2(word):
    modulus = abs(jones_value_exact(word, 4).value)
    expected = math.sqrt(2.0) ** (closure_component_count(word) - 1)
    assert modulus <= TOL or abs(modulus - expected) <= TOL * expected, (modulus, expected)


@pytest.mark.parametrize("word", braids(6, 30, max_strands=14))
def test_k6_squared_modulus_is_a_power_of_3(word):
    squared = abs(jones_value_exact(word, 6).value) ** 2
    power = 3.0 ** round(math.log(squared, 3))
    assert abs(squared - power) <= TOL * power, squared


@pytest.mark.parametrize("k", [3, 4, 6])
def test_mirror_gives_the_conjugate(k):
    for word in braids(k + 100, 10, max_strands=12):
        value = jones_value_exact(word, k).value
        mirrored = jones_value_exact(mirror(word), k).value
        assert abs(mirrored - value.conjugate()) <= TOL * max(1.0, abs(value)), (word, k)
