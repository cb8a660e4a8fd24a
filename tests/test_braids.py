import random

import numpy as np
import pytest

from tljones.braids import (
    BraidError,
    BraidParseError,
    BraidWord,
    closure_component_count,
    inverse,
    markov_conjugate,
    markov_stabilize,
    parse_braid_word,
    product,
    random_braid,
    strand_permutation,
    writhe,
)


def free_reduce(word: BraidWord) -> BraidWord:
    """Delete adjacent b_i^{+1} b_i^{-1} pairs until none remain (test helper)."""
    stack: list[tuple[int, int]] = []
    for letter in word.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(word.strands, tuple(stack))


class TestParse:
    def test_positive_word(self):
        word = parse_braid_word("1 1 1", 2)
        assert word.letters == ((1, 1), (1, 1), (1, 1))

    def test_empty_is_identity(self):
        word = parse_braid_word("", 5)
        assert word.letters == ()
        assert word.strands == 5

    def test_whitespace_only_is_identity(self):
        assert parse_braid_word("   \t ", 3).letters == ()

    def test_mixed_signs(self):
        word = parse_braid_word("2 -1 2", 3)
        assert word.letters == ((2, 1), (1, -1), (2, 1))

    def test_index_out_of_range(self):
        # BraidWord checks the range for text and JSON alike
        with pytest.raises(BraidError, match="generator index 3 out of range"):
            parse_braid_word("3", 3)

    def test_zero_token(self):
        with pytest.raises(BraidParseError, match="0"):
            parse_braid_word("1 0 1", 3)

    def test_non_integer_token(self):
        with pytest.raises(BraidParseError, match="x"):
            parse_braid_word("1 x", 3)

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(50):
            word = random_braid(rng)
            text = " ".join(str(v) for v in word.signed_indices())
            assert parse_braid_word(text, word.strands) == word

    def test_json_round_trip(self):
        word = parse_braid_word("1 -2 1 -2", 3)
        assert BraidWord.from_json_dict(word.to_json_dict()) == word


class TestWrithe:
    def test_positive(self):
        assert writhe(parse_braid_word("1 1 1", 2)) == 3

    def test_identity(self):
        assert writhe(BraidWord.identity(4)) == 0

    def test_balanced(self):
        assert writhe(parse_braid_word("1 -2 1 -2", 3)) == 0

    def test_additive_under_product(self):
        rng = random.Random(1)
        for _ in range(30):
            a = random_braid(rng)
            b = BraidWord(a.strands, random_braid(rng, max_strands=a.strands,
                                                  min_strands=a.strands).letters)
            assert writhe(product(a, b)) == writhe(a) + writhe(b)
            assert writhe(inverse(a)) == -writhe(a)


class TestProductInverse:
    def test_concatenation(self):
        b1 = parse_braid_word("1", 2)
        assert product(b1, b1).letters == ((1, 1), (1, 1))

    def test_identity_neutral(self):
        word = parse_braid_word("1 -1 1", 2)
        assert product(BraidWord.identity(2), word) == word

    def test_strand_mismatch(self):
        with pytest.raises(BraidError):
            product(parse_braid_word("1", 2), parse_braid_word("1", 3))

    def test_inverse_reverses_and_negates(self):
        assert inverse(parse_braid_word("1 -2", 3)).letters == ((2, 1), (1, -1))

    def test_inverse_of_identity(self):
        assert inverse(BraidWord.identity(3)) == BraidWord.identity(3)

    def test_inverse_of_square(self):
        assert inverse(parse_braid_word("1 1", 2)).letters == ((1, -1), (1, -1))


class TestFreeReduce:
    def test_cancels_pair(self):
        assert free_reduce(parse_braid_word("1 -1", 2)) == BraidWord.identity(2)

    def test_cancels_inner_pair(self):
        assert free_reduce(parse_braid_word("1 2 -2 1", 3)).letters == ((1, 1), (1, 1))

    def test_no_change(self):
        word = parse_braid_word("1 2", 3)
        assert free_reduce(word) == word

    def test_word_times_inverse_reduces_to_identity(self):
        rng = random.Random(2)
        for _ in range(50):
            word = random_braid(rng)
            assert free_reduce(product(word, inverse(word))) == BraidWord.identity(word.strands)


class TestMarkovMoves:
    def test_conjugate_concatenation(self):
        beta = parse_braid_word("1 1 1", 2)
        alpha = parse_braid_word("1", 2)
        assert markov_conjugate(beta, alpha).letters == ((1, 1),) * 4 + ((1, -1),)

    def test_conjugate_by_identity(self):
        beta = parse_braid_word("2", 3)
        assert markov_conjugate(beta, BraidWord.identity(3)) == beta

    def test_conjugate_example(self):
        assert markov_conjugate(parse_braid_word("2", 3), parse_braid_word("1", 3)).letters == (
            (1, 1), (2, 1), (1, -1),
        )

    def test_stabilize_appends_new_generator(self):
        word = markov_stabilize(parse_braid_word("1 1 1", 2), 1)
        assert word.strands == 3
        assert word.letters == ((1, 1), (1, 1), (1, 1), (2, 1))

    def test_stabilize_identity_b1(self):
        word = markov_stabilize(BraidWord.identity(1), 1)
        assert word.strands == 2 and word.letters == ((1, 1),)

    def test_stabilize_negative(self):
        word = markov_stabilize(parse_braid_word("1", 2), -1)
        assert word.letters == ((1, 1), (2, -1))

    def test_writhe_under_moves(self):
        rng = random.Random(3)
        for _ in range(30):
            beta = random_braid(rng)
            alpha = BraidWord(beta.strands, random_braid(
                rng, max_strands=beta.strands, min_strands=beta.strands, max_length=4).letters)
            assert writhe(markov_conjugate(beta, alpha)) == writhe(beta)
            assert writhe(markov_stabilize(beta, 1)) == writhe(beta) + 1
            assert writhe(markov_stabilize(beta, -1)) == writhe(beta) - 1


class TestPermutation:
    def test_transposition(self):
        assert strand_permutation(parse_braid_word("1", 2)) == (1, 0)

    def test_components(self):
        assert closure_component_count(parse_braid_word("1", 2)) == 1  # unknot
        assert closure_component_count(parse_braid_word("1 1", 2)) == 2  # Hopf link
        assert closure_component_count(parse_braid_word("1 1 1", 2)) == 1  # trefoil
        assert closure_component_count(parse_braid_word("1 -2 1 -2", 3)) == 1  # figure-eight
        assert closure_component_count(BraidWord.identity(3)) == 3  # 3-unlink


class TestValidation:
    def test_bad_strands(self):
        with pytest.raises(BraidError):
            BraidWord(0, ())

    def test_bad_index(self):
        with pytest.raises(BraidError):
            BraidWord(2, ((2, 1),))

    def test_bad_exponent(self):
        with pytest.raises(BraidError):
            BraidWord(3, ((1, 2),))

    @pytest.mark.parametrize(
        "strands, letters",
        [(2.5, ()), (3.0, ()), (3, ((1.9, 1),)), (3, ((1, 1.0),))],
        ids=["strands", "whole-float-strands", "index", "exponent"],
    )
    def test_non_integers_refused(self, strands, letters):
        # int() would truncate them: BraidWord(3, ((1.9, 1),)) became ((1, 1),)
        with pytest.raises(TypeError):
            BraidWord(strands, letters)

    def test_integer_likes_accepted(self):
        word = BraidWord(np.int64(3), ((np.int64(2), np.int8(-1)),))
        assert word.letters == ((2, -1),) and all(type(v) is int for v in word.letters[0])

    @pytest.mark.parametrize("text", ["0", "1 0 1"])
    def test_zero_refused_like_json(self, text):
        with pytest.raises(BraidParseError, match="^0 is not a valid signed generator index$"):
            parse_braid_word(text, 3)
        with pytest.raises(BraidParseError, match="^0 is not a valid signed generator index$"):
            BraidWord.from_json_dict({"strands": 3, "word": [int(v) for v in text.split()]})
