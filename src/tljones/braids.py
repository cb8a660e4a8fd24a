"""Braid words: parsing, serialization, writhe, and Markov-move constructors.

A braid on n strands is a word in the generators b_1 .. b_{n-1} and their
inverses, stored as (index, exponent) letters with exponent +-1. The strand
count is always explicit: the same letters close to different links in
different groups, so it is never inferred from the maximum index.

Text format: whitespace-separated nonzero signed integers, "-2" meaning the
inverse of b_2. JSON format: {"strands": n, "word": [+-i, ...]}.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Mapping


class BraidError(ValueError):
    """Invalid braid construction (bad index, strand mismatch, ...)."""


class BraidParseError(BraidError):
    """Unparseable braid word text; the message names the offending token."""


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in braid generators; the empty word is the identity braid."""

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if operator.index(self.strands) < 1:  # operator.index refuses a float rather than truncating it
            raise BraidError(f"strand count must be >= 1, got {self.strands}")
        object.__setattr__(self, "letters", tuple((operator.index(i), operator.index(s)) for i, s in self.letters))
        for index, sign in self.letters:
            if sign not in (1, -1):
                raise BraidError(f"exponent must be +1 or -1, got {sign}")
            if not 1 <= index <= self.strands - 1:
                raise BraidError(
                    f"generator index {index} out of range [1, {self.strands - 1}]"
                )

    @classmethod
    def identity(cls, strands: int) -> BraidWord:
        return cls(strands, ())

    def signed_indices(self) -> tuple[int, ...]:
        """The word as signed integers, sign carrying the exponent."""
        return tuple(i * s for i, s in self.letters)

    def to_json_dict(self) -> dict:
        return {"strands": self.strands, "word": list(self.signed_indices())}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> BraidWord:
        """Inverse of to_json_dict; rejects any value that is not of the documented JSON type."""
        if not isinstance(data, Mapping):
            raise BraidParseError(f"braid JSON must be an object, got {type(data).__name__}")
        if missing := [key for key in ("strands", "word") if key not in data]:
            raise BraidParseError(f"braid JSON has no {missing[0]!r} key")
        strands, word = data["strands"], data["word"]
        if not _is_int(strands):
            raise BraidParseError(f"'strands' must be an integer, got {strands!r}")
        if not isinstance(word, (list, tuple)) or not all(_is_int(v) for v in word):
            raise BraidParseError(f"'word' must be a list of integers, got {word!r}")
        return cls(strands, tuple(map(_letter, word)))


def _is_int(value) -> bool:
    """A JSON integer; bool is a subclass of int but never a count or an index."""
    return isinstance(value, int) and not isinstance(value, bool)


def _letter(value: int) -> tuple[int, int]:
    """A signed generator index as an (index, exponent) letter; BraidWord checks the index's range."""
    if value == 0:
        raise BraidParseError("0 is not a valid signed generator index")
    return abs(value), 1 if value > 0 else -1


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices into a braid word.

    Empty or all-whitespace text is the identity braid.
    """
    values = []
    for token in text.split():
        try:
            values.append(int(token))
        except ValueError:
            raise BraidParseError(f"token {token!r} is not a signed integer") from None
    return BraidWord(strands, tuple(map(_letter, values)))


def writhe(word: BraidWord) -> int:
    """Sum of the exponents of the word (the crossing-sign count)."""
    return sum(sign for _, sign in word.letters)


def product(left: BraidWord, right: BraidWord) -> BraidWord:
    """Concatenation, left's letters first; strand counts must agree."""
    if left.strands != right.strands:
        raise BraidError(
            f"cannot multiply braids on {left.strands} and {right.strands} strands"
        )
    return BraidWord(left.strands, left.letters + right.letters)


def inverse(word: BraidWord) -> BraidWord:
    """Letters reversed with exponents negated."""
    return BraidWord(word.strands, tuple((i, -s) for i, s in reversed(word.letters)))


def markov_conjugate(word: BraidWord, conjugator: BraidWord) -> BraidWord:
    """The conjugate a w a^-1; its closure has the same link type as w's."""
    return product(product(conjugator, word), inverse(conjugator))


def markov_stabilize(word: BraidWord, sign: int) -> BraidWord:
    """Append b_n^{sign} on a fresh strand; preserves the closure's link type."""
    if sign not in (1, -1):
        raise BraidError(f"stabilization sign must be +1 or -1, got {sign}")
    n = word.strands
    return BraidWord(n + 1, word.letters + ((n, sign),))


def strand_permutation(word: BraidWord) -> tuple[int, ...]:
    """Position of each strand after the braid (underlying permutation)."""
    state = list(range(word.strands))
    for index, _ in word.letters:
        state[index - 1], state[index] = state[index], state[index - 1]
    return tuple(state)


def closure_component_count(word: BraidWord) -> int:
    """Number of link components of the trace closure (cycles of the permutation)."""
    perm = strand_permutation(word)
    seen = [False] * word.strands
    components = 0
    for start in range(word.strands):
        if seen[start]:
            continue
        components += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return components


def random_braid(
    rng,
    max_strands: int = 4,
    max_length: int = 8,
    min_strands: int = 2,
) -> BraidWord:
    """Uniform-ish random word for property tests; rng is a random.Random."""
    strands = rng.randint(min_strands, max_strands)
    length = rng.randint(0, max_length)
    letters = tuple(
        (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(strands, letters)
