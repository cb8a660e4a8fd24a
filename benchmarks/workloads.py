"""The four benchmark workloads: seeded invocation streams and output checks.

Each workload is a closed loop of `tljones` CLI invocations. Inputs are made
here from the workload seed; the program only ever sees argv text such as
`evaluate --braid "1 -2 3" --strands 4 --k 5`. Every output is checked
against an independent route or an identity after the timed phase, with the
library's own oracle tolerance (`Tolerances.oracle_match`, 1e-9).

Word generation needs no import of tljones, so a set-up probe pays for
importing the program exactly once, in the place a CLI user pays for it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Callable, Iterator

ORACLE_MATCH = 1e-9  # tljones.checks.Tolerances.oracle_match


@dataclasses.dataclass(frozen=True)
class Invocation:
    """One CLI call: the argv handed to `tljones.cli.main` plus what it encodes."""

    argv: tuple[str, ...]
    strands: int = 0
    word: tuple[int, ...] = ()  # signed generator indices
    k: int = 0
    conjugator: int = 0  # generator index for the Markov-conjugation check


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: Callable[[random.Random, bool], Invocation]
    rounds: Callable[[random.Random, bool], Iterator[list[Invocation]]]
    check: Callable[[Invocation, dict], list[str]]
    # for the warm-up invocation and the first timed round, where a check
    # as costly as the invocation itself is affordable
    thorough_check: Callable[[Invocation, dict], list[str]] | None = None


def word_text(word: tuple[int, ...]) -> str:
    return " ".join(str(x) for x in word)


def uniform_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """Uniform random letters: generator index in [1, n-1], sign +-1."""
    return tuple(rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(length))


def braid_invocation(command: str, rng: random.Random, strands: int, length: int,
                     k: int = 0, extra: tuple[str, ...] = ()) -> Invocation:
    word = uniform_word(rng, strands, length)
    argv = (command, "--braid", word_text(word), "--strands", str(strands))
    if k:
        argv += ("--k", str(k))
    return Invocation(argv + extra, strands, word, k, rng.randint(1, strands - 1))


# ---------------------------------------------------------------- path model

PATHMODEL_SIZES = ((12, 8), (13, 10), (14, 10))  # total dims 792, 1729, 3250
PATHMODEL_SMOKE = ((5, 5), (6, 6))
PATHMODEL_LENGTH = 20
ORACLE_CHECK_MAX_STRANDS = 8  # the symbolic oracle takes ~1 s per word at n=9


def pathmodel_warmup(rng: random.Random, smoke: bool) -> Invocation:
    return braid_invocation("evaluate", rng, 4 if smoke else 8, 6 if smoke else 20, k=5 if smoke else 10)


def pathmodel_rounds(rng: random.Random, smoke: bool) -> Iterator[list[Invocation]]:
    sizes, length = (PATHMODEL_SMOKE, 6) if smoke else (PATHMODEL_SIZES, PATHMODEL_LENGTH)
    while True:
        yield [braid_invocation("evaluate", rng, n, length, k=k) for n, k in sizes]


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _echo_errors(inv: Invocation, doc: dict) -> list[str]:
    errors = []
    if doc.get("n", doc.get("strands")) != inv.strands:
        errors.append(f"strand count {doc.get('n', doc.get('strands'))} != {inv.strands}")
    if tuple(doc.get("word", ())) != inv.word:
        errors.append("echoed word differs from the input")
    return errors


def braid_word(strands: int, word) -> "BraidWord":
    from tljones.braids import BraidWord

    return BraidWord.from_json_dict({"strands": strands, "word": list(word)})


def pathmodel_check(inv: Invocation, doc: dict) -> list[str]:
    """value = prefactor * d^(n-1) * weighted_trace."""
    errors = _echo_errors(inv, doc)
    value = _complex(doc["value"])
    recomputed = _complex(doc["prefactor"]) * doc["d"] ** (inv.strands - 1) * _complex(doc["weighted_trace"])
    if abs(value - recomputed) > ORACLE_MATCH:
        errors.append(f"value != prefactor*d^(n-1)*weighted_trace by {abs(value - recomputed):.3e}")
    return errors


def pathmodel_thorough_check(inv: Invocation, doc: dict) -> list[str]:
    """Also: the value is invariant under Markov conjugation b_j w b_j^-1
    (recomputed in-process), and up to n=8 it matches the symbolic oracle."""
    from tljones.evaluation import jones_value_exact
    from tljones.tl import jones_polynomial

    errors = pathmodel_check(inv, doc)
    value, j = _complex(doc["value"]), inv.conjugator
    moved = jones_value_exact(braid_word(inv.strands, (j, *inv.word, -j)), inv.k).value
    if abs(moved - value) > ORACLE_MATCH:
        errors.append(f"Markov conjugation by b_{j} moves the value by {abs(moved - value):.3e}")
    if inv.strands <= ORACLE_CHECK_MAX_STRANDS:
        expected = jones_polynomial(braid_word(inv.strands, inv.word)).evaluate(_complex(doc["a_value"]))
        if abs(value - expected) > ORACLE_MATCH:
            errors.append(f"path model differs from the symbolic oracle by {abs(value - expected):.3e}")
    return errors


# -------------------------------------------------------------------- oracle

# The oracle's cost is set by the strand-index sequence, which fixes how many
# planar matchings the image reaches; crossing signs only pick the link. With
# free random words that count, and so the time per word, varies fivefold
# between seeds, which no run of a few seconds can average out. So each n
# uses one fixed index skeleton (uniform random letters, drawn once from a
# constant seed) and the workload seed draws the crossing signs.
ORACLE_SIZES = (9, 10)
ORACLE_SMOKE = (4, 5)
ORACLE_SKELETON_SEEDS = {9: 4, 10: 8}


def oracle_skeleton(strands: int) -> tuple[int, ...]:
    rng = random.Random(f"skeleton/{strands}/{ORACLE_SKELETON_SEEDS.get(strands, 0)}")
    return tuple(rng.randint(1, strands - 1) for _ in range(3 * strands))


def signed_skeleton(rng: random.Random, skeleton: tuple[int, ...]) -> tuple[int, ...]:
    """Random crossing signs, repeated where a letter could cancel its predecessor.

    A letter b_i takes the sign of the previous b_i unless a b_(i+-1) lies
    between them, so no b_i b_i^-1 pair can meet by far commutation and
    shrink the word.
    """
    word, open_sign = [], {}
    for i in skeleton:
        sign = open_sign.get(i) or rng.choice((1, -1))
        word.append(i * sign)
        open_sign[i] = sign
        open_sign.pop(i - 1, None)
        open_sign.pop(i + 1, None)
    return tuple(word)


def oracle_invocation(rng: random.Random, strands: int) -> Invocation:
    word = signed_skeleton(rng, oracle_skeleton(strands))
    return Invocation(("exact", "--braid", word_text(word), "--strands", str(strands)), strands, word)


def oracle_warmup(rng: random.Random, smoke: bool) -> Invocation:
    return oracle_invocation(rng, 3 if smoke else 6)


def oracle_rounds(rng: random.Random, smoke: bool) -> Iterator[list[Invocation]]:
    sizes = ORACLE_SMOKE if smoke else ORACLE_SIZES
    while True:
        yield [oracle_invocation(rng, n) for n in sizes]


def oracle_check(inv: Invocation, doc: dict) -> list[str]:
    """polynomial_a at choose_a(k) equals the path-model value for k = 5, 7."""
    from tljones.evaluation import jones_value_exact
    from tljones.pathmodel import choose_a

    errors = _echo_errors(inv, doc)
    terms = [(int(e), int(c)) for e, c in doc["polynomial_a"]["terms"]]
    word = braid_word(inv.strands, inv.word)
    for k in (5, 7):
        a = choose_a(k)
        symbolic = sum(c * a**e for e, c in terms)
        numeric = jones_value_exact(word, k).value
        if abs(symbolic - numeric) > ORACLE_MATCH:
            errors.append(f"k={k}: polynomial differs from the path model by {abs(symbolic - numeric):.3e}")
    return errors


# ------------------------------------------------------------------- sampler

SAMPLER_FLAGS = ("--epsilon", "0.005", "--delta", "0.05")
SAMPLER_SMOKE_FLAGS = ("--epsilon", "0.1", "--delta", "0.05")


def sampler_invocation(rng: random.Random, strands: int, k: int, length: int,
                       flags: tuple[str, ...]) -> Invocation:
    extra = flags + ("--seed", str(rng.randrange(2**31)))
    return braid_invocation("sample", rng, strands, length, k=k, extra=extra)


def sampler_warmup(rng: random.Random, smoke: bool) -> Invocation:
    if smoke:
        return sampler_invocation(rng, 3, 5, 4, SAMPLER_SMOKE_FLAGS)
    return sampler_invocation(rng, 6, 6, 12, ("--epsilon", "0.05", "--delta", "0.05"))


def sampler_rounds(rng: random.Random, smoke: bool) -> Iterator[list[Invocation]]:
    while True:
        if smoke:
            yield [sampler_invocation(rng, 4, 5, 6, SAMPLER_SMOKE_FLAGS)]
        else:
            yield [sampler_invocation(rng, 12, 6, 20, SAMPLER_FLAGS)]


def sampler_check(inv: Invocation, doc: dict) -> list[str]:
    """exact_value equals jones_value_exact; abs_error is within the loose
    sanity bound d^(n-1) * sqrt(2) * epsilon (not a confidence level)."""
    from tljones.evaluation import jones_value_exact

    errors = _echo_errors(inv, doc)
    exact = jones_value_exact(braid_word(inv.strands, inv.word), inv.k).value
    if abs(_complex(doc["exact_value"]) - exact) > ORACLE_MATCH:
        errors.append(f"exact_value differs from jones_value_exact by {abs(_complex(doc['exact_value']) - exact):.3e}")
    sanity = doc["d"] ** (inv.strands - 1) * math.sqrt(2.0) * doc["epsilon"]
    if not doc["abs_error"] <= sanity:
        errors.append(f"abs_error {doc['abs_error']:.3e} exceeds the sanity bound {sanity:.3e}")
    return errors


# -------------------------------------------------------------------- verify

VERIFY_SUITES = 6


def verify_invocation(rng: random.Random, smoke: bool, warm: bool = False) -> Invocation:
    if smoke:
        sizes = ("--n", "3", "--k", "4", "--samples", "2" if warm else "3")
    elif warm:
        sizes = ("--n", "4", "--k", "5", "--samples", "5")
    else:
        sizes = ("--n", "8", "--k", "10", "--samples", "50")
    return Invocation(("verify",) + sizes + ("--seed", str(rng.randrange(2**31))))


def verify_rounds(rng: random.Random, smoke: bool) -> Iterator[list[Invocation]]:
    while True:
        yield [verify_invocation(rng, smoke)]


def verify_check(inv: Invocation, doc: dict) -> list[str]:
    """all_passed, and every one of the six suites ran at least one case."""
    errors = [] if doc.get("all_passed") is True else ["all_passed is not true"]
    suites = doc.get("suites", [])
    if len(suites) != VERIFY_SUITES:
        errors.append(f"{len(suites)} suites reported, expected {VERIFY_SUITES}")
    errors += [f"suite {s.get('name')} ran no cases" for s in suites if not s.get("cases", 0) > 0]
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pathmodel-wide",
            "dense path-model gates at total dim 792-3250 (n=12..14, L=20): global_gate is ~99% of time; tl never runs",
            pathmodel_warmup, pathmodel_rounds, pathmodel_check, pathmodel_thorough_check,
        ),
        Workload(
            "oracle-symbolic",
            "symbolic TL oracle at n=9,10, L=3n (1.2-1.6k matchings per image): all time in tl + laurent; pathmodel never runs",
            oracle_warmup, oracle_rounds, oracle_check,
        ),
        Workload(
            "sampler-fine",
            "Hadamard-test sampler at n=12, k=6, eps=0.005: ~72M Bernoulli draws per call, the per-walk draw loop dominates",
            sampler_warmup, sampler_rounds, sampler_check,
        ),
        Workload(
            "verify-small",
            "verify --n 8 --k 10: thousands of tiny pathmodel/tl calls, so fixed per-call cost dominates; only user of checks",
            lambda rng, smoke: verify_invocation(rng, smoke, warm=True), verify_rounds, verify_check,
        ),
    )
}


def check_output(workload: Workload, inv: Invocation, rc, stdout: str, thorough: bool = False) -> list[str]:
    """Every reason this invocation's result is wrong; empty when it is correct."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    if not isinstance(doc, dict):
        return ["stdout is not a JSON object"]
    check = (thorough and workload.thorough_check) or workload.check
    try:
        return check(inv, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
