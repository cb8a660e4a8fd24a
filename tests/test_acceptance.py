"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here, not configurable: symbolic checks are exact,
representation residuals 1e-10 (unitarity 1e-12), trace compatibility 1e-10,
oracle equivalence and knot sanity 1e-9, circuit identity 1e-12.
"""

import itertools
import json
import math
import random

from tljones import checks
from tljones.braids import (
    BraidWord,
    markov_conjugate,
    markov_stabilize,
    parse_braid_word,
    random_braid,
    closure_component_count,
)
from tljones.cli import main as cli_main
from tljones.evaluation import jones_value_exact, markov_trace_pathmodel
from tljones.pathmodel import enumerate_paths, global_gate
from tljones.sampling import SamplerConfig, hadamard_circuit_check, sample_jones_value
from tljones.tl import TLElement, jones_polynomial, markov_trace


def report(number: int, name: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number} ({name}): {detail}")


def test_criterion_1_oracle_self_consistency():
    relation_ok = checks.check_tl_relations(n_max=6, samples=10, seed=0).passed
    axioms = checks.check_trace_axioms(n_max=6, samples=50, seed=1)
    passed = relation_ok and axioms.passed
    report(1, "oracle self-consistency", passed,
           f"relations n=2..6 exact, {axioms.cases} axiom checks exact")
    assert passed, axioms.details


def test_criterion_2_representation_validity():
    result = checks.check_representation(n_max=8, k_max=8)
    report(2, "representation validity", result.passed,
           f"{result.cases} residual checks over n<=8, k<=8; max residual {result.max_residual:.2e}")
    assert result.passed, result.details[:10]


def test_criterion_3_trace_compatibility():
    rng = random.Random(3)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(3, 8)
        indices = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))]
        basis = enumerate_paths(n, k)
        element = TLElement.identity(n)
        for i in indices:
            element = element * TLElement.generator(n, i)
        symbolic = markov_trace(element).evaluate(basis.params.a_value) / basis.params.d**n
        numeric = markov_trace_pathmodel(basis, indices)
        worst = max(worst, abs(numeric - symbolic))
    passed = worst <= 1e-10
    report(3, "compatible-trace theorem", passed,
           f"100 random generator words, max |weighted - diagrammatic| = {worst:.2e}")
    assert passed


def test_criterion_4_oracle_equivalence():
    rng = random.Random(4)
    words = list(checks.standard_braid_suite().values())
    words += [random_braid(rng, max_strands=4, max_length=8) for _ in range(20)]
    worst = 0.0
    cases = 0
    for word in words:
        poly = jones_polynomial(word)
        for k in range(3, 11):
            result = jones_value_exact(word, k)
            worst = max(worst, abs(result.value - poly.evaluate(result.a_value)))
            cases += 1
    passed = worst <= 1e-9
    report(4, "end-to-end oracle equivalence", passed,
           f"{cases} (braid, k) pairs, max |path model - oracle| = {worst:.2e}")
    assert passed


def test_criterion_5_knot_sanity():
    rng = random.Random(5)
    worst_unknot = max(
        abs(jones_value_exact(parse_braid_word("1", 2), k).value - 1.0) for k in range(3, 11)
    )
    worst_k3 = 0.0
    knots = 0
    while knots < 25:
        word = random_braid(rng, max_strands=4, max_length=8)
        if closure_component_count(word) != 1:
            continue
        knots += 1
        worst_k3 = max(worst_k3, abs(jones_value_exact(word, 3).value - 1.0))
    for name in ("trefoil", "figure_eight"):
        word = checks.standard_braid_suite()[name]
        worst_k3 = max(worst_k3, abs(jones_value_exact(word, 3).value - 1.0))
    worst_move = 0.0
    for _ in range(50):
        word = random_braid(rng, max_strands=4, max_length=6)
        conj = BraidWord(word.strands, random_braid(
            rng, max_strands=word.strands, min_strands=word.strands, max_length=4).letters)
        k = rng.randint(3, 8)
        base = jones_value_exact(word, k).value
        worst_move = max(
            worst_move,
            abs(jones_value_exact(markov_conjugate(word, conj), k).value - base),
            abs(jones_value_exact(markov_stabilize(word, 1), k).value - base),
            abs(jones_value_exact(markov_stabilize(word, -1), k).value - base),
        )
    passed = worst_unknot <= 1e-9 and worst_k3 <= 1e-9 and worst_move <= 1e-9
    report(5, "knot-theory sanity", passed,
           f"unknot {worst_unknot:.2e}, knots at k=3 {worst_k3:.2e}, "
           f"Markov moves {worst_move:.2e}")
    assert passed


def test_criterion_6_sampler_statistics():
    word = parse_braid_word("1 1 1", 2)
    exact = jones_value_exact(word, 5)
    epsilon = 0.05
    lam = enumerate_paths(2, 5).params.lam
    basis = enumerate_paths(2, 5)
    sector_weight = sum(lam[m] * len(basis.sectors[m]) for m in basis.nonempty_sectors())
    scaling = abs(exact.prefactor) * exact.d ** (exact.n - 1) * sector_weight / exact.normalization
    bound = scaling * epsilon * math.sqrt(2)
    within = 0
    for seed in range(100):
        run = sample_jones_value(word, 5, SamplerConfig(epsilon=epsilon, delta=0.05, seed=seed))
        if run.abs_error <= bound:
            within += 1
    identity_exact = True
    for n, k, seed in itertools.product((1, 2, 3), (3, 5, 8), (0, 1, 2)):
        run = sample_jones_value(BraidWord.identity(n), k, SamplerConfig(epsilon=epsilon, delta=0.05, seed=seed))
        identity_exact &= run.abs_error == 0.0
    passed = within >= 95 and identity_exact
    report(6, "sampler statistics", passed,
           f"{within}/100 trefoil runs within {bound:.4f}; "
           f"identity-braid sampling error exactly zero: {identity_exact}")
    assert passed


def all_words(strands: int, max_length: int):
    letters = [(i, s) for i in range(1, strands) for s in (1, -1)]
    for length in range(max_length + 1):
        for combo in itertools.product(letters, repeat=length):
            yield BraidWord(strands, combo)


def test_criterion_7_circuit_identity():
    worst = 0.0
    cases = 0
    for n in (1, 2, 3):
        for k in (3, 4, 5):
            basis = enumerate_paths(n, k)
            for word in all_words(n, 4):
                for m in basis.nonempty_sectors():
                    gate = global_gate(basis, word, m)
                    for p in range(gate.dim):
                        worst = max(worst, hadamard_circuit_check(gate, p).max_deviation)
                        cases += 1
    passed = worst <= 1e-12
    report(7, "circuit identity", passed,
           f"{cases} (gate, basis state) checks, both variants, max deviation {worst:.2e}")
    assert passed


def test_criterion_8_cli_determinism(capsys):
    invocations = [
        ["sample", "--braid", "1 1 1", "--strands", "2", "--k", "5",
         "--epsilon", "0.1", "--delta", "0.1", "--seed", "31415"],
        ["sample", "--braid", "1 -2 1 -2", "--strands", "3", "--k", "6",
         "--iterations", "300", "--seed", "8"],
        ["evaluate", "--braid", "1 1 1", "--strands", "2", "--k", "7"],
        ["exact", "--braid", "1 -2 1 -2", "--strands", "3"],
        ["paths", "--n", "6", "--k", "7"],
    ]
    all_same = True
    for argv in invocations:
        outputs = []
        for _ in range(2):
            status = cli_main(list(argv))
            captured = capsys.readouterr()
            assert status == 0, captured.err
            outputs.append(captured.out.encode())
        all_same &= outputs[0] == outputs[1]
    report(8, "determinism", all_same,
           f"{len(invocations)} seeded invocations byte-identical across repeat runs")
    assert all_same


def test_acceptance_suite_summary(capsys):
    # Not a criterion: one-line confirmation that sampled JSON stays parseable.
    status = cli_main(["sample", "--braid", "", "--strands", "2", "--k", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert status == 0
    data = json.loads(captured.out)
    assert data["abs_error"] == 0.0  # identity braid: every sector gate is the identity
