import random

import numpy as np
import pytest

from tljones.braids import BraidWord, markov_conjugate, markov_stabilize, parse_braid_word, random_braid
from tljones.evaluation import (
    build_gates,
    jones_value_exact,
    markov_trace_pathmodel,
    weighted_trace,
)
from tljones.pathmodel import PathModelError, SectorOperator, enumerate_paths
from tljones.tl import TLElement, jones_polynomial, markov_trace


class TestWeightedTrace:
    def test_identity_operators_give_one(self):
        basis = enumerate_paths(4, 6)
        ops = {
            m: SectorOperator(np.eye(len(basis.sectors[m]), dtype=complex))
            for m in basis.nonempty_sectors()
        }
        assert weighted_trace(basis, ops) == pytest.approx(1.0)

    def test_letter_times_inverse_gives_one(self):
        word = parse_braid_word("1 -1", 3)
        basis = enumerate_paths(3, 5)
        assert weighted_trace(basis, build_gates(basis, word)) == pytest.approx(1.0, abs=1e-12)

    def test_traceless_operators_give_zero(self):
        basis = enumerate_paths(3, 5)
        ops = {}
        for m in basis.nonempty_sectors():
            dim = len(basis.sectors[m])
            diag = np.zeros(dim, dtype=complex)
            if dim >= 2:
                diag[0], diag[1] = 1j, -1j
            ops[m] = SectorOperator(np.diag(diag))
        assert abs(weighted_trace(basis, ops)) <= 1e-12

    def test_missing_sector_rejected(self):
        basis = enumerate_paths(3, 5)
        ops = {
            m: SectorOperator(np.eye(len(basis.sectors[m]), dtype=complex))
            for m in basis.nonempty_sectors()
        }
        ops.pop(basis.nonempty_sectors()[0])
        with pytest.raises(PathModelError, match="missing"):
            weighted_trace(basis, ops)


class TestMarkovTracePathmodel:
    def test_identity_word(self):
        basis = enumerate_paths(3, 5)
        assert markov_trace_pathmodel(basis, []) == pytest.approx(1.0)

    def test_single_generator(self):
        for k in range(3, 9):
            basis = enumerate_paths(3, k)
            assert markov_trace_pathmodel(basis, [1]) == pytest.approx(
                1.0 / basis.params.d, abs=1e-10
            )

    def test_adjacent_pair(self):
        basis = enumerate_paths(3, 6)
        assert markov_trace_pathmodel(basis, [1, 2]) == pytest.approx(
            1.0 / basis.params.d**2, abs=1e-10
        )

    def test_matches_symbolic_randomly(self):
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randint(2, 5)
            k = rng.randint(3, 8)
            indices = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))]
            basis = enumerate_paths(n, k)
            element = TLElement.identity(n)
            for i in indices:
                element = element * TLElement.generator(n, i)
            symbolic = markov_trace(element).evaluate(basis.params.a_value) / basis.params.d**n
            assert abs(markov_trace_pathmodel(basis, indices) - symbolic) <= 1e-10

    def test_cyclicity_numeric(self):
        rng = random.Random(1)
        basis = enumerate_paths(4, 7)
        for _ in range(25):
            x = [rng.randint(1, 3) for _ in range(rng.randint(0, 5))]
            y = [rng.randint(1, 3) for _ in range(rng.randint(0, 5))]
            assert abs(
                markov_trace_pathmodel(basis, x + y) - markov_trace_pathmodel(basis, y + x)
            ) <= 1e-10

    def test_strand_closure_axiom_numeric(self):
        # a word X on n strands, followed by the new top generator on n+1
        # strands, traces to (1/d) times the trace of X
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(2, 4)
            k = rng.randint(3, 8)
            x = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))]
            small = enumerate_paths(n, k)
            big = enumerate_paths(n + 1, k)
            lhs = markov_trace_pathmodel(big, x + [n])
            rhs = markov_trace_pathmodel(small, x) / small.params.d
            assert abs(lhs - rhs) <= 1e-10


class TestJonesValueExact:
    def test_unknot_anchor(self):
        for k in range(3, 11):
            result = jones_value_exact(parse_braid_word("1", 2), k)
            assert abs(result.value - 1.0) <= 1e-9

    def test_trefoil_matches_oracle_at_k5(self):
        word = parse_braid_word("1 1 1", 2)
        result = jones_value_exact(word, 5)
        expected = jones_polynomial(word).evaluate(result.a_value)
        assert abs(result.value - expected) <= 1e-9

    def test_trefoil_is_one_at_k3(self):
        result = jones_value_exact(parse_braid_word("1 1 1", 2), 3)
        assert abs(result.value - 1.0) <= 1e-9

    def test_oracle_equivalence_random(self):
        rng = random.Random(2)
        for _ in range(25):
            word = random_braid(rng, max_strands=4, max_length=8)
            poly = jones_polynomial(word)
            for k in range(3, 9):
                result = jones_value_exact(word, k)
                assert abs(result.value - poly.evaluate(result.a_value)) <= 1e-9

    def test_k_below_three_rejected(self):
        with pytest.raises(PathModelError):
            jones_value_exact(parse_braid_word("1", 2), 2)

    def test_markov_invariance_numeric(self):
        rng = random.Random(3)
        for _ in range(20):
            word = random_braid(rng, max_strands=4, max_length=6)
            conj = BraidWord(word.strands, random_braid(
                rng, max_strands=word.strands, min_strands=word.strands, max_length=4).letters)
            k = rng.randint(3, 8)
            base = jones_value_exact(word, k).value
            assert abs(jones_value_exact(markov_conjugate(word, conj), k).value - base) <= 1e-9
            assert abs(jones_value_exact(markov_stabilize(word, 1), k).value - base) <= 1e-9
            assert abs(jones_value_exact(markov_stabilize(word, -1), k).value - base) <= 1e-9

    def test_result_recomputable(self):
        rng = random.Random(4)
        for _ in range(20):
            word = random_braid(rng, max_strands=4, max_length=6)
            k = rng.randint(3, 9)
            r = jones_value_exact(word, k)
            recomputed = r.prefactor * r.d ** (r.n - 1) * r.weighted_trace
            assert abs(recomputed - r.value) <= 1e-12

    def test_conjugate_phase_preserves_modulus_for_amphichiral(self):
        # figure-eight is amphichiral: |V| agrees across conjugate phase choices
        word = parse_braid_word("1 -2 1 -2", 3)
        poly = jones_polynomial(word)
        for k in range(3, 9):
            default = jones_value_exact(word, k)
            alt = poly.evaluate(default.a_value.conjugate())
            assert abs(abs(default.value) - abs(alt)) <= 1e-9

    def test_json_dict_shape(self):
        result = jones_value_exact(parse_braid_word("1 1 1", 2), 5)
        data = result.to_json_dict()
        assert data["method"] == "exact-path-model"
        assert data["value"] == [result.value.real, result.value.imag]
        assert "iterations" not in data

    def test_identity_braid_value_is_d_power(self):
        # closure of the identity braid on n strands is the n-component unlink
        for n in (1, 2, 3):
            for k in (3, 5, 8):
                result = jones_value_exact(BraidWord.identity(n), k)
                assert abs(result.value - result.d ** (n - 1)) <= 1e-12
