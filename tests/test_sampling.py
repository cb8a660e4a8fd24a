import concurrent.futures
import json
import math
import random

import numpy as np
import pytest

from tljones import sampling
from tljones.braids import BraidWord, parse_braid_word
from tljones.evaluation import build_gates, jones_value_exact
from tljones.pathmodel import SectorOperator, enumerate_paths, global_gate
from tljones.sampling import (
    SamplerConfig,
    SamplerError,
    _checked_probability,
    bit_laws,
    bit_stream,
    estimate_bracket,
    forced_bracket,
    hadamard_circuit_check,
    iterations_for,
    sample_jones_value,
)


def scalar_op(value: complex) -> SectorOperator:
    return SectorOperator(1, np.array([[value]], dtype=complex))


def hadamard_test_re(u: SectorOperator, p: int, rng: np.random.Generator) -> int:
    """One bit of the real test: 0 with probability 1/2 + Re<p|U|p>/2."""
    p0 = _checked_probability(bit_laws(complex(u.matrix[p, p]))[0])
    return 0 if rng.random() < p0 else 1


def hadamard_test_im(u: SectorOperator, p: int, rng: np.random.Generator) -> int:
    """One bit of the imaginary test: 0 with probability 1/2 - Im<p|U|p>/2."""
    p0 = _checked_probability(bit_laws(complex(u.matrix[p, p]))[1])
    return 0 if rng.random() < p0 else 1


_CHUNK = 1 << 16  # raw Philox words drawn at once by the bit-level reference


def bit_level_frequency(rng: np.random.Generator, n: int, p0: float) -> float:
    """(#0 - #1) / n over the next n bits of the law Prob(0) = p0, drawn in chunks.

    The bit-level reference for the sampler's count draws. random() is
    (raw >> 11) * 2^-53, so random() >= p0 exactly when
    raw >= ceil(p0 * 2^53) << 11; p0 == 1.0 has no 1-bits but still consumes
    its n words, keeping a shared stream aligned.
    """
    threshold = math.ceil(p0 * 2**53) << 11
    ones = 0
    for start in range(0, n, _CHUNK):
        raw = rng.bit_generator.random_raw(min(_CHUNK, n - start))
        if threshold < 2**64:
            ones += int(np.count_nonzero(raw >= threshold))
    return (n - 2 * ones) / n


def chi2_sf_even(x: float, df: int) -> float:
    """Survival function of the chi-squared law with an even number of degrees of freedom."""
    half = x / 2.0
    return math.exp(-half) * sum(half**i / math.factorial(i) for i in range(df // 2))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestIterationsFor:
    def test_documented_values(self):
        assert iterations_for(0.1, 0.05) == 185
        assert iterations_for(0.05, 0.01) == 1060

    def test_coarse_accuracy_small_count(self):
        assert 1 <= iterations_for(0.999, 0.5) <= 2

    def test_range_validation(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(SamplerError):
                iterations_for(bad, 0.05)
            with pytest.raises(SamplerError):
                iterations_for(0.1, bad)

    def test_config_resolution(self):
        assert SamplerConfig(epsilon=0.05, delta=0.05).resolved_iterations() == 738
        assert SamplerConfig(iterations=17).resolved_iterations() == 17
        with pytest.raises(SamplerError):
            SamplerConfig(iterations=0)


class TestHadamardBits:
    def test_identity_re_always_zero(self):
        rng = bit_stream(0, 0, 0, "re")
        u = scalar_op(1.0)
        assert all(hadamard_test_re(u, 0, rng) == 0 for _ in range(200))

    def test_negative_identity_re_always_one(self):
        rng = bit_stream(0, 0, 0, "re")
        u = scalar_op(-1.0)
        assert all(hadamard_test_re(u, 0, rng) == 1 for _ in range(200))

    def test_i_identity_im_always_one(self):
        rng = bit_stream(0, 0, 0, "im")
        u = scalar_op(1j)
        assert all(hadamard_test_im(u, 0, rng) == 1 for _ in range(200))

    def test_minus_i_identity_im_always_zero(self):
        rng = bit_stream(0, 0, 0, "im")
        u = scalar_op(-1j)
        assert all(hadamard_test_im(u, 0, rng) == 0 for _ in range(200))

    def test_i_identity_re_is_fair_coin(self):
        rng = bit_stream(3, 0, 0, "re")
        bits = [hadamard_test_re(scalar_op(1j), 0, rng) for _ in range(10**4)]
        freq = bits.count(0) / len(bits)
        assert abs(freq - 0.5) <= 3 * 0.5 / math.sqrt(10**4)

    def test_identity_im_is_fair_coin(self):
        rng = bit_stream(4, 0, 0, "im")
        bits = [hadamard_test_im(scalar_op(1.0), 0, rng) for _ in range(10**4)]
        freq = bits.count(0) / len(bits)
        assert abs(freq - 0.5) <= 3 * 0.5 / math.sqrt(10**4)

    def test_non_unitary_rejected(self):
        rng = bit_stream(0, 0, 0, "re")
        with pytest.raises(SamplerError, match="unitary"):
            hadamard_test_re(scalar_op(1.5), 0, rng)

    def test_empirical_frequencies_random_unitaries(self):
        nprng = np.random.default_rng(0)
        draws = 10**5
        for case in range(20):
            dim = int(nprng.integers(1, 5))
            u = SectorOperator(1, random_unitary(nprng, dim))
            p = int(nprng.integers(0, dim))
            a = complex(u.matrix[p, p])
            p0_re = 0.5 + 0.5 * a.real
            p0_im = 0.5 - 0.5 * a.imag
            re_rng = bit_stream(100 + case, 0, p, "re")
            im_rng = bit_stream(100 + case, 0, p, "im")
            re_zeros = int(np.count_nonzero(re_rng.random(draws) < p0_re))
            im_zeros = int(np.count_nonzero(im_rng.random(draws) < p0_im))
            for zeros, p0 in ((re_zeros, p0_re), (im_zeros, p0_im)):
                sigma = math.sqrt(max(p0 * (1 - p0), 1e-12) / draws)
                assert abs(zeros / draws - p0) <= 4 * sigma + 1e-9


class TestForcedBrackets:
    def test_forced_values(self):
        assert forced_bracket(1 + 0j) == 1 + 0j
        assert forced_bracket(-1 + 0j) == -1 + 0j
        assert forced_bracket(1j) == 1j
        assert forced_bracket(-1j) == -1j
        assert forced_bracket(0.6 + 0.8j) is None
        assert forced_bracket(0.0j) is None


class TestEstimateBracket:
    def test_identity_exact(self):
        rng = bit_stream(0, 0, 0, "re")
        assert estimate_bracket(scalar_op(1.0), 0, 50, rng) == 1 + 0j

    def test_negative_identity_exact(self):
        rng = bit_stream(0, 0, 0, "re")
        assert estimate_bracket(scalar_op(-1.0), 0, 50, rng) == -1 + 0j

    def test_bracket_06_golden(self):
        u = SectorOperator(1, np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex))
        est = estimate_bracket(u, 0, 10**5, bit_stream(7, 1, 0, "re"))
        assert est == (0.60122 - 0.00378j)  # frozen seeded regression value
        assert abs(est.real - 0.6) <= 0.01

    def test_iterations_validated(self):
        with pytest.raises(SamplerError):
            estimate_bracket(scalar_op(0.5), 0, 0, bit_stream(0, 0, 0, "re"))


class TestChunkedCount:
    """The bit-level reference's raw-word threshold count against the random() >= p0 law."""

    @staticmethod
    def assert_same_bits(p0: float, n: int) -> None:
        reference = bit_stream(5, 0, 0, "re")
        ones = int(np.count_nonzero(reference.random(n) >= p0))
        chunked = bit_stream(5, 0, 0, "re")
        assert bit_level_frequency(chunked, n, p0) == (n - 2 * ones) / n
        assert chunked.random() == reference.random()  # both consumed exactly n words

    @pytest.mark.parametrize("p0", [0.0, 2**-53, 0.3, 0.5, 1 - 2**-53, 1.0])
    @pytest.mark.parametrize("n", [1000, _CHUNK, 3 * _CHUNK + 12345])
    def test_matches_uniform_law(self, p0, n):
        self.assert_same_bits(p0, n)

    def test_threshold_at_a_drawn_value(self):
        # p0 equal to a drawn uniform counts that draw as a 1-bit, the next float up does not.
        # The draw picked has a raw word with its low 11 bits zero, and lies below 1/2,
        # where floats are finer than 2^-53.
        raw = bit_stream(5, 0, 0, "re").bit_generator.random_raw(10**5)
        i = int(np.flatnonzero(((raw & 0x7FF) == 0) & (raw < 2**63))[0])
        drawn = float(raw[i] >> 11) * 2.0**-53
        for p0 in (drawn, np.nextafter(drawn, 0.0), np.nextafter(drawn, 1.0)):
            self.assert_same_bits(float(p0), i + 1)


class TestCountLaw:
    """The sampler's Binomial 1-counts against the bit-level reference's counts."""

    SEEDS = 2000
    SHOTS = 1000

    @pytest.mark.parametrize("p0", [0.3, 0.5, 0.97])
    def test_binomial_counts_match_bit_level_counts(self, p0):
        shots = self.SHOTS
        u = scalar_op(2.0 * p0 - 1.0)  # real-channel law Prob(0) = p0
        drawn = np.array([
            round(shots * (1.0 - estimate_bracket(u, 0, shots, bit_stream(seed, 0, 0, "re")).real) / 2)
            for seed in range(self.SEEDS)
        ])
        bits = np.array([
            round(shots * (1.0 - bit_level_frequency(bit_stream(seed, 1, 0, "re"), shots, p0)) / 2)
            for seed in range(self.SEEDS)
        ])
        mean, var = shots * (1.0 - p0), shots * p0 * (1.0 - p0)
        for counts in (drawn, bits):
            assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(var / self.SEEDS)
        assert abs(drawn.var(ddof=1) / bits.var(ddof=1) - 1.0) <= 0.15
        # two-sample chi-squared over 11 bins half a standard deviation wide (10 degrees of freedom)
        edges = mean + math.sqrt(var) * np.linspace(-2.25, 2.25, 10)
        r, s = np.bincount(np.digitize(drawn, edges), minlength=11), np.bincount(np.digitize(bits, edges), minlength=11)
        assert np.all(r + s > 0)
        chi2 = float(np.sum((r - s) ** 2 / (r + s)))
        assert chi2_sf_even(chi2, 10) > 1e-3


class TestDeliveredBound:
    @pytest.mark.parametrize("braid, strands, k, epsilon", [("1 1 1", 2, 5, 0.05), ("1 -2 1 -2", 3, 6, 0.1)])
    def test_coverage(self, braid, strands, k, epsilon):
        word = parse_braid_word(braid, strands)
        runs = [sample_jones_value(word, k, SamplerConfig(epsilon=epsilon, delta=0.05, seed=s)) for s in range(200)]
        bound = runs[0].value_error_bound
        assert bound > 0.0 and all(run.value_error_bound == bound for run in runs)
        assert all(run.error_confidence == 0.95 for run in runs)
        assert sum(run.abs_error <= bound for run in runs) >= 190

    def test_hoeffding_formula(self):
        word = parse_braid_word("1 -2 1 -2", 3)
        res = sample_jones_value(word, 6, SamplerConfig(iterations=300, delta=0.1, seed=8))
        basis = enumerate_paths(3, 6)
        gates = build_gates(basis, word)
        weight = sum(
            basis.params.lam[m] ** 2
            for m in basis.nonempty_sectors()
            for p in range(len(basis.sectors[m]))
            if forced_bracket(complex(gates[m].matrix[p, p])) is None
        )
        t = math.sqrt(2.0 * math.log(4.0 / 0.1) * weight / 300)
        expected = abs(res.prefactor) * abs(res.d) ** 2 * math.sqrt(2.0) * t / res.normalization
        assert res.value_error_bound == pytest.approx(expected, rel=1e-12)
        assert res.error_confidence == pytest.approx(0.9)

    def test_zero_when_every_walk_is_forced(self):
        res = sample_jones_value(BraidWord.identity(3), 5, SamplerConfig(seed=1))
        assert res.value_error_bound == 0.0 and res.abs_error == 0.0

    def test_absent_from_exact_records(self):
        doc = jones_value_exact(parse_braid_word("1 1 1", 2), 5).to_json_dict()
        assert "value_error_bound" not in doc and "error_confidence" not in doc


class TestSampleJonesValue:
    def test_identity_braid_zero_error(self):
        for n in (1, 2, 3):
            for k in (3, 5, 8):
                res = sample_jones_value(BraidWord.identity(n), k, SamplerConfig(seed=99))
                assert res.abs_error == 0.0
                assert res.value == res.exact_value

    def test_trefoil_golden_seeded_run(self):
        word = parse_braid_word("1 1 1", 2)
        res = sample_jones_value(word, 5, SamplerConfig(epsilon=0.05, delta=0.05, seed=42))
        assert res.iterations == 738
        assert res.value == (-0.820652652949821 - 1.3161422196333774j)  # frozen
        assert res.raw_trace == (-0.9492780578362734 + 1.129091791142547j)  # frozen
        assert abs(res.value - res.exact_value) <= 0.15

    def test_estimate_tracks_exact_value(self):
        word = parse_braid_word("1 1 1", 2)
        exact = jones_value_exact(word, 5).value
        res = sample_jones_value(word, 5, SamplerConfig(epsilon=0.02, delta=0.01, seed=5))
        assert abs(res.exact_value - exact) <= 1e-12
        assert abs(res.value - exact) <= 0.1

    def test_deterministic_repeat(self):
        word = parse_braid_word("1 -2 1 -2", 3)
        cfg = SamplerConfig(epsilon=0.1, delta=0.1, seed=123)
        a = sample_jones_value(word, 6, cfg)
        b = sample_jones_value(word, 6, cfg)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_seed_changes_output(self):
        word = parse_braid_word("1 1 1", 2)
        a = sample_jones_value(word, 5, SamplerConfig(seed=1))
        b = sample_jones_value(word, 5, SamplerConfig(seed=2))
        assert a.value != b.value

    def test_convergence_with_iterations(self):
        word = parse_braid_word("1 1 1", 2)
        exact = jones_value_exact(word, 5).value
        errors = []
        for iters in (100, 10000):
            runs = [
                sample_jones_value(word, 5, SamplerConfig(iterations=iters, seed=s)).value
                for s in range(20)
            ]
            errors.append(np.mean([abs(v - exact) for v in runs]))
        assert errors[1] < errors[0] / 3  # error shrinks roughly like 1/sqrt(iters)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_independent_of_worker_count(self, workers):
        # `workers` calls running on as many threads at once each give the serial loop's record
        word = parse_braid_word("1 -2 1 3 -2", 4)
        config = SamplerConfig(epsilon=0.05, seed=17)
        basis = enumerate_paths(4, 6)
        gates = build_gates(basis, word)
        serial_raw = 0j
        for m in basis.nonempty_sectors():
            sector_sum = 0j
            for p in range(len(basis.sectors[m])):
                sector_sum += estimate_bracket(
                    gates[m], p, config.resolved_iterations(),
                    bit_stream(17, m, p, "re"), bit_stream(17, m, p, "im"),
                )
            serial_raw += basis.params.lam[m] * sector_sum
        reference = sample_jones_value(word, 6, config)
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(lambda _: sample_jones_value(word, 6, config), range(workers)))
        for res in results:
            assert res == reference
            assert res.raw_trace == serial_raw

    def test_shot_budget(self, monkeypatch):
        word = parse_braid_word("1 1 1", 2)
        walks = enumerate_paths(2, 5).total_dim()
        monkeypatch.setattr(sampling, "MAX_SHOTS", 2 * 100 * walks)
        assert sample_jones_value(word, 5, SamplerConfig(iterations=100)).iterations == 100
        with pytest.raises(SamplerError, match="budget"):
            sample_jones_value(word, 5, SamplerConfig(iterations=101))

    def test_shot_budget_checked_before_gates(self, monkeypatch):
        def no_gates(*args):
            raise AssertionError("gates built for a run over the shot budget")

        monkeypatch.setattr(sampling, "build_gates", no_gates)
        with pytest.raises(SamplerError, match="budget"):
            sample_jones_value(parse_braid_word("1 1 1", 2), 5, SamplerConfig(epsilon=1e-6))

    def test_raw_trace_is_pre_normalization(self):
        word = parse_braid_word("1 1 1", 2)
        res = sample_jones_value(word, 5, SamplerConfig(seed=11))
        rebuilt = res.prefactor * res.d ** (res.n - 1) * (res.raw_trace / res.normalization)
        assert abs(rebuilt - res.value) <= 1e-12


class TestStreams:
    def test_streams_differ_by_all_coordinates(self):
        base = bit_stream(0, 1, 2, "re").random(8).tolist()
        assert bit_stream(1, 1, 2, "re").random(8).tolist() != base
        assert bit_stream(0, 2, 2, "re").random(8).tolist() != base
        assert bit_stream(0, 1, 3, "re").random(8).tolist() != base
        assert bit_stream(0, 1, 2, "im").random(8).tolist() != base

    def test_streams_reproducible(self):
        assert (
            bit_stream(7, 3, 1, "im").random(16).tolist()
            == bit_stream(7, 3, 1, "im").random(16).tolist()
        )


class TestCircuitCheck:
    def test_identity(self):
        report = hadamard_circuit_check(scalar_op(1.0), 0)
        assert report.re_prob0_circuit == pytest.approx(1.0, abs=1e-12)
        assert report.passed()

    def test_negative_identity(self):
        report = hadamard_circuit_check(scalar_op(-1.0), 0)
        assert report.re_prob0_circuit == pytest.approx(0.0, abs=1e-12)
        assert report.passed()

    def test_random_unitaries_both_variants(self):
        nprng = np.random.default_rng(1)
        for _ in range(25):
            dim = int(nprng.integers(1, 6))
            u = SectorOperator(1, random_unitary(nprng, dim))
            p = int(nprng.integers(0, dim))
            assert hadamard_circuit_check(u, p).max_deviation <= 1e-12

    def test_global_gates_small_models(self):
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randint(2, 3)
            k = rng.choice((3, 4, 5))
            basis = enumerate_paths(n, k)
            letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 4)))
            word = BraidWord(n, letters)
            for m in basis.nonempty_sectors():
                gate = global_gate(basis, word, m)
                for p in range(gate.dim):
                    assert hadamard_circuit_check(gate, p).max_deviation <= 1e-12

    def test_dimension_limit(self):
        with pytest.raises(SamplerError, match="dimension"):
            hadamard_circuit_check(SectorOperator(1, np.eye(65, dtype=complex)), 0)
