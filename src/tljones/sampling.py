"""Simulated quantum execution phase: Hadamard-test sampling of the trace.

For a unitary U and a basis walk p, one ancilla-assisted circuit run outputs
a bit whose bias encodes one component of the bracket a = <p|U|p>:

    real test:      Prob(bit 0) = 1/2 + Re(a)/2
    imaginary test: Prob(bit 0) = 1/2 - Im(a)/2

and the frequency estimators (#0 - #1)/shots and (#1 - #0)/shots converge to
Re(a) and Im(a). Sampling happens at the amplitude level: the bracket is
computed classically from the gate's diagonal and shot outcomes are drawn
from the resulting Bernoulli laws, which is statistically indistinguishable
from evolving a statevector per shot. hadamard_circuit_check validates the
circuit identity itself once, by direct statevector simulation of
(H on ancilla) -> controlled-U -> (H on ancilla), with an extra ancilla
phase gate diag(1, i) for the imaginary variant.

Each sample_jones_value call draws from one stream: a Philox generator seeded
by an integer SeedSequence of the master seed, which draws no OS entropy, so
repeat runs are byte-identical. The estimator reads only the number of 1-bits
in a channel's shots, and that number is exactly
Binomial(shots, 1 - Prob(bit 0)), so each channel of each non-forced walk is
one count: the sampler draws every walk's real count in one binomial call,
then every imaginary count in another. A call over MAX_SHOTS is refused
before any gate is built.

Degenerate-channel short circuit: when one channel's Bernoulli law is
deterministic (probability exactly 0 or 1), that component of the bracket is
+-1, and unitarity forces the other component to 0; the estimator then
returns the forced exact bracket without consuming randomness. Identity
gates therefore sample with exactly zero error, as the acceptance contract
requires, while every nondegenerate bracket uses the plain frequency
estimator.

The full estimation loop follows the execution-phase pseudocode: for every
sector m, for every walk p in the sector, accumulate per-walk bracket
estimates, weigh the sector sums by lambda_m, and (unlike the raw loop
output, which is exposed as raw_trace) divide by the normalization N and
apply the writhe prefactor and d^(n-1) so the output estimates the Jones
value itself.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .braids import BraidWord
from .evaluation import EvaluationResult, build_gates, evaluation_result, weighted_trace
from .pathmodel import SectorOperator, enumerate_paths


class SamplerError(ValueError):
    """Invalid sampler configuration or a non-unitary operator."""


# Most simulated shots (2 x iterations x walks) one sample_jones_value call may
# stand for. Each channel's count is one draw, so this bounds the accuracy a
# call claims, not its CPU time.
MAX_SHOTS = 10**9


def _check_targets(epsilon: float, delta: float) -> None:
    """Both accuracy targets in the open interval (0, 1); NaN is not, nor a delta whose 4/delta overflows."""
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if not 0.0 < value < 1.0:
            raise SamplerError(f"{name} must be in (0, 1), got {value}")
    if math.isinf(4.0 / delta):  # the error bound reads ln(4/delta)
        raise SamplerError(f"delta={delta} is too small: 4/delta overflows")


def iterations_for(epsilon: float, delta: float) -> int:
    """Two-sided Hoeffding sample count: ceil(ln(2/delta) / (2 epsilon^2)), refused over MAX_SHOTS."""
    _check_targets(epsilon, delta)
    denominator = 2.0 * epsilon**2  # 0.0 once epsilon^2 underflows
    shots = math.log(2.0 / delta) / denominator if denominator else math.inf
    if shots > MAX_SHOTS:  # inf too, where the quotient overflows
        raise SamplerError(f"epsilon={epsilon}, delta={delta} need {shots:.3g} shots per channel, over the shot budget {MAX_SHOTS}")
    return max(1, math.ceil(shots))


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Accuracy target, optional explicit shot count, and master seed."""

    epsilon: float = 0.1
    delta: float = 0.05
    iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_targets(self.epsilon, self.delta)  # the error bound reads delta even when iterations is given
        if self.iterations is None:
            iterations_for(self.epsilon, self.delta)  # refuses a count over the shot budget
        elif self.iterations < 1:
            raise SamplerError(f"iterations must be >= 1, got {self.iterations}")

    def resolved_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return iterations_for(self.epsilon, self.delta)


def bit_stream(seed: int) -> np.random.Generator:
    """The one generator of a sampler run, seeded by the seed's low 64 bits; an integer SeedSequence draws no OS entropy."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed & 0xFFFF_FFFF_FFFF_FFFF)))


def _checked_probability(p: np.ndarray) -> np.ndarray:
    """The laws p clipped to [0, 1]; a law more than 1e-9 outside means a non-unitary operator."""
    bad = np.asarray(p)[(p < -1e-9) | (p > 1.0 + 1e-9)]
    if bad.size:
        raise SamplerError(f"bit probability {bad[0]} outside [0, 1]; operator is not unitary")
    return np.clip(p, 0.0, 1.0)


def bit_laws(a: complex) -> tuple[float, float]:
    """(P_re(0), P_im(0)) for the bracket a = <p|U|p>: the one Hadamard-test bit law."""
    return 0.5 + 0.5 * a.real, 0.5 - 0.5 * a.imag


def forced_bracket(a: complex) -> complex | None:
    """The exact bracket when either channel's bit law is deterministic.

    Exact comparisons are deliberate: only a bit-exact degenerate probability
    (0.0 or 1.0) short-circuits, and |a| <= 1 for a unitary diagonal entry
    then forces the orthogonal component to vanish.
    """
    p0_re, p0_im = bit_laws(a)
    if p0_re == 1.0:
        return 1 + 0j
    if p0_re == 0.0:
        return -1 + 0j
    if p0_im == 0.0:
        return 1j
    if p0_im == 1.0:
        return -1j
    return None


def _draw_brackets(a: np.ndarray, iterations: int, rng: np.random.Generator) -> list[complex]:
    """Frequency estimates of the non-forced brackets a from one 1-count per channel and walk.

    The count of 1-bits among `iterations` shots of the law Prob(0) = p0 is
    Binomial(iterations, 1 - p0). Every law is checked before any draw; then
    every real count is drawn in walk order, then every imaginary count.
    """
    p0_re, p0_im = (_checked_probability(p0) for p0 in bit_laws(a))
    ones_re = rng.binomial(iterations, 1.0 - p0_re)
    ones_im = rng.binomial(iterations, 1.0 - p0_im)
    return [complex((iterations - 2 * re) / iterations, -(iterations - 2 * im) / iterations)
            for re, im in zip(ones_re.tolist(), ones_im.tolist())]


def sample_jones_value(word: BraidWord, k: int, config: SamplerConfig) -> EvaluationResult:
    """Estimate the Jones value of a braid closure from simulated circuit shots.

    Loop over sectors and walks, asking forced_bracket about each walk, then
    draw every non-forced walk's counts from the run's one stream. raw_trace
    is the literal loop output sum_m lambda_m * sector sum; the returned value
    additionally divides by N and applies the writhe prefactor and d^(n-1),
    matching the exact evaluator's arithmetic exactly so error-free runs agree
    bitwise.

    value_error_bound holds for the whole run with probability at least
    error_confidence = 1 - delta: each non-forced shot moves one component of
    raw_trace by +-lambda_m / iterations, so Hoeffding (1963) bounds each
    component's deviation by t = sqrt(2 ln(4/delta) sum lambda_m^2 / iterations)
    with probability 1 - delta/2, and a union bound covers both components.
    """
    basis = enumerate_paths(word.strands, k)
    iterations = config.resolved_iterations()
    if 2 * iterations * basis.total_dim() > MAX_SHOTS:
        raise SamplerError(f"2 x {iterations} iterations x {basis.total_dim()} walks exceeds the shot budget {MAX_SHOTS}")
    gates = build_gates(basis, word)
    params = basis.params

    brackets = {m: [forced_bracket(complex(a)) for a in gates[m].matrix.diagonal()] for m in basis.nonempty_sectors()}
    free = np.concatenate([gates[m].matrix.diagonal()[[b is None for b in sector]] for m, sector in brackets.items()])
    drawn = iter(_draw_brackets(free, iterations, bit_stream(config.seed)))
    raw = 0j
    drawn_weight = 0.0  # sum of lambda_m^2 over the walks that draw shots
    for m, sector in brackets.items():
        sector_sum = 0j
        for bracket in sector:
            if bracket is None:
                bracket = next(drawn)
                drawn_weight += params.lam[m] ** 2
            sector_sum += bracket
        raw += params.lam[m] * sector_sum

    result = evaluation_result(basis, word, raw / basis.normalization(), "sampled")
    exact_value = evaluation_result(basis, word, weighted_trace(basis, gates), "exact-path-model").value
    t = math.sqrt(2.0 * math.log(4.0 / config.delta) * drawn_weight / iterations)
    return dataclasses.replace(
        result,
        iterations=iterations,
        epsilon=config.epsilon,
        delta=config.delta,
        seed=config.seed,
        exact_value=exact_value,
        abs_error=abs(result.value - exact_value),
        raw_trace=raw,
        value_error_bound=abs(result.prefactor) * abs(params.d) ** (word.strands - 1) * math.sqrt(2.0) * t / basis.normalization(),
        error_confidence=1.0 - config.delta,
    )


@dataclasses.dataclass(frozen=True)
class CircuitCheckReport:
    """Statevector validation of the Hadamard-test identity: the circuit's ancilla probabilities for one bracket <p|U|p>."""

    bracket: complex
    re_prob0_circuit: float
    im_prob0_circuit: float

    @property
    def max_deviation(self) -> float:
        """Largest gap between the circuit's probabilities and bit_laws(bracket)."""
        re_prob0, im_prob0 = bit_laws(self.bracket)
        return max(abs(self.re_prob0_circuit - re_prob0), abs(self.im_prob0_circuit - im_prob0))


# Largest gate hadamard_circuit_check simulates: the statevector holds 2 x dim amplitudes.
CIRCUIT_CHECK_MAX_DIM = 64


def hadamard_circuit_check(u: SectorOperator, p: int) -> CircuitCheckReport:
    """Simulate the full ancilla circuit and compare against the bit laws.

    Statevector layout |ancilla> tensor |walk>; the imaginary variant inserts
    the ancilla phase gate diag(1, i) after the first Hadamard.
    """
    dim = u.dim
    if dim > CIRCUIT_CHECK_MAX_DIM:
        raise SamplerError(f"dimension {dim} exceeds circuit-check limit {CIRCUIT_CHECK_MAX_DIM}")
    if not 0 <= p < dim:
        raise SamplerError(f"basis index {p} out of range for dimension {dim}")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def run(phase_gate: bool) -> float:
        anc0 = np.zeros(dim, dtype=complex)
        anc1 = np.zeros(dim, dtype=complex)
        anc0[p] = 1.0
        anc0, anc1 = inv_sqrt2 * (anc0 + anc1), inv_sqrt2 * (anc0 - anc1)  # H on ancilla
        if phase_gate:
            anc1 = 1j * anc1
        anc1 = u.matrix @ anc1  # controlled-U
        anc0, anc1 = inv_sqrt2 * (anc0 + anc1), inv_sqrt2 * (anc0 - anc1)  # H on ancilla
        return float(np.vdot(anc0, anc0).real)

    return CircuitCheckReport(complex(u.matrix[p, p]), run(phase_gate=False), run(phase_gate=True))
