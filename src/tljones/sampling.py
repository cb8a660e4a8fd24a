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

Bit streams are counter-based (Philox keyed by a SHA-256 hash of the master
seed, the sector, the walk index, and the test kind), so results are
reproducible and independent of loop order. The estimator reads only the
number of 1-bits in a channel's shots, and that number is exactly
Binomial(shots, 1 - Prob(bit 0)), so each channel draws its count once from
its stream instead of drawing every bit. A call over MAX_SHOTS is refused
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
import hashlib
import math

import numpy as np

from .braids import BraidWord
from .evaluation import EvaluationResult, build_gates, evaluation_result, scale_trace, weighted_trace
from .pathmodel import SectorOperator, enumerate_paths


class SamplerError(ValueError):
    """Invalid sampler configuration or a non-unitary operator."""


# Most simulated shots (2 x iterations x walks) one sample_jones_value call may
# stand for. Each channel's count is one draw, so this bounds the accuracy a
# call claims, not its CPU time.
MAX_SHOTS = 10**9


def iterations_for(epsilon: float, delta: float) -> int:
    """Two-sided Hoeffding sample count: ceil(ln(2/delta) / (2 epsilon^2))."""
    if not 0.0 < epsilon < 1.0:
        raise SamplerError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise SamplerError(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2)))


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Accuracy target, optional explicit shot count, and master seed."""

    epsilon: float = 0.1
    delta: float = 0.05
    iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.iterations is None:
            iterations_for(self.epsilon, self.delta)  # validates the ranges
        elif self.iterations < 1:
            raise SamplerError(f"iterations must be >= 1, got {self.iterations}")

    def resolved_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return iterations_for(self.epsilon, self.delta)


def bit_stream(seed: int, sector: int, path_index: int, kind: str) -> np.random.Generator:
    """Counter-based generator for one (sector, walk, test-kind) stream."""
    tag = f"{seed & 0xFFFFFFFFFFFFFFFF}:{sector}:{path_index}:{kind}"
    digest = hashlib.sha256(tag.encode("ascii")).digest()
    key = int.from_bytes(digest[:16], "big")
    return np.random.Generator(np.random.Philox(key=key))


def _checked_probability(p: float) -> float:
    if p < -1e-9 or p > 1.0 + 1e-9:
        raise SamplerError(f"bit probability {p} outside [0, 1]; operator is not unitary")
    return min(1.0, max(0.0, p))


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


def _draw_bracket(a: complex, iterations: int, re_rng: np.random.Generator, im_rng: np.random.Generator) -> complex:
    """Frequency estimate of a non-forced bracket a from one 1-count per channel, real first.

    The count of 1-bits among `iterations` shots of the law Prob(0) = p0 is
    Binomial(iterations, 1 - p0); both laws are checked before either draw.
    """
    p0_re, p0_im = (_checked_probability(p0) for p0 in bit_laws(a))
    ones_re = re_rng.binomial(iterations, 1.0 - p0_re)
    ones_im = im_rng.binomial(iterations, 1.0 - p0_im)
    return complex((iterations - 2 * ones_re) / iterations, -(iterations - 2 * ones_im) / iterations)


def estimate_bracket(
    u: SectorOperator,
    p: int,
    iterations: int,
    rng: np.random.Generator,
    im_rng: np.random.Generator | None = None,
) -> complex:
    """Frequency estimate of <p|U|p> from `iterations` shots per channel.

    The real count comes from rng and the imaginary count from im_rng; without
    im_rng both channels share rng, real first. Degenerate channels
    short-circuit to the exact forced bracket without drawing any bits.
    """
    if iterations < 1:
        raise SamplerError(f"iterations must be >= 1, got {iterations}")
    a = complex(u.matrix[p, p])
    forced = forced_bracket(a)
    if forced is not None:
        return forced
    return _draw_bracket(a, iterations, rng, rng if im_rng is None else im_rng)


def sample_jones_value(word: BraidWord, k: int, config: SamplerConfig) -> EvaluationResult:
    """Estimate the Jones value of a braid closure from simulated circuit shots.

    Loop over sectors and walks, with one independent stream per (sector,
    walk, test kind). raw_trace is the literal loop output
    sum_m lambda_m * sector sum; the returned value additionally divides by N
    and applies the writhe prefactor and d^(n-1), matching the exact
    evaluator's arithmetic exactly so error-free runs agree bitwise.

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

    raw = 0j
    drawn_weight = 0.0  # sum of lambda_m^2 over the walks that draw shots
    for m in basis.nonempty_sectors():
        sector_sum = 0j
        for p in range(len(basis.sectors[m])):
            a = complex(gates[m].matrix[p, p])
            bracket = forced_bracket(a)
            if bracket is None:
                bracket = _draw_bracket(a, iterations, bit_stream(config.seed, m, p, "re"), bit_stream(config.seed, m, p, "im"))
                drawn_weight += params.lam[m] ** 2
            sector_sum += bracket
        raw += params.lam[m] * sector_sum

    result = evaluation_result(basis, word, raw / basis.normalization(), "sampled")
    exact_value = scale_trace(params, result.writhe, weighted_trace(basis, gates))
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
    """Statevector validation of the Hadamard-test identity for one (U, p)."""

    dim: int
    path_index: int
    bracket: complex
    re_prob0_circuit: float
    re_prob0_formula: float
    im_prob0_circuit: float
    im_prob0_formula: float

    @property
    def max_deviation(self) -> float:
        return max(
            abs(self.re_prob0_circuit - self.re_prob0_formula),
            abs(self.im_prob0_circuit - self.im_prob0_formula),
        )

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_deviation <= tol


def hadamard_circuit_check(u: SectorOperator, p: int, max_dim: int = 64) -> CircuitCheckReport:
    """Simulate the full ancilla circuit and compare against the bit laws.

    Statevector layout |ancilla> tensor |walk>; the imaginary variant inserts
    the ancilla phase gate diag(1, i) after the first Hadamard.
    """
    dim = u.dim
    if dim > max_dim:
        raise SamplerError(f"dimension {dim} exceeds circuit-check limit {max_dim}")
    if not 0 <= p < dim:
        raise SamplerError(f"basis index {p} out of range for dimension {dim}")
    a = complex(u.matrix[p, p])
    re_prob0_formula, im_prob0_formula = bit_laws(a)
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

    return CircuitCheckReport(
        dim=dim,
        path_index=p,
        bracket=a,
        re_prob0_circuit=run(phase_gate=False),
        re_prob0_formula=re_prob0_formula,
        im_prob0_circuit=run(phase_gate=True),
        im_prob0_formula=im_prob0_formula,
    )
