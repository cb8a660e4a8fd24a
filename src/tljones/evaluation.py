"""Exact numeric Jones values through the sector-weighted trace.

The weighted trace (1/N) sum_m lambda_m tr(U_m), with
N = sum_m lambda_m dim_m, is the unique trace on the path-model image that
matches the diagrammatic Markov trace, so

    value = (-A^3)^writhe * d^(n-1) * weighted_trace

reproduces the exact Jones polynomial evaluated at t = A^-4 = e^(2 pi i / k).
The writhe prefactor convention is shared with the symbolic oracle in
tljones.tl (one calibration, anchored at V(unknot) = 1).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from .braids import BraidWord, writhe
from .pathmodel import ModelParams, PathBasis, PathModelError, SectorOperator, enumerate_paths, global_gate, sector_products


def writhe_prefactor_numeric(params: ModelParams, w: int) -> complex:
    """(-A^3)^w at the model's numeric phase."""
    return (-params.a_value**3) ** w


def weighted_trace(basis: PathBasis, operators: Mapping[int, SectorOperator]) -> complex:
    """(1/N) sum over sectors of lambda_m * tr(U_m); requires every nonempty sector."""
    lam = basis.params.lam
    missing = [m for m in basis.nonempty_sectors() if m not in operators]
    if missing:
        raise PathModelError(f"operators missing for nonempty sectors {missing}")
    total = 0j
    for m in basis.nonempty_sectors():
        op = operators[m]
        if op.dim != len(basis.sectors[m]):
            raise PathModelError(f"sector {m} operator has dimension {op.dim}")
        total += lam[m] * complex(np.trace(op.matrix))
    return total / basis.normalization()


def scale_trace(params: ModelParams, w: int, trace: complex) -> complex:
    """Apply the writhe prefactor and the d^(n-1) factor to a weighted trace.

    Shared by the exact evaluator and the sampler so that a sampled trace
    that happens to be exact reproduces the exact value bit for bit.
    """
    return writhe_prefactor_numeric(params, w) * params.d ** (params.n - 1) * trace


@dataclasses.dataclass(frozen=True)
class EvaluationResult:
    """One Jones-value evaluation with enough provenance to recompute it.

    value = prefactor * d^(n-1) * weighted_trace always holds; sampled runs
    additionally carry the exact value, the absolute error against it, the
    literal loop output before normalization (raw_trace), the sampling
    configuration, and a bound on |value - exact| that holds with probability
    error_confidence.
    """

    method: str  # "exact-path-model" | "oracle" | "sampled"
    k: int
    n: int
    word: tuple[int, ...]
    writhe: int
    a_value: complex
    d: float
    normalization: float
    weighted_trace: complex
    prefactor: complex
    value: complex
    prefactor_rule: str = "(-A^3)^writhe"
    iterations: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    seed: int | None = None
    exact_value: complex | None = None
    abs_error: float | None = None
    raw_trace: complex | None = None
    value_error_bound: float | None = None
    error_confidence: float | None = None

    def to_json_dict(self) -> dict:
        """Every field, complex numbers as [re, im]; the sampler's fields only for sampled runs."""
        out = {}
        for field in dataclasses.fields(self):
            if field.default is None and self.method != "sampled":
                continue
            value = getattr(self, field.name)
            if isinstance(value, complex):
                value = [value.real, value.imag]
            elif isinstance(value, tuple):
                value = list(value)
            out[field.name] = value
        return out


def evaluation_result(basis: PathBasis, word: BraidWord, wtrace: complex, method: str) -> EvaluationResult:
    """The record of a weighted trace of the braid's gates, scaled to a Jones value."""
    params = basis.params
    w = writhe(word)
    return EvaluationResult(
        method=method,
        k=params.k,
        n=word.strands,
        word=word.signed_indices(),
        writhe=w,
        a_value=params.a_value,
        d=params.d,
        normalization=basis.normalization(),
        weighted_trace=wtrace,
        prefactor=writhe_prefactor_numeric(params, w),
        value=scale_trace(params, w, wtrace),
    )


def build_gates(basis: PathBasis, word: BraidWord) -> dict[int, SectorOperator]:
    """The whole-word gate for every nonempty sector."""
    return {m: global_gate(basis, word, m) for m in basis.nonempty_sectors()}


def jones_value_exact(
    word: BraidWord, k: int, a_value: complex | None = None
) -> EvaluationResult:
    """Exact Jones value of the braid's closure at t = e^(2 pi i / k).

    Builds the walk basis for the braid's strand count, the per-sector gates,
    and the weighted trace; agrees with the symbolic oracle evaluated at the
    same phase to floating-point accuracy.
    """
    basis = enumerate_paths(word.strands, k, a_value)
    gates = build_gates(basis, word)
    return evaluation_result(basis, word, weighted_trace(basis, gates), "exact-path-model")


def markov_trace_pathmodel(basis: PathBasis, generator_indices: list[int]) -> complex:
    """Weighted trace of a word in the generator images.

    Numerically equals the symbolic Markov trace of the same word evaluated
    at the model's phase; this is the compatibility theorem made executable.
    """
    blocks = sector_products(basis, generator_indices)
    ops = {m: SectorOperator(m, mat) for m, mat in blocks.items()}
    return weighted_trace(basis, ops)
