"""Verification suites: algebra relations, trace axioms, representation
residuals, trace compatibility, oracle equivalence, and knot-theory sanity.

Every numeric tolerance lives in one Tolerances record; the environment
variable TLJONES_TOL_PROFILE selects a named profile ("default" or "strict")
and individual fields can be overridden per run. Suites return CheckReport
values that the CLI serializes and the acceptance tests assert on.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random

import numpy as np

from . import braids, tl
from .braids import BraidWord, parse_braid_word
from .evaluation import jones_value_exact, markov_trace_pathmodel
from .pathmodel import adjacency_eigen_check, braid_gen_unitary, enumerate_paths, phi_generator


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numeric acceptance thresholds, one field per invariant family."""

    unitarity: float = 1e-12
    phi_relations: float = 1e-10
    braid_relations: float = 1e-10
    distant_commutation: float = 1e-12
    symmetry: float = 1e-14
    spectrum: float = 1e-10
    eigen_residual: float = 1e-12
    trace_compat: float = 1e-10
    oracle_match: float = 1e-9

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0):  # a NaN bound would pass every residual
                raise ValueError(f"tolerance {field.name} must be finite and >= 0, got {value}")

    def replace(self, **overrides: float) -> Tolerances:
        return dataclasses.replace(self, **overrides)


PROFILES = {
    "default": Tolerances(),
    "strict": Tolerances(
        unitarity=1e-13,
        phi_relations=1e-11,
        braid_relations=1e-11,
        trace_compat=1e-11,
        oracle_match=1e-10,
    ),
}


def resolve_tolerances(profile: str | None = None, **overrides: float) -> Tolerances:
    """Profile from argument or TLJONES_TOL_PROFILE, then field overrides."""
    name = profile or os.environ.get("TLJONES_TOL_PROFILE", "default")
    if name not in PROFILES:
        raise ValueError(f"unknown tolerance profile {name!r}; choose from {sorted(PROFILES)}")
    fields = [field.name for field in dataclasses.fields(Tolerances)]
    for field in overrides:
        if field not in fields:
            raise ValueError(f"unknown tolerance {field!r}; choose from {fields}")
    return PROFILES[name].replace(**overrides)


@dataclasses.dataclass
class CheckReport:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    max_residual: float
    cases: int
    details: list[str] = dataclasses.field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "cases": self.cases,
            "details": self.details,
        }


def check_tl_relations(n_max: int = 6, samples: int = 10, seed: int = 0) -> CheckReport:
    """Symbolic defining relations and associativity for every n up to n_max."""
    details = []
    cases = 0
    ok = True
    for n in range(2, n_max + 1):
        report = tl.verify_tl_relations(n, sample_count=samples, seed=seed + n)
        cases += len(report.results)
        if not report.passed:
            ok = False
            details.extend(f"n={n}: {name}" for name in report.failures())
    return CheckReport("tl_relations", ok, 0.0, cases, details)


def check_trace_axioms(n_max: int = 6, samples: int = 50, seed: int = 0) -> CheckReport:
    """The three Markov-trace axioms, symbolically exact, on random words."""
    rng = random.Random(seed)
    details = []
    cases = 0
    for n in range(2, n_max + 1):
        if not tl.markov_trace(tl.TLElement.identity(n)).as_laurent() == tl.LaurentPoly.one():
            details.append(f"n={n}: trace of identity is not 1")
        cases += 1
        for _ in range(samples):
            x = tl.random_generator_word(n, rng.randint(0, 8), rng)
            y = tl.random_generator_word(n, rng.randint(0, 8), rng)
            if not (tl.markov_trace(x * y) - tl.markov_trace(y * x)).is_zero():
                details.append(f"n={n}: cyclicity failed")
            lhs = tl.markov_trace(tl.embed(x) * tl.TLElement.generator(n + 1, n))
            rhs = tl.markov_trace(x).div_d(1)
            if not (lhs - rhs).is_zero():
                details.append(f"n={n}: strand-closure axiom failed")
            cases += 2
    return CheckReport("markov_trace_axioms", not details, 0.0, cases, details)


def check_representation(
    n_max: int = 8, k_max: int = 8, tol: Tolerances | None = None
) -> CheckReport:
    """Residuals of the generator-image relations, gate unitarity, braid
    relations, exact symmetry, spectrum, and the adjacency eigen-identity."""
    tol = tol or resolve_tolerances()
    details = []
    worst = 0.0
    cases = 0

    def norm(x) -> float:
        return float(np.max(np.abs(x))) if x.size else 0.0

    for k in range(3, k_max + 1):
        residual = adjacency_eigen_check(k)
        worst = max(worst, residual)
        cases += 1
        if residual > tol.eigen_residual:
            details.append(f"k={k}: eigenvector residual {residual:.2e}")
        for n in range(2, n_max + 1):
            basis = enumerate_paths(n, k)
            d = basis.params.d
            phis = {i: {op.m: op.matrix for op in phi_generator(basis, i)} for i in range(1, n)}
            gates = {}  # (i, m) -> the b_i gate, kept for the braid relations
            for i in range(1, n):
                for m, block in phis[i].items():
                    cases += 3
                    r_sym = norm(block - block.T)
                    r_idem = norm(block @ block - d * block)
                    worst = max(worst, r_sym, r_idem)
                    if r_sym > tol.symmetry:
                        details.append(f"n={n} k={k} i={i} m={m}: symmetry {r_sym:.2e}")
                    if r_idem > tol.phi_relations:
                        details.append(f"n={n} k={k} i={i} m={m}: idempotency {r_idem:.2e}")
                    eigs = np.linalg.eigvalsh(block)
                    r_spec = float(np.min(np.abs(eigs[None, :] - np.array([[0.0], [d]])), axis=0).max())
                    worst = max(worst, r_spec)
                    if r_spec > tol.spectrum:
                        details.append(f"n={n} k={k} i={i} m={m}: spectrum {r_spec:.2e}")
                    for exponent in (1, -1):
                        u = braid_gen_unitary(basis, i, exponent, m).matrix
                        if exponent == 1:
                            gates[i, m] = u
                        r_uni = norm(u @ u.conj().T - np.eye(u.shape[0]))
                        worst = max(worst, r_uni)
                        cases += 1
                        if r_uni > tol.unitarity:
                            details.append(
                                f"n={n} k={k} i={i} m={m} e={exponent}: unitarity {r_uni:.2e}"
                            )
            for i in range(1, n - 1):
                for m in basis.nonempty_sectors():
                    a, b = phis[i][m], phis[i + 1][m]
                    cases += 2
                    r_rec = max(norm(a @ b @ a - a), norm(b @ a @ b - b))
                    worst = max(worst, r_rec)
                    if r_rec > tol.phi_relations:
                        details.append(f"n={n} k={k} i={i} m={m}: recoupling {r_rec:.2e}")
                    ua, ub = gates[i, m], gates[i + 1, m]
                    r_braid = norm(ua @ ub @ ua - ub @ ua @ ub)
                    worst = max(worst, r_braid)
                    if r_braid > tol.braid_relations:
                        details.append(f"n={n} k={k} i={i} m={m}: braid relation {r_braid:.2e}")
            for i in range(1, n):
                for j in range(i + 2, n):
                    for m in basis.nonempty_sectors():
                        a, b = phis[i][m], phis[j][m]
                        cases += 1
                        r_comm = norm(a @ b - b @ a)
                        worst = max(worst, r_comm)
                        if r_comm > tol.distant_commutation:
                            details.append(f"n={n} k={k} ({i},{j}) m={m}: commutation {r_comm:.2e}")
    return CheckReport("representation", not details, worst, cases, details)


def check_trace_compatibility(
    samples: int = 100, seed: int = 0, tol: Tolerances | None = None,
    n_max: int = 5, word_max: int = 10, k_range: tuple[int, int] = (3, 8),
) -> CheckReport:
    """|weighted trace of a generator word - symbolic trace at the phase|."""
    tol = tol or resolve_tolerances()
    rng = random.Random(seed)
    details = []
    worst = 0.0
    for _ in range(samples):
        n = rng.randint(2, n_max)
        k = rng.randint(*k_range)
        length = rng.randint(0, word_max)
        indices = [rng.randint(1, n - 1) for _ in range(length)]
        basis = enumerate_paths(n, k)
        numeric = markov_trace_pathmodel(basis, indices)
        element = tl.TLElement.identity(n)
        for i in indices:
            element = element * tl.TLElement.generator(n, i)
        symbolic = tl.markov_trace(element).evaluate(basis.params.a_value)
        residual = abs(numeric - symbolic)
        worst = max(worst, residual)
        if residual > tol.trace_compat:
            details.append(f"n={n} k={k} word={indices}: residual {residual:.2e}")
    return CheckReport("trace_compatibility", not details, worst, samples, details)


def standard_braid_suite() -> dict[str, BraidWord]:
    """Named closures used across tests: unknot, Hopf link, trefoil, figure-eight."""
    return {
        "unknot": parse_braid_word("1", 2),
        "hopf": parse_braid_word("1 1", 2),
        "trefoil": parse_braid_word("1 1 1", 2),
        "figure_eight": parse_braid_word("1 -2 1 -2", 3),
    }


def check_oracle_equivalence(
    random_count: int = 20, seed: int = 0, tol: Tolerances | None = None,
    k_range: tuple[int, int] = (3, 10),
) -> CheckReport:
    """Path-model value vs the symbolic polynomial at the same phase, all k."""
    tol = tol or resolve_tolerances()
    rng = random.Random(seed)
    words = list(standard_braid_suite().values())
    words += [braids.random_braid(rng, max_strands=4, max_length=8) for _ in range(random_count)]
    details = []
    worst = 0.0
    cases = 0
    for word in words:
        poly = tl.jones_polynomial(word)
        for k in range(k_range[0], k_range[1] + 1):
            result = jones_value_exact(word, k)
            expected = poly.evaluate(result.a_value)
            residual = abs(result.value - expected)
            worst = max(worst, residual)
            cases += 1
            if residual > tol.oracle_match:
                details.append(
                    f"word={list(word.signed_indices())} n={word.strands} k={k}: "
                    f"residual {residual:.2e}"
                )
    return CheckReport("oracle_equivalence", not details, worst, cases, details)


def check_knot_sanity(
    samples: int = 50, seed: int = 0, tol: Tolerances | None = None,
    k_range: tuple[int, int] = (3, 10),
) -> CheckReport:
    """V(unknot) = 1 at every k; V = 1 at k=3 for every knot closure; and
    exact-value invariance under conjugation and both stabilizations."""
    tol = tol or resolve_tolerances()
    rng = random.Random(seed)
    details = []
    worst = 0.0
    cases = 0
    unknot = parse_braid_word("1", 2)
    for k in range(k_range[0], k_range[1] + 1):
        residual = abs(jones_value_exact(unknot, k).value - 1.0)
        worst = max(worst, residual)
        cases += 1
        if residual > tol.oracle_match:
            details.append(f"unknot at k={k}: residual {residual:.2e}")
    for _ in range(samples):
        word = braids.random_braid(rng, max_strands=4, max_length=8)
        if braids.closure_component_count(word) == 1:
            residual = abs(jones_value_exact(word, 3).value - 1.0)
            worst = max(worst, residual)
            cases += 1
            if residual > tol.oracle_match:
                details.append(
                    f"knot {list(word.signed_indices())} n={word.strands} at k=3: "
                    f"residual {residual:.2e}"
                )
    for _ in range(samples):
        word = braids.random_braid(rng, max_strands=4, max_length=6)
        conj = braids.random_braid(rng, max_strands=word.strands, min_strands=word.strands, max_length=4)
        k = rng.randint(3, 8)
        base = jones_value_exact(word, k).value
        moved = [
            jones_value_exact(braids.markov_conjugate(word, conj), k).value,
            jones_value_exact(braids.markov_stabilize(word, 1), k).value,
            jones_value_exact(braids.markov_stabilize(word, -1), k).value,
        ]
        for tag, value in zip(("conjugate", "stabilize+", "stabilize-"), moved):
            residual = abs(value - base)
            worst = max(worst, residual)
            cases += 1
            if residual > tol.oracle_match:
                details.append(
                    f"{tag} of {list(word.signed_indices())} at k={k}: residual {residual:.2e}"
                )
    return CheckReport("knot_sanity", not details, worst, cases, details)


def run_verification(
    n_max: int = 6, k_max: int = 8, samples: int = 50, seed: int = 0,
    tol: Tolerances | None = None,
) -> list[CheckReport]:
    """The full battery, sized by the CLI's --n/--k bounds."""
    tol = tol or resolve_tolerances()
    return [
        check_tl_relations(n_max=min(n_max, 6), samples=10, seed=seed),
        check_trace_axioms(n_max=min(n_max, 6), samples=min(samples, 50), seed=seed),
        check_representation(n_max=n_max, k_max=k_max, tol=tol),
        check_trace_compatibility(samples=samples, seed=seed, tol=tol, k_range=(3, k_max)),
        check_oracle_equivalence(random_count=20, seed=seed, tol=tol, k_range=(3, max(k_max, 3))),
        check_knot_sanity(samples=samples, seed=seed, tol=tol, k_range=(3, max(k_max, 3))),
    ]
