"""Verification suites: algebra relations, trace axioms, representation
residuals, trace compatibility, oracle equivalence, and knot-theory sanity.

Every numeric tolerance lives in one Tolerances record: a named profile
("default" or "strict") with individual fields overridden per run. Each suite
records its checks through one recorder, where a floating residual or an exact
symbolic comparison is one case, residuals raise the suite's max_residual, and
a residual over its bound (or a failed comparison) is one detail line. Suites
return CheckReport values that the CLI serializes and the acceptance tests
assert on.
"""

from __future__ import annotations

import dataclasses
import math
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
    """The named profile ("default" when None), then field overrides."""
    name = profile or "default"
    if name not in PROFILES:
        raise ValueError(f"unknown tolerance profile {name!r}; choose from {sorted(PROFILES)}")
    fields = [field.name for field in dataclasses.fields(Tolerances)]
    for field in overrides:
        if field not in fields:
            raise ValueError(f"unknown tolerance {field!r}; choose from {fields}")
    return dataclasses.replace(PROFILES[name], **overrides)


@dataclasses.dataclass
class CheckReport:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    max_residual: float
    cases: int
    details: list[str] = dataclasses.field(default_factory=list)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


class _Recorder:
    """One suite's bookkeeping: every check is one case, and only a failing one leaves a detail."""

    def __init__(self):
        self.cases = 0
        self.worst = 0.0
        self.details: list[str] = []

    def check(self, residual: float, bound: float, label: str) -> None:
        """A floating residual: raises the worst residual, fails above its bound."""
        self.cases += 1
        self.worst = max(self.worst, residual)
        if residual > bound:
            self.details.append(f"{label} {residual:.2e}")

    def holds(self, ok: bool, label: str) -> None:
        """An exact symbolic comparison."""
        self.cases += 1
        if not ok:
            self.details.append(label)

    def report(self, name: str) -> CheckReport:
        return CheckReport(name, not self.details, self.worst, self.cases, self.details)


def check_tl_relations(n_max: int = 6, samples: int = 10, seed: int = 0) -> CheckReport:
    """Symbolic defining relations and associativity for every n up to n_max."""
    rec = _Recorder()
    for n in range(2, n_max + 1):
        for name, ok in tl.verify_tl_relations(n, sample_count=samples, seed=seed + n).results:
            rec.holds(ok, f"n={n}: {name}")
    return rec.report("tl_relations")


def check_trace_axioms(n_max: int = 6, samples: int = 50, seed: int = 0) -> CheckReport:
    """The three Markov-trace axioms, symbolically exact, on random words."""
    rng = random.Random(seed)
    rec = _Recorder()
    for n in range(2, n_max + 1):
        rec.holds(tl.markov_trace(tl.TLElement.identity(n)).as_laurent() == tl.LaurentPoly.one(),
                  f"n={n}: trace of identity is not 1")
        for _ in range(samples):
            x = tl.random_generator_word(n, rng.randint(0, 8), rng)
            y = tl.random_generator_word(n, rng.randint(0, 8), rng)
            rec.holds((tl.markov_trace(x * y) - tl.markov_trace(y * x)).is_zero(), f"n={n}: cyclicity failed")
            lhs = tl.markov_trace(tl.embed(x) * tl.TLElement.generator(n + 1, n))
            rec.holds((lhs - tl.markov_trace(x).div_d(1)).is_zero(), f"n={n}: strand-closure axiom failed")
    return rec.report("markov_trace_axioms")


def check_representation(
    n_max: int = 8, k_max: int = 8, tol: Tolerances | None = None
) -> CheckReport:
    """Residuals of the generator-image relations, gate unitarity, braid
    relations, exact symmetry, spectrum, and the adjacency eigen-identity."""
    tol = tol or resolve_tolerances()
    rec = _Recorder()

    def norm(x) -> float:
        return float(np.max(np.abs(x))) if x.size else 0.0

    for k in range(3, k_max + 1):
        rec.check(adjacency_eigen_check(k), tol.eigen_residual, f"k={k}: eigenvector residual")
        for n in range(2, n_max + 1):
            basis = enumerate_paths(n, k)
            d = basis.params.d
            phis = {i: {op.m: op.matrix for op in phi_generator(basis, i)} for i in range(1, n)}
            gates = {}  # (i, m) -> the b_i gate, kept for the braid relations
            for i in range(1, n):
                for m, block in phis[i].items():
                    at = f"n={n} k={k} i={i} m={m}"
                    rec.check(norm(block - block.T), tol.symmetry, f"{at}: symmetry")
                    rec.check(norm(block @ block - d * block), tol.phi_relations, f"{at}: idempotency")
                    eigs = np.linalg.eigvalsh(block)
                    r_spec = float(np.min(np.abs(eigs[None, :] - np.array([[0.0], [d]])), axis=0).max())
                    rec.check(r_spec, tol.spectrum, f"{at}: spectrum")
                    for exponent in (1, -1):
                        u = braid_gen_unitary(basis, i, exponent, m).matrix
                        if exponent == 1:
                            gates[i, m] = u
                        r_uni = norm(u @ u.conj().T - np.eye(u.shape[0]))
                        rec.check(r_uni, tol.unitarity, f"{at} e={exponent}: unitarity")
            for i in range(1, n - 1):
                for m in basis.nonempty_sectors():
                    at = f"n={n} k={k} i={i} m={m}"
                    a, b = phis[i][m], phis[i + 1][m]
                    r_rec = max(norm(a @ b @ a - a), norm(b @ a @ b - b))
                    rec.check(r_rec, tol.phi_relations, f"{at}: recoupling")
                    ua, ub = gates[i, m], gates[i + 1, m]
                    rec.check(norm(ua @ ub @ ua - ub @ ua @ ub), tol.braid_relations, f"{at}: braid relation")
            for i in range(1, n):
                for j in range(i + 2, n):
                    for m in basis.nonempty_sectors():
                        a, b = phis[i][m], phis[j][m]
                        rec.check(norm(a @ b - b @ a), tol.distant_commutation, f"n={n} k={k} ({i},{j}) m={m}: commutation")
    return rec.report("representation")


def check_trace_compatibility(
    samples: int = 100, seed: int = 0, tol: Tolerances | None = None,
    n_max: int = 5, word_max: int = 10, k_range: tuple[int, int] = (3, 8),
) -> CheckReport:
    """|weighted trace of a generator word - symbolic trace at the phase|."""
    tol = tol or resolve_tolerances()
    rng = random.Random(seed)
    rec = _Recorder()
    for _ in range(samples):
        n = rng.randint(2, n_max)
        k = rng.randint(*k_range)
        length = rng.randint(0, word_max)
        indices = [rng.randint(1, n - 1) for _ in range(length)]
        basis = enumerate_paths(n, k)
        numeric = markov_trace_pathmodel(basis, indices)
        symbolic = tl.markov_trace(tl.generator_word(n, indices)).evaluate(basis.params.a_value)
        rec.check(abs(numeric - symbolic), tol.trace_compat, f"n={n} k={k} word={indices}: residual")
    return rec.report("trace_compatibility")


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
    rec = _Recorder()
    for word in words:
        poly = tl.jones_polynomial(word)
        for k in range(k_range[0], k_range[1] + 1):
            result = jones_value_exact(word, k)
            rec.check(abs(result.value - poly.evaluate(result.a_value)), tol.oracle_match,
                      f"word={list(word.signed_indices())} n={word.strands} k={k}: residual")
    return rec.report("oracle_equivalence")


def check_knot_sanity(
    samples: int = 50, seed: int = 0, tol: Tolerances | None = None,
    k_range: tuple[int, int] = (3, 10),
) -> CheckReport:
    """V(unknot) = 1 at every k; V = 1 at k=3 for every knot closure; and
    exact-value invariance under conjugation and both stabilizations."""
    tol = tol or resolve_tolerances()
    rng = random.Random(seed)
    rec = _Recorder()
    unknot = parse_braid_word("1", 2)
    for k in range(k_range[0], k_range[1] + 1):
        rec.check(abs(jones_value_exact(unknot, k).value - 1.0), tol.oracle_match, f"unknot at k={k}: residual")
    for _ in range(samples):
        word = braids.random_braid(rng, max_strands=4, max_length=8)
        if braids.closure_component_count(word) == 1:
            rec.check(abs(jones_value_exact(word, 3).value - 1.0), tol.oracle_match,
                      f"knot {list(word.signed_indices())} n={word.strands} at k=3: residual")
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
            rec.check(abs(value - base), tol.oracle_match, f"{tag} of {list(word.signed_indices())} at k={k}: residual")
    return rec.report("knot_sanity")


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
