"""Verification suites: algebra relations, trace axioms, representation
residuals, trace compatibility, oracle equivalence, and knot-theory sanity.

Every numeric tolerance lives in one Tolerances record, whose fields a run may
override one by one. Each suite records its checks on its own CheckReport,
where a floating residual or an exact comparison is one case, residuals raise
the suite's max_residual, a residual over its bound (or a failed comparison) is
one detail line, and the suite passes when there is none. The CLI serializes
the reports and the acceptance tests assert on them.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

from . import braids, tl
from .braids import BraidWord, parse_braid_word
from .evaluation import exact_on, markov_trace_pathmodel
from .pathmodel import adjacency_eigen_check, braid_gen_unitary, count_walks, enumerate_paths, sector_products


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numeric acceptance thresholds, one field per floating invariant family (frozen, so one default is shared)."""

    unitarity: float = 1e-12
    phi_relations: float = 1e-10
    braid_relations: float = 1e-10
    spectrum: float = 1e-10
    eigen_residual: float = 1e-12
    trace_compat: float = 1e-10
    oracle_match: float = 1e-9

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0):  # a NaN bound would pass every residual
                raise ValueError(f"tolerance {field.name} must be finite and >= 0, got {value}")


@dataclasses.dataclass
class CheckReport:
    """Outcome of one verification suite, recorded as it runs: every check is one case, and only a failing one leaves a detail."""

    name: str
    max_residual: float = 0.0
    cases: int = 0
    details: list[str] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.details

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self) | {"passed": self.passed}

    def check(self, residual: float, bound: float, label: str) -> None:
        """A floating residual: raises max_residual (NaN for good once one is NaN), fails unless it is <= its bound."""
        self.cases += 1
        if residual > self.max_residual or math.isnan(residual):
            self.max_residual = residual
        if not residual <= bound:
            self.details.append(f"{label} {residual:.2e}")

    def holds(self, ok: bool, label: str) -> None:
        """An exact symbolic comparison."""
        self.cases += 1
        if not ok:
            self.details.append(label)


def check_tl_relations(n_max: int = 6, samples: int = 10, seed: int = 0) -> CheckReport:
    """The defining relations, and associativity on random word triples, for every n up to n_max; each an exact equality."""
    rec = CheckReport("tl_relations")
    for n in range(2, n_max + 1):
        gens = {i: tl.TLElement.generator(n, i) for i in range(1, n)}
        for i in gens:
            rec.holds(gens[i] * gens[i] == gens[i].scaled(tl.LOOP_WEIGHT), f"n={n}: E{i}^2 = d E{i}")
        for i in gens:
            for j in (i - 1, i + 1):
                if j in gens:
                    rec.holds(gens[i] * gens[j] * gens[i] == gens[i], f"n={n}: E{i} E{j} E{i} = E{i}")
        for i in gens:
            for j in range(i + 2, n):
                rec.holds(gens[i] * gens[j] == gens[j] * gens[i], f"n={n}: E{i} E{j} = E{j} E{i}")
        rng = random.Random(seed + n)
        for case in range(samples):
            x, y, z = (tl.random_generator_word(n, rng.randint(0, 6), rng) for _ in range(3))
            rec.holds((x * y) * z == x * (y * z), f"n={n}: associativity sample {case}")
    return rec


def check_trace_axioms(n_max: int = 6, samples: int = 50, seed: int = 0) -> CheckReport:
    """The axioms of the unnormalized trace Tr, symbolically exact on random words:
    Tr(1_n) = d^n, Tr(xy) = Tr(yx), and Tr(embed(x) E_n) = Tr(x) (closing the new strand adds no loop)."""
    rng = random.Random(seed)
    rec = CheckReport("markov_trace_axioms")
    for n in range(2, n_max + 1):
        rec.holds(tl.markov_trace(tl.TLElement.identity(n)) == tl.times_d(tl.LaurentPoly.one(), n),
                  f"n={n}: trace of identity is not 1")
        for _ in range(samples):
            x = tl.random_generator_word(n, rng.randint(0, 8), rng)
            y = tl.random_generator_word(n, rng.randint(0, 8), rng)
            rec.holds(tl.markov_trace(x * y) == tl.markov_trace(y * x), f"n={n}: cyclicity failed")
            lhs = tl.markov_trace(tl.embed(x) * tl.TLElement.generator(n + 1, n))
            rec.holds(lhs == tl.markov_trace(x), f"n={n}: strand-closure axiom failed")
    return rec


def check_representation(
    n_max: int = 8, k_max: int = 8, tol: Tolerances = Tolerances()
) -> CheckReport:
    """Residuals of the generator-image relations, gate unitarity, braid
    relations, spectrum, and the adjacency eigen-identity; symmetry and far
    commutation are exact comparisons, made only on sectors of dimension 2 or
    more, where they can fail."""
    rec = CheckReport("representation")

    def norm(x) -> float:
        return float(np.max(np.abs(x))) if x.size else 0.0

    for k in range(3, k_max + 1):
        rec.check(adjacency_eigen_check(k), tol.eigen_residual, f"k={k}: eigenvector residual")
        for n in range(2, n_max + 1):
            basis = enumerate_paths(n, k)
            d = basis.params.d
            phis = {i: sector_products(basis, [i]) for i in range(1, n)}
            gates = {}  # (i, m) -> the b_i gate, kept for the braid relations
            for i in range(1, n):
                for m, block in phis[i].items():
                    at = f"n={n} k={k} i={i} m={m}"
                    if len(block) > 1:  # a 1x1 block is symmetric
                        rec.holds(np.array_equal(block, block.T), f"{at}: symmetry")
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
            wide = [m for m in basis.nonempty_sectors() if len(basis.sectors[m]) > 1]  # 1x1 blocks always commute
            for i in range(1, n):
                for j in range(i + 2, n):
                    for m in wide:
                        a, b = phis[i][m], phis[j][m]
                        rec.holds(np.array_equal(a @ b, b @ a), f"n={n} k={k} ({i},{j}) m={m}: commutation")
    return rec


def check_trace_compatibility(
    samples: int = 100, seed: int = 0, tol: Tolerances = Tolerances(), k_max: int = 8,
) -> CheckReport:
    """|weighted trace of a generator word - Tr / d^n at the phase|, on n <= 5 strands and up to 10 letters."""
    rng = random.Random(seed)
    cases = []
    for _ in range(samples):
        n = rng.randint(2, 5)
        k = rng.randint(3, k_max)
        length = rng.randint(0, 10)
        cases.append((n, k, [rng.randint(1, n - 1) for _ in range(length)]))
    bases = {key: enumerate_paths(*key) for key in {(n, k) for n, k, _ in cases}}
    rec = CheckReport("trace_compatibility")
    for n, k, indices in cases:
        basis = bases[n, k]
        numeric = markov_trace_pathmodel(basis, indices)
        a = basis.params.a_value  # the symbolic side reads only A from the model, and d from A
        symbolic = tl.markov_trace(tl.generator_word(n, indices)).evaluate(a) / tl.LOOP_WEIGHT.evaluate(a) ** n
        rec.check(abs(numeric - symbolic), tol.trace_compat, f"n={n} k={k} word={indices}: residual")
    return rec


def standard_braid_suite() -> dict[str, BraidWord]:
    """Named closures used across tests: unknot, Hopf link, trefoil, figure-eight."""
    return {
        "unknot": parse_braid_word("1", 2),
        "hopf": parse_braid_word("1 1", 2),
        "trefoil": parse_braid_word("1 1 1", 2),
        "figure_eight": parse_braid_word("1 -2 1 -2", 3),
    }


def check_oracle_equivalence(
    seed: int = 0, tol: Tolerances = Tolerances(), k_max: int = 10,
) -> CheckReport:
    """Path-model value vs the symbolic polynomial at the same phase, all k, on the standard braids and 20 random ones."""
    rng = random.Random(seed)
    words = list(standard_braid_suite().values())
    words += [braids.random_braid(rng, max_strands=4, max_length=8) for _ in range(20)]
    polys = [tl.jones_polynomial(word) for word in words]
    residuals = {}  # (word index, k) -> residual: one k at a time, so only that k's bases are held; recorded per word below
    for k in range(3, k_max + 1):
        bases = {n: enumerate_paths(n, k) for n in {word.strands for word in words}}
        for j, (word, poly) in enumerate(zip(words, polys)):
            result = exact_on(bases[word.strands], word)
            residuals[j, k] = abs(result.value - poly.evaluate(result.a_value))
    rec = CheckReport("oracle_equivalence")
    for j, word in enumerate(words):
        for k in range(3, k_max + 1):
            rec.check(residuals[j, k], tol.oracle_match, f"word={list(word.signed_indices())} n={word.strands} k={k}: residual")
    return rec


def check_knot_sanity(
    samples: int = 50, seed: int = 0, tol: Tolerances = Tolerances(), k_max: int = 10,
) -> CheckReport:
    """V(unknot) = 1 at every k; V = 1 at k=3 for every knot closure; and
    exact-value invariance under conjugation and both stabilizations, each at a k drawn up to min(8, k_max)."""
    rng = random.Random(seed)
    unknot = parse_braid_word("1", 2)
    knots = [word for word in (braids.random_braid(rng, max_strands=4, max_length=8) for _ in range(samples))
             if braids.closure_component_count(word) == 1]
    moves = []  # (k, word, its conjugate, its two stabilizations)
    for _ in range(samples):
        word = braids.random_braid(rng, max_strands=4, max_length=6)
        conj = braids.random_braid(rng, max_strands=word.strands, min_strands=word.strands, max_length=4)
        k = rng.randint(3, min(8, k_max))
        moves.append((k, word, braids.markov_conjugate(word, conj), braids.markov_stabilize(word, 1),
                      braids.markov_stabilize(word, -1)))
    keys = {(2, k) for k in range(3, k_max + 1)} | {(word.strands, 3) for word in knots}
    bases = {key: enumerate_paths(*key) for key in keys | {(word.strands, k) for k, *words in moves for word in words}}

    def value(word: BraidWord, k: int) -> complex:
        return exact_on(bases[word.strands, k], word).value

    rec = CheckReport("knot_sanity")
    for k in range(3, k_max + 1):
        rec.check(abs(value(unknot, k) - 1.0), tol.oracle_match, f"unknot at k={k}: residual")
    for word in knots:
        rec.check(abs(value(word, 3) - 1.0), tol.oracle_match,
                  f"knot {list(word.signed_indices())} n={word.strands} at k=3: residual")
    for k, word, *moved in moves:
        base = value(word, k)
        for tag, other in zip(("conjugate", "stabilize+", "stabilize-"), moved):
            rec.check(abs(value(other, k) - base), tol.oracle_match, f"{tag} of {list(word.signed_indices())} at k={k}: residual")
    return rec


# Largest estimated run_verification, in ns at rates measured warm on a 2-vCPU host: 6 ms a k, 2 ms a sample, and at each
# (n, k), per sector of dimension dim, 150 us a generator block, 2 ns per (n - 1) dim^3, 3 us per n^2 if dim > 1 (commutation).
VERIFY_BUDGET_NS = 60 * 10**9


def _grid_work(n: int, k: int) -> int:
    return sum((n - 1) * (150_000 + 2 * dim**3) + 3_000 * n * n * (dim > 1) for dim in count_walks(n, k).values())


def _estimated_work(n_max: int, k_max: int, samples: int) -> int:
    """Estimated nanoseconds of run_verification, summed over n only until it passes VERIFY_BUDGET_NS."""
    work = 6_000_000 * (k_max - 2) + 2_000_000 * samples
    for n in range(2, n_max + 1):
        if work > VERIFY_BUDGET_NS:
            break
        per_k = [_grid_work(n, k) for k in range(3, min(k_max, n + 2) + 1)]
        work += sum(per_k) + (k_max - 2 - len(per_k)) * per_k[-1]  # the walk counts stop changing at k = n + 2
    return work


def run_verification(
    n_max: int = 6, k_max: int = 8, samples: int = 50, seed: int = 0,
    tol: Tolerances = Tolerances(),
) -> list[CheckReport]:
    """The full battery, sized by the CLI's --n/--k bounds; an empty or over-budget grid is refused before any suite runs."""
    for name, value, least in (("n_max", n_max, 2), ("k_max", k_max, 3), ("samples", samples, 1)):
        if value < least:  # a smaller grid leaves a suite with no case, which would pass vacuously
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if _estimated_work(n_max, k_max, samples) > VERIFY_BUDGET_NS:
        raise ValueError(f"verification is estimated at over {VERIFY_BUDGET_NS // 10**9} s of work; lower n_max, k_max or samples")
    return [
        check_tl_relations(n_max=min(n_max, 6), samples=10, seed=seed),
        check_trace_axioms(n_max=min(n_max, 6), samples=min(samples, 50), seed=seed),
        check_representation(n_max=n_max, k_max=k_max, tol=tol),
        check_trace_compatibility(samples=samples, seed=seed, tol=tol, k_max=k_max),
        check_oracle_equivalence(seed=seed, tol=tol, k_max=k_max),
        check_knot_sanity(samples=samples, seed=seed, tol=tol, k_max=k_max),
    ]
