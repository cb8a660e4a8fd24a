"""Unitary path-model representation of the Temperley-Lieb algebra.

The model lives on walks over the path graph with vertices 1..k-1 (an edge
between consecutive vertices). A walk of length n starting at vertex 1 is a
bit string: bit 1 steps right, bit 0 steps left, and every prefix endpoint
must stay inside [1, k-1]. Walks are grouped into sectors by their endpoint
m; every operator built here preserves sectors. Column c of Phi_i is diag[c]
at row c plus off[c] at row partner[c], one table per (i, sector), so a letter
updates a product column by column in O(dim^2), in place (see _word_product).

With the loop weight d = 2 cos(pi/k), the vector lambda_l = sin(pi l / k) is
the d-eigenvector of the path graph's adjacency matrix, and the generator
images act on the two bits (i, i+1) of a walk:

    bits 00 or 11        -> 0
    bits 01 (valley at e-1) -> (lambda_{e-1}/lambda_e) |p> + c |p with 10>
    bits 10 (peak at e+1)   -> c |p with 01> + (lambda_{e+1}/lambda_e) |p>

where e is the endpoint of the first i-1 bits, c = sqrt(lambda_{e-1}
lambda_{e+1}) / lambda_e, and the sentinels lambda_0 = lambda_k = 0 kill
transitions to inadmissible walks. The eigenvector identity
lambda_{e-1} + lambda_{e+1} = d lambda_e makes each block satisfy
Phi^2 = d Phi exactly, which is what the braid-letter gates

    exponent +1: A Phi_i + A^-1 I        exponent -1: A^-1 Phi_i + A I

need in order to be unitary. The phase A must satisfy -A^2 - A^-2 = d; the
bare phase e^(-i pi / 2k) gives -d instead, so choose_a multiplies it by i,
which also pins the evaluation point t = A^-4 = e^(2 pi i / k).
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .braids import BraidWord


class PathModelError(ValueError):
    """Invalid path-model parameters or operation."""


def candidate_phases(k: int) -> tuple[complex, ...]:
    """The eight unit phases (+-1, +-i) * e^(+-i pi / 2k) screened by choose_a."""
    base = cmath.exp(-1j * math.pi / (2 * k))
    return tuple(u * p for u in (1, -1, 1j, -1j) for p in (base, base.conjugate()))


def choose_a(k: int) -> complex:
    """The unit-modulus phase A with -A^2 - A^-2 = 2 cos(pi/k) and A^-4 = e^(2 pi i/k)."""
    if k < 3:
        raise PathModelError(f"k must be >= 3, got {k}")
    d = 2.0 * math.cos(math.pi / k)
    t_target = cmath.exp(2j * math.pi / k)
    best = None
    for cand in candidate_phases(k):
        if abs(-cand**2 - 1 / cand**2 - d) < 1e-12 and abs(cand**-4 - t_target) < 1e-12:
            best = cand
            break
    assert best is not None, "no admissible phase; impossible for k >= 3"
    return best


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Numeric parameters of the model at one (k, n)."""

    k: int
    n: int
    d: float
    a_value: complex
    lam: tuple[float, ...]  # lam[l] for l in 0..k, with lam[0] = lam[k] = 0 sentinels

    @classmethod
    def create(cls, k: int, n: int, a_value: complex | None = None) -> ModelParams:
        if k < 3:
            raise PathModelError(f"k must be >= 3, got {k}")
        if n < 1:
            raise PathModelError(f"n must be >= 1, got {n}")
        d = 2.0 * math.cos(math.pi / k)
        a = choose_a(k) if a_value is None else a_value
        lam = [0.0] * (k + 1)
        for ell in range(1, k):
            lam[ell] = math.sin(math.pi * ell / k)
        params = cls(k, n, d, a, tuple(lam))
        residual = abs(-a**2 - 1 / a**2 - d)
        if residual > 1e-12:
            raise PathModelError(
                f"phase {a} violates -A^2 - A^-2 = d by {residual:.3e}"
            )
        return params


def path_endpoint(bits: tuple[int, ...]) -> int:
    """Endpoint of a walk starting at vertex 1 (bit 1 = right, bit 0 = left)."""
    return 1 + sum(2 * b - 1 for b in bits)


@dataclasses.dataclass(frozen=True)
class PathBasis:
    """The admissible walks at one (n, k), sector-partitioned by endpoint."""

    params: ModelParams
    paths: tuple[tuple[int, ...], ...]
    sectors: dict[int, tuple[tuple[int, ...], ...]]
    tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]  # (i, m) -> (diag, off, partner)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    def sector_dims(self) -> dict[int, int]:
        return {m: len(paths) for m, paths in self.sectors.items()}

    def total_dim(self) -> int:
        return len(self.paths)

    def nonempty_sectors(self) -> tuple[int, ...]:
        return tuple(sorted(self.sectors))

    def normalization(self) -> float:
        """N = sum over sectors of lambda_m * dim(sector m)."""
        lam = self.params.lam
        return sum(lam[m] * len(paths) for m, paths in sorted(self.sectors.items()))


def count_walks(n: int, k: int) -> dict[int, int]:
    """Admissible walks per nonempty endpoint sector, by an O(n min(k, n)) dynamic program."""
    if n < 1 or k < 3:
        raise PathModelError(f"need n >= 1 and k >= 3, got n={n}, k={k}")
    top = min(k, n + 2)  # a walk of length n stays below height n + 2, so a wall there changes nothing
    counts = [0, 1] + [0] * (top - 1)  # counts[v] for v in 0..top; 0 and top are sentinels
    for _ in range(n):
        counts = [0] + [counts[v - 1] + counts[v + 1] for v in range(1, top)] + [0]
    return {m: count for m, count in enumerate(counts) if count}


# Largest total of the dense whole-word gates (one complex dim_m x dim_m block
# per sector, 16 bytes an entry) that enumerate_paths accepts, so an oversized
# model is refused before any walk is built instead of running out of memory.
MAX_GATE_BYTES = 2 << 30


def enumerate_paths(n: int, k: int, a_value: complex | None = None) -> PathBasis:
    """All admissible walks of length n, grouped by endpoint sector.

    Refuses a model whose dense gates would exceed MAX_GATE_BYTES, then
    extends admissible prefixes step by step, so the work is proportional to
    the number of admissible walks rather than 2^n.
    """
    params = ModelParams.create(k, n, a_value)
    gate_bytes = sum(16 * dim**2 for dim in count_walks(n, k).values())
    if gate_bytes > MAX_GATE_BYTES:
        raise PathModelError(f"n={n}, k={k}: the dense gates need {gate_bytes} bytes, over MAX_GATE_BYTES = {MAX_GATE_BYTES}")
    prefixes: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for _ in range(n):
        nxt = []
        for bits, end in prefixes:
            if end - 1 >= 1:
                nxt.append((bits + (0,), end - 1))
            if end + 1 <= k - 1:
                nxt.append((bits + (1,), end + 1))
        prefixes = nxt
    paths = tuple(sorted(bits for bits, _ in prefixes))
    sectors: dict[int, list[tuple[int, ...]]] = {}
    for bits in paths:  # lexicographic order within each sector
        sectors.setdefault(path_endpoint(bits), []).append(bits)
    frozen = {m: tuple(ps) for m, ps in sectors.items()}
    lam = params.lam
    tables = {(i, m): (np.zeros(len(ws)), np.zeros(len(ws)), np.arange(len(ws))) for m, ws in frozen.items() for i in range(1, n)}
    for m, walks in frozen.items():
        index = {bits: c for c, bits in enumerate(walks)}
        for c, bits in enumerate(walks):
            e = 1  # endpoint of the first i-1 bits
            for i, (b1, b2) in enumerate(zip(bits, bits[1:]), 1):
                if b1 != b2:  # a monotone bit pair is annihilated: its column stays zero
                    diag, off, partner = tables[i, m]
                    diag[c] = (lam[e - 1] if b1 == 0 else lam[e + 1]) / lam[e]
                    off[c] = math.sqrt(lam[e - 1] * lam[e + 1]) / lam[e]  # 0 iff the swapped walk is inadmissible
                    partner[c] = index.get(bits[: i - 1] + (b2, b1) + bits[i + 1 :], c)
                e += 2 * b1 - 1
    return PathBasis(params, paths, frozen, tables)


def adjacency_eigen_check(k: int) -> float:
    """Max-norm residual of M lambda = d lambda for the path graph on k-1 vertices."""
    if k < 3:
        raise PathModelError(f"k must be >= 3, got {k}")
    size = k - 1
    m = np.zeros((size, size))
    for i in range(size - 1):
        m[i, i + 1] = 1.0
        m[i + 1, i] = 1.0
    lam = np.array([math.sin(math.pi * ell / k) for ell in range(1, k)])
    d = 2.0 * math.cos(math.pi / k)
    return float(np.max(np.abs(m @ lam - d * lam)))


@dataclasses.dataclass(frozen=True)
class SectorOperator:
    """A dense square operator on the walk basis of one endpoint sector."""

    m: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _phi_block(basis: PathBasis, i: int, m: int, x: complex = 1.0, y: complex = 0.0) -> np.ndarray:
    """Dense x Phi_i + y I on sector m, Phi_i acting on bits (i, i+1); Phi_i is exactly symmetric."""
    if not 1 <= i <= basis.n - 1:
        raise PathModelError(f"generator index {i} out of range [1, {basis.n - 1}]")
    diag, off, partner = basis.tables[i, m]
    cols = np.arange(len(diag))
    block = np.zeros((len(diag), len(diag)), dtype=np.result_type(x, y))
    block[partner, cols] = x * off
    block[cols, cols] = x * diag + y  # after off: a column without partner has partner[c] = c
    return block


def _word_product(basis: PathBasis, m: int, letters, dtype) -> np.ndarray:
    """Product of x Phi_i + y I over (i, x, y) in letters on sector m: acc * (x diag + y) + acc[:, partner] * (x off), in place."""
    acc = np.eye(len(basis.sectors[m]), dtype=dtype)
    buf = np.empty_like(acc)
    for i, x, y in letters:
        diag, off, partner = basis.tables[i, m]
        np.take(acc, partner, axis=1, out=buf, mode="clip")  # partner is in range; "raise" would copy through a buffer
        buf *= x * off
        acc *= x * diag + y
        acc += buf
    return acc


def phi_generator(basis: PathBasis, i: int) -> list[SectorOperator]:
    """The i-th generator image, one real-symmetric block per nonempty sector."""
    return [SectorOperator(m, _phi_block(basis, i, m)) for m in basis.nonempty_sectors()]


def braid_gen_unitary(basis: PathBasis, i: int, exponent: int, m: int) -> SectorOperator:
    """Gate for one braid letter on sector m: A Phi + A^-1 I (or the conjugate mix)."""
    if m not in basis.sectors:
        raise PathModelError(f"sector {m} is empty at n={basis.n}, k={basis.k}")
    if exponent not in (1, -1):
        raise PathModelError(f"exponent must be +1 or -1, got {exponent}")
    a = basis.params.a_value
    return SectorOperator(m, _phi_block(basis, i, m, *((a, 1 / a) if exponent == 1 else (1 / a, a))))


def global_gate(basis: PathBasis, word: BraidWord, m: int) -> SectorOperator:
    """Ordered product of the per-letter gates for a whole braid word on sector m."""
    if word.strands != basis.n:
        raise PathModelError(
            f"braid on {word.strands} strands does not act on walks of length {basis.n}"
        )
    if m not in basis.sectors:
        raise PathModelError(f"sector {m} is empty at n={basis.n}, k={basis.k}")
    a = basis.params.a_value
    letters = [(i, a, 1 / a) if sign == 1 else (i, 1 / a, a) for i, sign in word.letters]
    return SectorOperator(m, _word_product(basis, m, letters, complex))


def sector_products(basis: PathBasis, generator_indices: list[int]) -> dict[int, np.ndarray]:
    """Per-sector matrix of a word in the generator images (identity for [])."""
    if not all(1 <= i <= basis.n - 1 for i in generator_indices):
        raise PathModelError(f"generator indices {generator_indices} out of range [1, {basis.n - 1}]")
    return {m: _word_product(basis, m, [(i, 1.0, 0.0) for i in generator_indices], float) for m in basis.nonempty_sectors()}
