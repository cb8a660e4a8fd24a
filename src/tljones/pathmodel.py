"""Unitary path-model representation of the Temperley-Lieb algebra.

The model lives on walks over the path graph with vertices 1..k-1 (an edge
between consecutive vertices). A walk of length n starting at vertex 1 is a
bit string: bit 1 steps right, bit 0 steps left, and every prefix endpoint
must stay inside [1, k-1]. Walks are grouped into sectors by their endpoint
m; every operator built here preserves sectors. Column c of Phi_i is diag[c]
at row c plus off[c] at row partner[c], one table per (i, sector), so a letter
updates a product column by column in O(dim^2), in place. _word_product is the
only place an operator is formed: a single Phi_i or gate is a one-letter word.

enumerate_paths builds every walk and table in one NumPy pass: completion counts
unrank all walks at once, step by step, and partner[c] = c +- (completions from
the pair's height), so no walk is packed into an integer code.

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
bare phase e^(-i pi / 2k) gives -d instead, so choose_a returns the closed form
A = i e^(-i pi / 2k), which also pins the evaluation point t = A^-4 = e^(2 pi i / k).
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math

import numpy as np

from .braids import BraidWord


class PathModelError(ValueError):
    """Invalid path-model parameters or operation."""


def choose_a(k: int) -> complex:
    """A = i e^(-i pi / 2k): unit modulus, -A^2 - A^-2 = 2 cos(pi/k) and A^-4 = e^(2 pi i/k)."""
    if k < 3:
        raise PathModelError(f"k must be >= 3, got {k}")
    try:
        return 1j * cmath.exp(-1j * math.pi / (2 * k))
    except OverflowError:  # 2k past the float range; k's own digits would run to hundreds
        raise PathModelError(f"k is too large: 2k overflows a float ({k.bit_length()}-bit k)") from None


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Numeric parameters of the model at one (k, n)."""

    k: int
    n: int
    d: float
    a_value: complex
    lam: tuple[float, ...]  # lam[l] for l in 0..min(k, n+2) (no walk reaches n+2); sentinels lam[0] = 0, lam[k] = 0 if k <= n+2

    @classmethod
    def create(cls, k: int, n: int) -> ModelParams:
        a_value = choose_a(k)  # refuses k < 3 and a k too large for the phase
        if n < 1:
            raise PathModelError(f"n must be >= 1, got {n}")
        lam = [0.0] + [math.sin(math.pi * ell / k) for ell in range(1, min(k, n + 3))]
        if lam[1] ** 2 < 2.0**-1022:  # the least normal float; every product of two weights is >= lam[1]^2
            raise PathModelError(f"k is too large: the path weights' products underflow a float ({k.bit_length()}-bit k)")
        if k <= n + 2:
            lam.append(0.0)
        return cls(k, n, 2.0 * math.cos(math.pi / k), a_value, tuple(lam))


@dataclasses.dataclass(frozen=True)
class PathBasis:
    """The admissible walks at one (n, k), sector-partitioned by endpoint."""

    params: ModelParams
    sectors: dict[int, np.ndarray]  # m -> bool (dim_m, n) array, row c the bits of walk c, in lexicographic order
    tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]  # (i, m) -> (diag, off, partner)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    def sector_dims(self) -> dict[int, int]:
        return {m: len(walks) for m, walks in self.sectors.items()}

    def total_dim(self) -> int:
        return sum(map(len, self.sectors.values()))

    def nonempty_sectors(self) -> tuple[int, ...]:
        return tuple(sorted(self.sectors))

    def normalization(self) -> float:
        """N = sum over sectors of lambda_m * dim(sector m)."""
        lam = self.params.lam
        return sum(lam[m] * len(walks) for m, walks in sorted(self.sectors.items()))


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


def enumerate_paths(n: int, k: int) -> PathBasis:
    """All admissible walks of length n by endpoint sector with their letter tables; an oversized model is refused first."""
    params = ModelParams.create(k, n)
    dims = count_walks(n, k)
    gate_bytes = sum(16 * dim**2 for dim in dims.values())
    if gate_bytes > MAX_GATE_BYTES:
        raise PathModelError(f"n={n}, k={k}: the dense gates need {gate_bytes} bytes, over MAX_GATE_BYTES = {MAX_GATE_BYTES}")
    return PathBasis(params, *_walk_tables(n, params.lam, dims))


def _walk_tables(n: int, lam: tuple[float, ...], dims: dict[int, int]):
    """Sectors and (i, m) tables of all walks, with a few NumPy calls per step and none per walk."""
    width = len(lam)  # heights 0..width-1; the top one is a wall (lam = 0) or out of reach
    # comp[s, h * width + m]: walks of s steps from height h to m between the walls; columns evolve
    # independently and only 1..width-2 are read, so comp[0] may be the whole identity
    comp = np.zeros((n + 1, width * width), dtype=np.int64)
    comp[0, :: width + 1] = 1
    for lower, upper, out in zip(comp[:-1, : -2 * width], comp[:-1, 2 * width :], comp[1:, width:-width]):
        np.add(lower, upper, out=out)
    ends, sizes = zip(*sorted(dims.items()))
    starts = list(itertools.accumulate(sizes, initial=0))
    end_and_start = np.array([ends, starts[:-1]]).repeat(sizes, axis=1)
    # pos[j] = (h - 1) * width + m for a walk of sector m at height h after j steps; walks[j] = step j
    pos = end_and_start[:1].repeat(n + 1, axis=0)
    walks = np.empty((n, starts[-1]), dtype=bool)
    col = np.arange(starts[-1]) - end_and_start[1]  # a walk's column in its sector is its rank there
    rank = col.copy()
    step = np.array([-width, width])
    for ahead, here, there, up in zip(comp[n - 1 :: -1], pos, pos[1:], walks):
        below = ahead[here]  # completions after a down step; a rank at or past them steps up
        np.greater_equal(rank, below, out=up)
        bit = up.astype(np.int64)
        below *= bit
        rank -= below
        np.add(here, step[bit], out=there)
    # by pos: lambda_h, and sqrt(lambda_(h-1) lambda_(h+1)) / lambda_h, 0 iff a swap at h leaves [1, k-1]
    at = np.array([lam[1:], [math.sqrt(lam[h - 1] * lam[h + 1]) / lam[h] for h in range(1, width - 1)] + [0.0]]).repeat(width, axis=1)
    e, after = pos[: n - 1], pos[1:n]  # row i-1: Phi_i acts on steps i-1, i (from 0) of a walk at pos e
    act = (e == pos[2:]).astype(float)  # a monotone pair is annihilated
    diag = at[0][after] / at[0][e] * act
    off = at[1][e] * act
    # the swapped walk lies comp[n-i-1, e, m] walks later (bits 01) or earlier (bits 10)
    partner = comp.reshape(-1)[e + np.arange((n - 2) * width * width + width, 0, -width * width)[:, None]]
    partner *= (e - after) // width
    partner[off == 0] = 0
    partner += col
    spans = list(zip(ends, starts, starts[1:]))
    sectors = {m: walks.T[a:z] for m, a, z in spans}
    tables = {(i, m): t for m, a, z in spans for i, t in enumerate(zip(diag[:, a:z], off[:, a:z], partner[:, a:z]), 1)}
    return sectors, tables


def adjacency_eigen_check(k: int) -> float:
    """Max residual of lambda_(l-1) + lambda_(l+1) = d lambda_l, l = 1..k-1, on the model's own lambda and d."""
    params = ModelParams.create(k, max(k - 2, 1))  # n = k - 2 reaches every height up to the wall at k
    lam, d = params.lam, params.d
    return max(abs(lam[ell - 1] + lam[ell + 1] - d * lam[ell]) for ell in range(1, k))


@dataclasses.dataclass(frozen=True)
class SectorOperator:
    """A dense square operator on the walk basis of one endpoint sector (containers key it by the sector)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def braid_gen_unitary(basis: PathBasis, i: int, exponent: int, m: int) -> SectorOperator:
    """Gate for one braid letter on sector m: the one-letter braid word."""
    return global_gate(basis, BraidWord(basis.n, ((i, exponent),)), m)


def global_gate(basis: PathBasis, word: BraidWord, m: int) -> SectorOperator:
    """The word's letters as gates on sector m, in order: b_i is A Phi_i + A^-1 I, b_i^-1 is A^-1 Phi_i + A I."""
    if word.strands != basis.n:
        raise PathModelError(f"braid on {word.strands} strands does not act on walks of length {basis.n}")
    if m not in basis.sectors:
        raise PathModelError(f"sector {m} is empty at n={basis.n}, k={basis.k}")
    a = basis.params.a_value
    letters = [(i, a, 1 / a) if sign == 1 else (i, 1 / a, a) for i, sign in word.letters]
    return SectorOperator(_word_product(basis, m, letters, complex))


def sector_products(basis: PathBasis, generator_indices: list[int]) -> dict[int, np.ndarray]:
    """Per-sector matrix of a word in the generator images (identity for [])."""
    if not all(1 <= i <= basis.n - 1 for i in generator_indices):
        raise PathModelError(f"generator indices {generator_indices} out of range [1, {basis.n - 1}]")
    return {m: _word_product(basis, m, [(i, 1.0, 0.0) for i in generator_indices], float) for m in basis.nonempty_sectors()}
