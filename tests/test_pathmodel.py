import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from tljones.braids import BraidWord, parse_braid_word
import tljones.checks
import tljones.pathmodel
from tljones.pathmodel import (
    MAX_GATE_BYTES,
    ModelParams,
    PathModelError,
    adjacency_eigen_check,
    braid_gen_unitary,
    choose_a,
    count_walks,
    enumerate_paths,
    global_gate,
    sector_products,
)


def reference_candidate_phases(k: int) -> tuple[complex, ...]:
    """The eight unit phases (+-1, +-i) * e^(+-i pi / 2k), in the order the reference screens them."""
    base = cmath.exp(-1j * math.pi / (2 * k))
    return tuple(u * p for u in (1, -1, 1j, -1j) for p in (base, base.conjugate()))


def reference_choose_a(k: int) -> complex:
    """The first candidate phase with -A^2 - A^-2 = d and A^-4 = e^(2 pi i/k) (the earlier eight-phase screen)."""
    d = 2.0 * math.cos(math.pi / k)
    t_target = cmath.exp(2j * math.pi / k)
    return next(a for a in reference_candidate_phases(k) if abs(-a**2 - 1 / a**2 - d) < 1e-12 and abs(a**-4 - t_target) < 1e-12)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal dtype, values and sign bits (so a -0.0 cannot stand in for a 0.0), real and imaginary parts."""
    return x.dtype == y.dtype and all(
        np.array_equal(u, v) and np.array_equal(np.signbit(u), np.signbit(v))
        for u, v in ((x.real, y.real), (np.imag(x), np.imag(y)))
    )


def brute_force_paths(n: int, k: int) -> list[tuple[int, ...]]:
    """All 2^n bit strings filtered by prefix admissibility (test oracle)."""
    out = []
    for mask in range(1 << n):
        bits = tuple((mask >> j) & 1 for j in range(n))
        pos = 1
        ok = True
        for b in bits:
            pos += 1 if b else -1
            if not 1 <= pos <= k - 1:
                ok = False
                break
        if ok:
            out.append(bits)
    return sorted(out)


def walk_endpoint(bits: tuple[int, ...]) -> int:
    """Endpoint of a walk starting at vertex 1 (bit 1 = right, bit 0 = left)."""
    return 1 + sum(2 * b - 1 for b in bits)


def walks_as_tuples(basis, m: int) -> tuple[tuple[int, ...], ...]:
    """The walks of sector m as bit tuples, in basis order."""
    return tuple(tuple(int(b) for b in row) for row in basis.sectors[m])


def reference_basis(n: int, k: int):
    """Sectors of tuple walks and per-letter tables, built walk by walk (test reference).

    Admissible prefixes grow one bit at a time, walks are sorted and grouped
    by endpoint, and each table entry is written from the walk's bits with the
    same float operations as enumerate_paths.
    """
    lam = tljones.pathmodel.ModelParams.create(k, n).lam
    prefixes = [((), 1)]
    for _ in range(n):
        prefixes = [(bits + (b,), end + 2 * b - 1) for bits, end in prefixes for b in (0, 1) if 1 <= end + 2 * b - 1 <= k - 1]
    sectors: dict[int, list[tuple[int, ...]]] = {}
    for bits in sorted(bits for bits, _ in prefixes):
        sectors.setdefault(walk_endpoint(bits), []).append(bits)
    tables = {(i, m): (np.zeros(len(ws)), np.zeros(len(ws)), np.arange(len(ws))) for m, ws in sectors.items() for i in range(1, n)}
    for m, walks in sectors.items():
        index = {bits: c for c, bits in enumerate(walks)}
        for c, bits in enumerate(walks):
            e = 1  # endpoint of the first i-1 bits
            for i, (b1, b2) in enumerate(zip(bits, bits[1:]), 1):
                if b1 != b2:
                    diag, off, partner = tables[i, m]
                    diag[c] = (lam[e - 1] if b1 == 0 else lam[e + 1]) / lam[e]
                    off[c] = math.sqrt(lam[e - 1] * lam[e + 1]) / lam[e]
                    partner[c] = index.get(bits[: i - 1] + (b2, b1) + bits[i + 1 :], c)
                e += 2 * b1 - 1
    return {m: tuple(ws) for m, ws in sectors.items()}, tables


def reference_phi_block(basis, i: int, m: int) -> np.ndarray:
    """Dense Phi_i on sector m built column by column from the walks (test oracle)."""
    lam = basis.params.lam
    paths = walks_as_tuples(basis, m)
    index = {bits: c for c, bits in enumerate(paths)}
    block = np.zeros((len(paths), len(paths)))
    for col, bits in enumerate(paths):
        b1, b2 = bits[i - 1], bits[i]
        if b1 == b2:
            continue
        e = walk_endpoint(bits[: i - 1])
        cross = math.sqrt(lam[e - 1] * lam[e + 1]) / lam[e]
        block[col, col] = (lam[e - 1] if (b1, b2) == (0, 1) else lam[e + 1]) / lam[e]
        if cross != 0.0:
            block[index[bits[: i - 1] + (b2, b1) + bits[i + 1 :]], col] = cross
    return block


def reference_gate(basis, i: int, exponent: int, m: int) -> np.ndarray:
    """Dense braid-letter gate A Phi + A^-1 I (or A^-1 Phi + A I) from the reference block."""
    a = basis.params.a_value
    phi = reference_phi_block(basis, i, m).astype(complex)
    eye = np.eye(phi.shape[0], dtype=complex)
    return a * phi + (1 / a) * eye if exponent == 1 else (1 / a) * phi + a * eye


class TestEnumeration:
    def test_single_step(self):
        basis = enumerate_paths(1, 5)
        assert walks_as_tuples(basis, 2) == ((1,),)
        assert basis.sector_dims() == {2: 1}

    def test_n2_k3(self):
        basis = enumerate_paths(2, 3)
        assert walks_as_tuples(basis, 1) == ((1, 0),)
        assert basis.sector_dims() == {1: 1}

    def test_n3_k5(self):
        basis = enumerate_paths(3, 5)
        assert walks_as_tuples(basis, 2) == ((1, 0, 1), (1, 1, 0))
        assert walks_as_tuples(basis, 4) == ((1, 1, 1),)
        assert basis.total_dim() == 3

    @pytest.mark.parametrize("k", [3, 4, 5, 8])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 16])
    def test_matches_brute_force(self, n, k):
        basis = enumerate_paths(n, k)
        walks = [w for m in basis.nonempty_sectors() for w in walks_as_tuples(basis, m)]
        assert sorted(walks) == brute_force_paths(n, k)

    def test_sector_partition(self):
        basis = enumerate_paths(6, 6)
        total = sum(basis.sector_dims().values())
        assert total == basis.total_dim()
        for m, walks in basis.sectors.items():
            assert walks.dtype == bool and walks.shape == (basis.sector_dims()[m], 6)
            paths = walks_as_tuples(basis, m)
            assert all(walk_endpoint(p) == m for p in paths)
            assert list(paths) == sorted(paths)

    def test_k2_rejected(self):
        with pytest.raises(PathModelError):
            enumerate_paths(2, 2)

    @pytest.mark.parametrize("k", range(3, 11))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_count_walks_matches_enumeration(self, n, k):
        assert count_walks(n, k) == enumerate_paths(n, k).sector_dims()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_count_walks_ignores_k_past_the_walk_height(self, n):
        # a walk of length n never reaches height n + 2, so a larger k adds no walks
        for k in range(n + 3, 13):
            assert count_walks(n, k) == count_walks(n, n + 2)

    @pytest.mark.parametrize("n, k", [(0, 5), (3, 2)])
    def test_count_walks_rejects_bad_sizes(self, n, k):
        with pytest.raises(PathModelError):
            count_walks(n, k)

    def test_gate_memory_bound(self, monkeypatch):
        def gate_bytes(n, k):
            return sum(16 * dim**2 for dim in count_walks(n, k).values())

        assert gate_bytes(16, 12) <= MAX_GATE_BYTES < gate_bytes(18, 8)
        monkeypatch.setattr(tljones.pathmodel, "_walk_tables", None)  # building any walk would fail
        with pytest.raises(PathModelError, match=r"n=18, k=8: .* 4656926720 bytes"):
            enumerate_paths(18, 8)


class TestParameters:
    @pytest.mark.parametrize("k", range(3, 12))
    def test_phase_constraints(self, k):
        a = choose_a(k)
        d = 2 * math.cos(math.pi / k)
        assert abs(abs(a) - 1) < 1e-12
        assert abs(-a**2 - 1 / a**2 - d) < 1e-12
        assert abs(a**-4 - cmath.exp(2j * math.pi / k)) < 1e-12

    def test_k3_value(self):
        assert choose_a(3) == pytest.approx(1j * cmath.exp(-1j * math.pi / 6))

    def test_k4_value(self):
        a = choose_a(4)
        assert abs(-a**2 - 1 / a**2 - math.sqrt(2)) < 1e-12

    def test_bare_phase_fails_constraint(self):
        a = reference_candidate_phases(4)[0]
        assert a == pytest.approx(cmath.exp(-1j * math.pi / 8))
        assert abs(-a**2 - 1 / a**2 - math.sqrt(2)) > 1  # yields -d, not d
        assert choose_a(4) != a

    def test_candidate_set_recorded(self):
        params = ModelParams.create(5, 3)
        assert params.a_value in reference_candidate_phases(5)
        assert len(reference_candidate_phases(5)) == 8
        assert params.a_value == reference_choose_a(5)

    @pytest.mark.parametrize("ks", [range(3, 2001), (5 * 10**6, 10**7, 10**9)], ids=["3..2000", "large"])
    def test_closed_form_is_the_screened_pick(self, ks):
        # bit for bit: the frozen CLI bytes at k = 5e6 and 1e7 depend on A's last bits
        for k in ks:
            a, ref = choose_a(k), reference_choose_a(k)
            assert (a.real, a.imag) == (ref.real, ref.imag)
            assert np.array_equal(np.signbit([a.real, a.imag]), np.signbit([ref.real, ref.imag]))

    def test_sentinels(self):
        # lambda is stored for heights 0..min(k, n + 2): a walk of length n never reaches n + 2
        params = ModelParams.create(7, 2)
        assert len(params.lam) == 5 and params.lam[0] == 0.0
        assert all(params.lam[ell] > 0 for ell in range(1, 5))
        for n in (5, 6, 40):  # k <= n + 2: the wall lambda_k = 0 is stored
            params = ModelParams.create(7, n)
            assert len(params.lam) == 8 and params.lam[0] == 0.0 and params.lam[7] == 0.0
            assert all(params.lam[ell] > 0 for ell in range(1, 7))

    @pytest.mark.parametrize("k", [10**160, 10**200])
    def test_subnormal_weight_products_refused(self, k):
        # sqrt(lambda_(h-1) lambda_(h+1)) loses bits once lambda_1^2 is subnormal, from k of about 2.1e154
        with pytest.raises(PathModelError, match=rf"^k is too large: .* \({k.bit_length()}-bit k\)$"):
            ModelParams.create(k, 3)

    @pytest.mark.parametrize(("k", "n"), [(3, 1), (7, 2), (7, 5), (12, 3), (10**9, 2)])
    def test_lambda_values(self, k, n):
        lam = ModelParams.create(k, n).lam
        assert len(lam) == min(k, n + 2) + 1
        assert lam[1:k] == tuple(math.sin(math.pi * ell / k) for ell in range(1, min(k, n + 3)))


class TestAdjacency:
    @pytest.mark.parametrize("k", [3, 4, 5, 8, 16])
    def test_small_k(self, k):
        assert adjacency_eigen_check(k) <= 1e-12

    def test_large_k(self):
        assert adjacency_eigen_check(64) <= 1e-10

    def test_shifted_lambda_fails(self, monkeypatch):
        """The check reads ModelParams.create's lambda, so a defect there (lambda_l = sin(pi (l+1) / k)) fails it."""
        create = ModelParams.create.__func__

        def shifted(cls, k, n):
            params = create(cls, k, n)
            lam = [0.0] + [math.sin(math.pi * (ell + 1) / k) for ell in range(1, min(k, len(params.lam)))]
            return dataclasses.replace(params, lam=(*lam, *params.lam[len(lam):]))

        monkeypatch.setattr(ModelParams, "create", classmethod(shifted))
        assert adjacency_eigen_check(8) > 0.38
        details = tljones.checks.check_representation(n_max=4, k_max=5).details
        assert [line for line in details if "eigenvector" in line] == [
            "k=3: eigenvector residual 8.66e-01",
            "k=4: eigenvector residual 7.07e-01",
            "k=5: eigenvector residual 5.88e-01",
        ]


class TestPhi:
    def test_n2_k3_scalar(self):
        basis = enumerate_paths(2, 3)
        (m, block), = sector_products(basis, [1]).items()
        assert m == 1
        assert block == pytest.approx(np.array([[1.0]]))  # d = 1 at k = 3

    def test_n2_k4_blocks(self):
        basis = enumerate_paths(2, 4)
        ops = sector_products(basis, [1])
        assert ops[1] == pytest.approx(np.array([[math.sqrt(2)]]))  # path 10
        assert ops[3] == pytest.approx(np.array([[0.0]]))  # path 11 annihilated

    def test_out_of_range_index(self):
        basis = enumerate_paths(2, 4)
        with pytest.raises(PathModelError):
            sector_products(basis, [2])

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_relations(self, n, k):
        basis = enumerate_paths(n, k)
        d = basis.params.d
        phis = {i: sector_products(basis, [i]) for i in range(1, n)}
        for i in range(1, n):
            for m, block in phis[i].items():
                assert np.array_equal(block, block.T)  # exact symmetry
                assert np.max(np.abs(block @ block - d * block)) <= 1e-10
                eigs = np.linalg.eigvalsh(block)
                dist = np.minimum(np.abs(eigs), np.abs(eigs - d))
                assert float(dist.max(initial=0.0)) <= 1e-10
        for i in range(1, n - 1):
            for m in basis.nonempty_sectors():
                a, b = phis[i][m], phis[i + 1][m]
                assert np.max(np.abs(a @ b @ a - a)) <= 1e-10
                assert np.max(np.abs(b @ a @ b - b)) <= 1e-10
        for i in range(1, n):
            for j in range(i + 2, n):
                for m in basis.nonempty_sectors():
                    a, b = phis[i][m], phis[j][m]
                    assert np.max(np.abs(a @ b - b @ a)) <= 1e-12


class TestUnitaries:
    @pytest.mark.parametrize("k", [3, 4, 5, 8])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unitarity(self, n, k):
        basis = enumerate_paths(n, k)
        for i in range(1, n):
            for m in basis.nonempty_sectors():
                for exponent in (1, -1):
                    u = braid_gen_unitary(basis, i, exponent, m).matrix
                    assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= 1e-12

    def test_inverse_is_adjoint(self):
        basis = enumerate_paths(4, 6)
        for m in basis.nonempty_sectors():
            plus = braid_gen_unitary(basis, 2, 1, m).matrix
            minus = braid_gen_unitary(basis, 2, -1, m).matrix
            assert np.max(np.abs(minus - plus.conj().T)) <= 1e-12

    def test_braid_relation(self):
        basis = enumerate_paths(5, 7)
        for m in basis.nonempty_sectors():
            u1 = braid_gen_unitary(basis, 1, 1, m).matrix
            u2 = braid_gen_unitary(basis, 2, 1, m).matrix
            assert np.max(np.abs(u1 @ u2 @ u1 - u2 @ u1 @ u2)) <= 1e-10

    def test_scalar_sector_example(self):
        # n=2, k=3: single sector {10}, U = A d + A^-1 on one dimension
        basis = enumerate_paths(2, 3)
        a = basis.params.a_value
        u = braid_gen_unitary(basis, 1, 1, 1).matrix
        assert u[0, 0] == pytest.approx(a * basis.params.d + 1 / a)

    def test_empty_sector_rejected(self):
        basis = enumerate_paths(2, 3)  # only sector 1 is nonempty
        with pytest.raises(PathModelError, match="empty"):
            braid_gen_unitary(basis, 1, 1, 2)


class TestGlobalGate:
    def test_identity_braid(self):
        basis = enumerate_paths(3, 5)
        for m in basis.nonempty_sectors():
            gate = global_gate(basis, BraidWord.identity(3), m)
            assert np.array_equal(gate.matrix, np.eye(gate.dim, dtype=complex))

    def test_letter_times_inverse(self):
        basis = enumerate_paths(3, 5)
        word = parse_braid_word("1 -1", 3)
        for m in basis.nonempty_sectors():
            gate = global_gate(basis, word, m).matrix
            assert np.max(np.abs(gate - np.eye(gate.shape[0]))) <= 1e-12

    def test_cube_is_power(self):
        basis = enumerate_paths(2, 5)
        word = parse_braid_word("1 1 1", 2)
        for m in basis.nonempty_sectors():
            single = braid_gen_unitary(basis, 1, 1, m).matrix
            gate = global_gate(basis, word, m).matrix
            assert np.max(np.abs(gate - single @ single @ single)) <= 1e-12

    def test_long_word_unitarity(self):
        rng = random.Random(0)
        basis = enumerate_paths(4, 6)
        letters = tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(64))
        word = BraidWord(4, letters)
        for m in basis.nonempty_sectors():
            u = global_gate(basis, word, m).matrix
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= 1e-10

    def test_strand_mismatch(self):
        basis = enumerate_paths(3, 5)
        with pytest.raises(PathModelError):
            global_gate(basis, BraidWord.identity(4), 2)

    def test_candidate_phases_cover_conjugates(self):
        phases = reference_candidate_phases(5)
        for a in phases:
            assert any(abs(a.conjugate() - b) < 1e-15 for b in phases)
        assert choose_a(5).conjugate() in phases


class TestLetterTables:
    @pytest.mark.parametrize("k", range(3, 11))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_dense_views_match_reference(self, n, k):
        basis = enumerate_paths(n, k)
        for i in range(1, n):
            blocks = sector_products(basis, [i])
            assert blocks.keys() == set(basis.nonempty_sectors())
            for m, block in blocks.items():
                assert same_bits(block, reference_phi_block(basis, i, m))
                for exponent in (1, -1):
                    gate = braid_gen_unitary(basis, i, exponent, m).matrix
                    assert same_bits(gate, reference_gate(basis, i, exponent, m))

    @pytest.mark.parametrize("seed", range(12))
    def test_products_match_reference(self, seed):
        rng = random.Random(seed)
        n, k = rng.randint(2, 7), rng.randint(3, 10)
        letters = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(2, 12))]
        letters[1] = letters[0]  # a repeated letter
        basis = enumerate_paths(n, k)
        products = sector_products(basis, [i for i, _ in letters])
        for m in basis.nonempty_sectors():
            dim = len(basis.sectors[m])
            ref_gate, ref_phi = np.eye(dim, dtype=complex), np.eye(dim)
            for i, exponent in letters:
                ref_gate = ref_gate @ reference_gate(basis, i, exponent, m)
                ref_phi = ref_phi @ reference_phi_block(basis, i, m)
            gate = global_gate(basis, BraidWord(n, tuple(letters)), m).matrix
            assert np.max(np.abs(gate - ref_gate)) <= 1e-13
            assert np.max(np.abs(products[m] - ref_phi)) <= 1e-13

    def test_empty_word_is_exact_identity(self):
        basis = enumerate_paths(5, 6)
        products = sector_products(basis, [])
        for m in basis.nonempty_sectors():
            dim = len(basis.sectors[m])
            assert products[m].dtype == np.float64 and np.array_equal(products[m], np.eye(dim))
            gate = global_gate(basis, BraidWord.identity(5), m).matrix
            assert gate.dtype == np.complex128 and np.array_equal(gate, np.eye(dim))

    def test_product_rejects_out_of_range_generator(self):
        with pytest.raises(PathModelError, match="out of range"):
            sector_products(enumerate_paths(3, 5), [1, 3])


def allocating_word_product(basis, m: int, letters, dtype) -> np.ndarray:
    """The allocating form of the column update, one fresh accumulator per letter (test reference)."""
    acc = np.eye(len(basis.sectors[m]), dtype=dtype)
    for i, x, y in letters:
        diag, off, partner = basis.tables[i, m]
        acc = acc * (x * diag + y) + acc[:, partner] * (x * off)
    return acc


class TestInPlaceLetterUpdate:
    """The in-place kernel applies the same elementwise operations, so it must agree bit for bit."""

    @pytest.mark.parametrize(("n", "k"), [(4, 5), (8, 10), (12, 6), (12, 8)])
    def test_bit_identical_to_allocating_update(self, n, k):
        basis = enumerate_paths(n, k)
        rng = random.Random(100 * n + k)
        word = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(20)))
        a = basis.params.a_value
        gate_letters = [(i, a, 1 / a) if sign == 1 else (i, 1 / a, a) for i, sign in word.letters]
        indices = [i for i, _ in word.letters]
        products = sector_products(basis, indices)
        fixed_columns = 0
        for m in basis.nonempty_sectors():
            fixed_columns += sum(int(np.sum(basis.tables[i, m][2] == np.arange(len(basis.sectors[m])))) for i in indices)
            for letters, dtype in (
                (gate_letters, complex),
                ([(i, 1.0, 0.0) for i in indices], float),
                ([(i, 0.7, -1.3) for i in indices], float),
                ([(i, 0.6 - 0.8j, 0.25j) for i in indices], complex),
            ):
                got = tljones.pathmodel._word_product(basis, m, letters, dtype)
                assert got.dtype == np.dtype(dtype)
                assert np.array_equal(got, allocating_word_product(basis, m, letters, dtype))
            assert np.array_equal(global_gate(basis, word, m).matrix, allocating_word_product(basis, m, gate_letters, complex))
            assert np.array_equal(products[m], allocating_word_product(basis, m, [(i, 1.0, 0.0) for i in indices], float))
        assert fixed_columns > 0  # columns whose partner is themselves (partner[c] == c) are covered


def assert_tables_equal_reference(n: int, k: int) -> None:
    basis = enumerate_paths(n, k)
    ref_sectors, ref_tables = reference_basis(n, k)
    assert {m: walks_as_tuples(basis, m) for m in basis.sectors} == ref_sectors
    assert basis.tables.keys() == ref_tables.keys()
    for key, ref in ref_tables.items():
        for got, want in zip(basis.tables[key], ref):
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, k, key)


def completions(n: int, k: int, start: int, steps: int, end: int) -> int:
    """Walks of the given steps from height start to end inside [1, k-1], by brute force (test oracle)."""
    count = 0
    for mask in range(1 << steps):
        h = start
        for j in range(steps):
            h += 1 if (mask >> j) & 1 else -1
            if not 1 <= h <= k - 1:
                break
        else:
            count += h == end
    return count


class TestVectorisedBuilder:
    """Every table of the vectorised builder equals the walk-by-walk reference, bit for bit."""

    @pytest.mark.parametrize("k", range(3, 11))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_tables_match_reference(self, n, k):
        assert_tables_equal_reference(n, k)

    def test_tables_match_reference_at_14_10(self):
        assert_tables_equal_reference(14, 10)

    @pytest.mark.parametrize("n", [62, 63, 64, 100])
    def test_k3_single_walk_past_int64_codes(self, n):
        # k = 3 admits one walk at any n (MAX_GATE_BYTES never refuses it), so no bit may be lost past 63 steps
        basis = enumerate_paths(n, 3)
        assert basis.total_dim() == 1
        assert walks_as_tuples(basis, 1 + n % 2) == (tuple(1 - j % 2 for j in range(n)),)
        assert_tables_equal_reference(n, 3)

    @pytest.mark.parametrize(("n", "k"), [(4, 4), (6, 5), (7, 6), (8, 9)])
    def test_partner_offset_is_a_completion_count(self, n, k):
        # when off[c] != 0, the swapped walk sits C walks away, C being the completions from the
        # pair's height e in n-i-1 steps to m: after walk c (bits 01) or before it (bits 10)
        basis = enumerate_paths(n, k)
        checked = 0
        for (i, m), (_, off, partner) in basis.tables.items():
            for c, bits in enumerate(walks_as_tuples(basis, m)):
                if off[c] != 0.0:
                    e = walk_endpoint(bits[: i - 1])
                    sign = 1 if bits[i - 1] == 0 else -1
                    assert partner[c] - c == sign * completions(n, k, e, n - i - 1, m)
                    checked += 1
                else:
                    assert partner[c] == c
        assert checked > 0
