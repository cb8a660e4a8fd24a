import cmath
import math
import random

import numpy as np
import pytest

from tljones.braids import BraidWord, parse_braid_word
import tljones.pathmodel
from tljones.pathmodel import (
    MAX_GATE_BYTES,
    ModelParams,
    PathModelError,
    adjacency_eigen_check,
    braid_gen_unitary,
    candidate_phases,
    choose_a,
    count_walks,
    enumerate_paths,
    global_gate,
    path_endpoint,
    phi_generator,
    sector_products,
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


def reference_phi_block(basis, i: int, m: int) -> np.ndarray:
    """Dense Phi_i on sector m built column by column from the walks (test oracle)."""
    lam = basis.params.lam
    paths = basis.sectors[m]
    index = {bits: c for c, bits in enumerate(paths)}
    block = np.zeros((len(paths), len(paths)))
    for col, bits in enumerate(paths):
        b1, b2 = bits[i - 1], bits[i]
        if b1 == b2:
            continue
        e = path_endpoint(bits[: i - 1])
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
        assert basis.paths == ((1,),)
        assert basis.sector_dims() == {2: 1}

    def test_n2_k3(self):
        basis = enumerate_paths(2, 3)
        assert basis.paths == ((1, 0),)
        assert basis.sector_dims() == {1: 1}

    def test_n3_k5(self):
        basis = enumerate_paths(3, 5)
        assert basis.sectors[2] == ((1, 0, 1), (1, 1, 0))
        assert basis.sectors[4] == ((1, 1, 1),)
        assert basis.total_dim() == 3

    @pytest.mark.parametrize("k", [3, 4, 5, 8])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 16])
    def test_matches_brute_force(self, n, k):
        basis = enumerate_paths(n, k)
        assert list(basis.paths) == brute_force_paths(n, k)

    def test_sector_partition(self):
        basis = enumerate_paths(6, 6)
        total = sum(basis.sector_dims().values())
        assert total == basis.total_dim()
        for m, paths in basis.sectors.items():
            assert all(path_endpoint(p) == m for p in paths)
            assert list(paths) == sorted(paths)

    def test_k2_rejected(self):
        with pytest.raises(PathModelError):
            enumerate_paths(2, 2)

    @pytest.mark.parametrize("k", range(3, 11))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_count_walks_matches_enumeration(self, n, k):
        assert count_walks(n, k) == enumerate_paths(n, k).sector_dims()

    @pytest.mark.parametrize("n, k", [(0, 5), (3, 2)])
    def test_count_walks_rejects_bad_sizes(self, n, k):
        with pytest.raises(PathModelError):
            count_walks(n, k)

    def test_gate_memory_bound(self, monkeypatch):
        def gate_bytes(n, k):
            return sum(16 * dim**2 for dim in count_walks(n, k).values())

        assert gate_bytes(16, 12) <= MAX_GATE_BYTES < gate_bytes(18, 8)
        monkeypatch.setattr(tljones.pathmodel, "path_endpoint", None)  # grouping walks into sectors would fail
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
        a = candidate_phases(4)[0]
        assert a == pytest.approx(cmath.exp(-1j * math.pi / 8))
        assert abs(-a**2 - 1 / a**2 - math.sqrt(2)) > 1  # yields -d, not d

    def test_candidate_set_recorded(self):
        params = ModelParams.create(5, 3)
        assert params.a_value in candidate_phases(5)
        assert len(candidate_phases(5)) == 8

    def test_sentinels(self):
        params = ModelParams.create(7, 2)
        assert params.lam[0] == 0.0 and params.lam[7] == 0.0
        assert all(params.lam[ell] > 0 for ell in range(1, 7))

    def test_bad_phase_rejected(self):
        with pytest.raises(PathModelError, match="violates"):
            ModelParams.create(5, 2, a_value=cmath.exp(-1j * math.pi / 10))


class TestAdjacency:
    @pytest.mark.parametrize("k", [3, 4, 5, 8, 16])
    def test_small_k(self, k):
        assert adjacency_eigen_check(k) <= 1e-12

    def test_large_k(self):
        assert adjacency_eigen_check(64) <= 1e-10


class TestPhi:
    def test_n2_k3_scalar(self):
        basis = enumerate_paths(2, 3)
        (op,) = phi_generator(basis, 1)
        assert op.m == 1
        assert op.matrix == pytest.approx(np.array([[1.0]]))  # d = 1 at k = 3

    def test_n2_k4_blocks(self):
        basis = enumerate_paths(2, 4)
        ops = {op.m: op.matrix for op in phi_generator(basis, 1)}
        assert ops[1] == pytest.approx(np.array([[math.sqrt(2)]]))  # path 10
        assert ops[3] == pytest.approx(np.array([[0.0]]))  # path 11 annihilated

    def test_out_of_range_index(self):
        basis = enumerate_paths(2, 4)
        with pytest.raises(PathModelError):
            phi_generator(basis, 2)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_relations(self, n, k):
        basis = enumerate_paths(n, k)
        d = basis.params.d
        phis = {i: {op.m: op.matrix for op in phi_generator(basis, i)} for i in range(1, n)}
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
        phases = candidate_phases(5)
        for a in phases:
            assert any(abs(a.conjugate() - b) < 1e-15 for b in phases)


class TestLetterTables:
    @pytest.mark.parametrize("k", range(3, 11))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_dense_views_match_reference(self, n, k):
        basis = enumerate_paths(n, k)
        for i in range(1, n):
            blocks = {op.m: op.matrix for op in phi_generator(basis, i)}
            assert blocks.keys() == set(basis.nonempty_sectors())
            for m, block in blocks.items():
                assert np.array_equal(block, reference_phi_block(basis, i, m))
                for exponent in (1, -1):
                    gate = braid_gen_unitary(basis, i, exponent, m).matrix
                    assert np.array_equal(gate, reference_gate(basis, i, exponent, m))

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
