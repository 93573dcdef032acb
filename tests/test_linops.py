import numpy as np
import pytest

from egm.errors import DefinitenessError, DimensionError, PreconditionError
from egm.linops import (
    _cholesky_logdet,
    _per_slice,
    check_spd,
    commutation_matrix,
    duplication_matrix,
    kron,
    mat,
    symmetrization_matrix,
    vec,
)

from _oracles import selection_matrix

rng = np.random.default_rng(1234)


class TestVecMat:
    def test_vec_column_major(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vec(A), [1.0, 3.0, 2.0, 4.0])

    def test_vec_identity(self):
        assert np.array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_mat_example(self):
        assert np.array_equal(mat(np.array([1.0, 3.0, 2.0, 4.0]), 2),
                              [[1.0, 2.0], [3.0, 4.0]])

    def test_mat_zero(self):
        assert np.array_equal(mat(np.zeros(9), 3), np.zeros((3, 3)))

    def test_round_trips(self):
        A = rng.standard_normal((5, 5))
        A = A + A.T
        assert np.array_equal(mat(vec(A), 5), A)
        B = rng.standard_normal((3, 3))
        assert np.array_equal(mat(vec(B), 3), B)
        v = rng.standard_normal(16)
        assert np.array_equal(vec(mat(v, 4)), v)

    def test_mat_length_mismatch(self):
        with pytest.raises(DimensionError):
            mat(np.zeros(5), 2)


class TestChecks:
    def test_non_finite_entry_named_per_slice(self):
        A = np.array([np.eye(3), np.eye(3)])
        A[1, 0, 2] = np.inf
        with pytest.raises(PreconditionError, match="non-finite value at row 1, column 3"):
            check_spd(A)
        with pytest.raises(PreconditionError, match="row 1, column 3"):
            check_spd(A[1])

    def test_factor_helper_splits_where_the_public_checks_raise(self):
        # a slice without a factor gets I and its own error; the others keep their bits
        good = [np.cov(rng.standard_normal((4, 20))) for _ in range(2)]
        S = np.array([good[0], np.diag([1.0, -1.0, 1.0, 1.0]), good[1]])
        L, errors = _per_slice(np.linalg.cholesky, S)
        assert list(errors) == [1] and type(errors[1]) is np.linalg.LinAlgError
        assert np.array_equal(L[1], np.eye(4))
        for i in (0, 2):
            assert np.array_equal(L[i], np.linalg.cholesky(S[i]))
        logdet = _cholesky_logdet(S)
        assert np.isnan(logdet[1]) and np.array_equal(logdet[[0, 2]], [
            _cholesky_logdet(S[i:i + 1])[0] for i in (0, 2)])
        with pytest.raises(DefinitenessError):
            check_spd(S)


    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_symmetry_tolerance_is_relative(self, scale):
        # the tolerance scales with the matrix: 0.2 against 1.0 is asymmetric at any scale
        B = np.eye(3) * 2.0
        B[0, 1], B[1, 0] = 1.0, 0.2
        with pytest.raises(DimensionError, match="not symmetric"):
            check_spd(scale * B)
        assert np.array_equal(check_spd(scale * (B + B.T)), scale * (B + B.T))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_block(self):
        B = rng.standard_normal((3, 2))
        assert np.allclose(kron([[2.0]], B), 2.0 * B, atol=1e-15)

    def test_vec_identity(self):
        A, B, X = (rng.standard_normal((3, 3)) for _ in range(3))
        assert np.allclose(kron(A, B) @ vec(X), vec(B @ X @ A.T), atol=1e-12)

    def test_mixed_product(self):
        A, B, C, D = (rng.standard_normal((3, 3)) for _ in range(4))
        assert np.allclose(kron(A, B) @ kron(C, D), kron(A @ C, B @ D), atol=1e-12)

    def test_associative_bilinear(self):
        A, B, C = (rng.standard_normal((2, 3)) for _ in range(3))
        left = kron(kron(A, B), C)
        right = kron(A, kron(B, C))
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)
        a, b = 0.7, -1.3
        assert np.allclose(kron(a * A + b * B, C), a * kron(A, C) + b * kron(B, C),
                           rtol=1e-12, atol=1e-12)


class TestCommutation:
    def test_p1(self):
        assert np.array_equal(commutation_matrix(1), [[1.0]])

    def test_transpose_action_p2(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(commutation_matrix(2) @ vec(A), [1.0, 2.0, 3.0, 4.0])

    def test_involution_p4(self):
        K = commutation_matrix(4)
        assert np.array_equal(K @ K, np.eye(16))

    def test_orthogonal_permutation(self):
        for p in (2, 3, 5):
            K = commutation_matrix(p)
            assert np.array_equal(K.T @ K, np.eye(p * p))
            assert (K.sum(axis=0) == 1).all() and (K.sum(axis=1) == 1).all()
            assert ((K == 0) | (K == 1)).all()

    def test_transposes_any_matrix(self):
        A = rng.standard_normal((4, 4))
        assert np.array_equal(commutation_matrix(4) @ vec(A), vec(A.T))


class TestSymmetrization:
    def test_fixes_symmetric(self):
        S = rng.standard_normal((3, 3))
        S = S + S.T
        assert np.allclose(symmetrization_matrix(3) @ vec(S), vec(S), atol=1e-15)

    def test_kills_antisymmetric(self):
        A = rng.standard_normal((3, 3))
        A = A - A.T
        assert np.allclose(symmetrization_matrix(3) @ vec(A), 0.0, atol=1e-15)

    def test_halved_sum(self):
        A = rng.standard_normal((4, 4))
        assert np.allclose(symmetrization_matrix(4) @ vec(A), 0.5 * vec(A + A.T),
                           atol=1e-15)

    def test_commutes_with_kron_square(self):
        A = rng.standard_normal((3, 3))
        M = symmetrization_matrix(3)
        AA = kron(A, A)
        assert np.allclose(M @ AA @ M, M @ AA, atol=1e-12)
        assert np.allclose(M @ AA, AA @ M, atol=1e-12)

    def test_idempotent(self):
        M = symmetrization_matrix(4)
        assert np.allclose(M @ M, M, atol=1e-14)


class TestDuplication:
    def test_p2_example(self):
        D, _ = duplication_matrix(2)
        assert np.array_equal(D @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 2.0, 3.0])

    def test_dd_plus_is_symmetrizer(self):
        D, Dp = duplication_matrix(4)
        assert np.allclose(D @ Dp, symmetrization_matrix(4), atol=1e-14)

    def test_dplus_d_identity(self):
        for p in (2, 3, 5):
            D, Dp = duplication_matrix(p)
            assert np.allclose(Dp @ D, np.eye(p * (p + 1) // 2), atol=1e-14)

    def test_v_round_trip(self):
        A = rng.standard_normal((5, 5))
        A = A + A.T
        D, Dp = duplication_matrix(5)
        assert np.allclose(D @ (Dp @ vec(A)), vec(A), atol=1e-14)

    def test_v_is_subdiagonal_stacking(self):
        A = rng.standard_normal((4, 4))
        A = A + A.T
        _, Dp = duplication_matrix(4)
        manual = [A[i, j] for j in range(4) for i in range(j, 4)]
        assert np.allclose(Dp @ vec(A), manual, atol=1e-15)


class TestSelection:
    def test_single_position(self):
        Q = selection_matrix([1], 2)  # entry (2, 1)
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(Q @ vec(A), [3.0])

    def test_full_lower_triangle_equals_v(self):
        p = 4
        Q = selection_matrix([j * p + i for j in range(p) for i in range(j, p)], p)
        _, Dp = duplication_matrix(p)
        A = rng.standard_normal((p, p))
        A = A + A.T
        assert np.allclose(Q @ vec(A), Dp @ vec(A), atol=1e-15)

    def test_empty(self):
        Q = selection_matrix([], 3)
        assert Q.shape == (0, 9)
        assert (Q @ vec(np.eye(3))).shape == (0,)

    def test_orthonormal_rows(self):
        Z = [0, 1, 6, 11]  # entries (1, 1), (2, 1), (3, 2) and (4, 3)
        Q = selection_matrix(Z, 4)
        assert np.array_equal(Q @ Q.T, np.eye(len(Z)))



class TestPositionSet:
    """The 0-based vec positions ``selection_matrix`` takes: strictly
    increasing in vec(A) order and inside the p x p matrix."""

    def test_rejects_duplicates(self):
        with pytest.raises(DimensionError):
            selection_matrix([1, 1], 3)  # entry (2, 1) twice

    def test_rejects_wrong_order(self):
        with pytest.raises(DimensionError):
            selection_matrix([3, 1], 3)  # entry (1, 2) before (2, 1)

    def test_rejects_out_of_range(self):
        for v in ([9], [-1], [0, 9]):
            with pytest.raises(DimensionError):
                selection_matrix(v, 3)


class TestStructuralIdentitySuite:
    """All structural identities at 1e-12 for p <= 6."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_identities(self, p):
        local = np.random.default_rng(100 + p)
        D, Dp = duplication_matrix(p)
        M = symmetrization_matrix(p)
        K = commutation_matrix(p)
        m = p * (p + 1) // 2
        assert np.allclose(D @ Dp, M, atol=1e-12)
        assert np.allclose(Dp @ D, np.eye(m), atol=1e-12)
        assert np.allclose(K @ K, np.eye(p * p), atol=1e-12)
        assert np.allclose(K.T @ K, np.eye(p * p), atol=1e-12)
        A = local.standard_normal((p, p))
        AA = kron(A, A)
        assert np.allclose(M @ AA @ M, M @ AA, atol=1e-12)
        assert np.allclose(M @ AA, AA @ M, atol=1e-12)
        B = local.standard_normal((p, p))
        assert np.allclose(D @ Dp @ vec(B), 0.5 * vec(B + B.T), atol=1e-12)
