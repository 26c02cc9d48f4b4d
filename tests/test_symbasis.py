import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import SymmetricBasis

SQRT2 = np.sqrt(2.0)


def test_p2_elements_match_reference():
    basis = SymmetricBasis(2)
    expected = [
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]) / SQRT2,
        np.array([[0.0, 0.0], [0.0, 1.0]]),
    ]
    assert basis.m == 3
    for a, E in enumerate(expected):
        assert_allclose(basis.element(a), E, atol=1e-15)


def test_p1_single_unit_element():
    basis = SymmetricBasis(1)
    assert basis.m == 1
    assert_allclose(basis.element(0), np.array([[1.0]]))


def test_p4_gram_matrix_is_identity():
    # oracle: all pairwise trace inner products computed directly
    basis = SymmetricBasis(4)
    E = basis.elements()
    assert E.shape == (10, 4, 4)
    gram = np.einsum("aij,bji->ab", E, E)
    assert_allclose(gram, np.eye(10), atol=1e-14)


@pytest.mark.parametrize("p", range(1, 13))
def test_orthonormality_all_small_dimensions(p):
    basis = SymmetricBasis(p)
    E = basis.elements()
    gram = np.einsum("aij,bji->ab", E, E)
    assert np.abs(gram - np.eye(basis.m)).max() < 1e-14


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
def test_invalid_dimension_rejected(bad):
    with pytest.raises(ValueError):
        SymmetricBasis(bad)


def test_vec_identity_p2():
    basis = SymmetricBasis(2)
    assert_allclose(basis.mat_to_vec(np.eye(2)), [1.0, 0.0, 1.0])


def test_vec_off_diagonal_scaling():
    basis = SymmetricBasis(2)
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(basis.mat_to_vec(S), [0.0, SQRT2, 0.0])


def test_vec_rejects_asymmetric_input():
    basis = SymmetricBasis(3)
    S = np.arange(9, dtype=float).reshape(3, 3)
    with pytest.raises(ValueError, match="symmetric"):
        basis.mat_to_vec(S)


@pytest.mark.parametrize("upper, lower", [(np.nan, 5.0), (np.inf, -np.inf), (np.inf, 5.0)])
def test_vec_rejects_unequal_non_finite_mirrored_pairs(upper, lower):
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricBasis(2).mat_to_vec(np.array([[1.0, upper], [lower, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vec_passes_equal_non_finite_mirrored_pairs(bad):
    # NaN facing NaN counts as equal: the factorization rejects such a matrix
    v = SymmetricBasis(2).mat_to_vec(np.array([[1.0, bad], [bad, 1.0]]))
    np.testing.assert_array_equal(v, [1.0, SQRT2 * bad, 1.0])

def test_vec_rejects_wrong_shape():
    basis = SymmetricBasis(3)
    with pytest.raises(ValueError, match="3x3"):
        basis.mat_to_vec(np.eye(4))


def test_mat_zero_and_identity():
    basis = SymmetricBasis(2)
    assert_allclose(basis.vec_to_mat(np.zeros(3)), np.zeros((2, 2)))
    assert_allclose(basis.vec_to_mat(np.array([1.0, 0.0, 1.0])), np.eye(2))


def test_mat_rejects_wrong_length():
    basis = SymmetricBasis(3)
    with pytest.raises(ValueError, match="length"):
        basis.vec_to_mat(np.zeros(5))


def test_round_trips_and_isometry():
    rng = np.random.default_rng(0)
    basis = SymmetricBasis(6)
    for _ in range(100):
        M = rng.standard_normal((6, 6))
        S = M + M.T
        v = basis.mat_to_vec(S)
        assert np.abs(basis.vec_to_mat(v) - S).max() < 1e-12
        assert abs(np.linalg.norm(v) - np.linalg.norm(S)) < 1e-12
        w = rng.standard_normal(basis.m)
        assert np.abs(basis.mat_to_vec(basis.vec_to_mat(w)) - w).max() < 1e-12
        assert abs(np.linalg.norm(basis.vec_to_mat(w)) - np.linalg.norm(w)) < 1e-12


def test_inner_product_preservation():
    rng = np.random.default_rng(1)
    basis = SymmetricBasis(5)
    for _ in range(50):
        U = rng.standard_normal((5, 5))
        V = rng.standard_normal((5, 5))
        U, V = U + U.T, V + V.T
        matrix_ip = float(np.trace(U @ V))
        vec_ip = float(basis.mat_to_vec(U) @ basis.mat_to_vec(V))
        assert abs(matrix_ip - vec_ip) < 1e-12 * max(1.0, abs(matrix_ip))


@pytest.mark.parametrize("p", [2, 3, 5, 9])
def test_sym_kron_matches_bruteforce(p):
    rng = np.random.default_rng(p)
    basis = SymmetricBasis(p)
    A = rng.standard_normal((p, p))
    A = A @ A.T + np.eye(p)
    E = basis.elements()
    brute = np.array(
        [[np.trace(E[a] @ A @ E[b] @ A) for b in range(basis.m)] for a in range(basis.m)]
    )
    assert_allclose(basis.sym_kron(A), brute, atol=1e-12)
    rows = np.arange(0, basis.m, 2)
    np.testing.assert_array_equal(basis.sym_kron(A, rows=rows), basis.sym_kron(A)[rows])
    rows = np.arange(1, basis.m, 3)[::-1]
    np.testing.assert_array_equal(basis.sym_kron(A, rows=rows), basis.sym_kron(A)[rows])


@pytest.mark.parametrize("p", [2, 3, 5, 9])
def test_sym_kron_nonsymmetric_matches_bruteforce(p):
    # G[a, b] = tr(E_a A E_b A^T), the matrix of X -> A X A^T; at p = 9 the
    # m = 45 rows are formed in more than one block
    rng = np.random.default_rng(10 + p)
    basis = SymmetricBasis(p)
    A = rng.standard_normal((p, p))
    E = basis.elements()
    brute = np.array(
        [[np.trace(E[a] @ A @ E[b] @ A.T) for b in range(basis.m)] for a in range(basis.m)]
    )
    assert_allclose(basis.sym_kron(A), brute, atol=1e-12)
    X = rng.standard_normal((p, p))
    X = X + X.T
    assert_allclose(basis.sym_kron(A) @ basis.mat_to_vec(X), basis.mat_to_vec(A @ X @ A.T),
                    atol=1e-12)
    rows = np.arange(1, basis.m, 2)
    assert_allclose(basis.sym_kron(A, rows=rows), brute[rows], atol=1e-12)


def test_vec_of_transposed_view_equals_contiguous_copy():
    rng = np.random.default_rng(5)
    basis = SymmetricBasis(7)
    M = rng.standard_normal((7, 7))
    # asymmetric within the tolerance, so the view's upper triangle is not the
    # upper triangle of the array it views
    S = M + M.T + 1e-14 * rng.standard_normal((7, 7))
    view = S.T
    assert not np.array_equal(view, S)
    assert not view.flags.c_contiguous
    np.testing.assert_array_equal(basis.mat_to_vec(view), basis.mat_to_vec(np.ascontiguousarray(view)))
    strided = S[::2, ::2]
    np.testing.assert_array_equal(SymmetricBasis(4).mat_to_vec(strided),
                                  SymmetricBasis(4).mat_to_vec(np.ascontiguousarray(strided)))


@pytest.mark.parametrize("p", [1, 2, 7])
def test_symmetric_part_gather_is_mat_to_vec_bit_for_bit(p):
    rng = np.random.default_rng(6)
    basis = SymmetricBasis(p)
    M = rng.standard_normal((p, p))
    # any array: the coordinates of its symmetric part, also read through a view
    np.testing.assert_array_equal(basis.sym_part_to_vec(M), basis.mat_to_vec(0.5 * (M + M.T)))
    np.testing.assert_array_equal(basis.sym_part_to_vec(M.T), basis.mat_to_vec(0.5 * (M + M.T)))
    # an exactly symmetric matrix: its own coordinates
    S = M + M.T
    np.testing.assert_array_equal(basis.sym_part_to_vec(S), basis.mat_to_vec(S))
