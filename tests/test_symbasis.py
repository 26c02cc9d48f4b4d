import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import build_basis

SQRT2 = np.sqrt(2.0)


def test_p2_elements_match_reference():
    basis = build_basis(2)
    expected = [
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]) / SQRT2,
        np.array([[0.0, 0.0], [0.0, 1.0]]),
    ]
    assert basis.m == 3
    for a, E in enumerate(expected):
        assert_allclose(basis.element(a), E, atol=1e-15)


def test_p1_single_unit_element():
    basis = build_basis(1)
    assert basis.m == 1
    assert_allclose(basis.element(0), np.array([[1.0]]))


def test_p4_gram_matrix_is_identity():
    # oracle: all pairwise trace inner products computed directly
    basis = build_basis(4)
    E = basis.elements()
    assert E.shape == (10, 4, 4)
    gram = np.einsum("aij,bji->ab", E, E)
    assert_allclose(gram, np.eye(10), atol=1e-14)


@pytest.mark.parametrize("p", range(1, 13))
def test_orthonormality_all_small_dimensions(p):
    basis = build_basis(p)
    E = basis.elements()
    gram = np.einsum("aij,bji->ab", E, E)
    assert np.abs(gram - np.eye(basis.m)).max() < 1e-14


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
def test_invalid_dimension_rejected(bad):
    with pytest.raises(ValueError):
        build_basis(bad)


def test_vec_identity_p2():
    basis = build_basis(2)
    assert_allclose(basis.mat_to_vec(np.eye(2)), [1.0, 0.0, 1.0])


def test_vec_off_diagonal_scaling():
    basis = build_basis(2)
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(basis.mat_to_vec(S), [0.0, SQRT2, 0.0])


def test_vec_rejects_asymmetric_input():
    basis = build_basis(3)
    S = np.arange(9, dtype=float).reshape(3, 3)
    with pytest.raises(ValueError, match="symmetric"):
        basis.mat_to_vec(S)


def test_vec_rejects_wrong_shape():
    basis = build_basis(3)
    with pytest.raises(ValueError, match="3x3"):
        basis.mat_to_vec(np.eye(4))


def test_mat_zero_and_identity():
    basis = build_basis(2)
    assert_allclose(basis.vec_to_mat(np.zeros(3)), np.zeros((2, 2)))
    assert_allclose(basis.vec_to_mat(np.array([1.0, 0.0, 1.0])), np.eye(2))


def test_mat_rejects_wrong_length():
    basis = build_basis(3)
    with pytest.raises(ValueError, match="length"):
        basis.vec_to_mat(np.zeros(5))


def test_round_trips_and_isometry():
    rng = np.random.default_rng(0)
    basis = build_basis(6)
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
    basis = build_basis(5)
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
    basis = build_basis(p)
    A = rng.standard_normal((p, p))
    A = A @ A.T + np.eye(p)
    E = basis.elements()
    brute = np.array(
        [[np.trace(E[a] @ A @ E[b] @ A) for b in range(basis.m)] for a in range(basis.m)]
    )
    assert_allclose(basis.sym_kron(A), brute, atol=1e-12)
    rows = np.arange(0, basis.m, 2)
    np.testing.assert_array_equal(basis.sym_kron(A, rows=rows), basis.sym_kron(A)[rows])
    cols = np.arange(1, basis.m, 3)
    np.testing.assert_array_equal(basis.sym_kron(A, rows=rows, cols=cols),
                                  basis.sym_kron(A)[np.ix_(rows, cols)])


@pytest.mark.parametrize("p", [2, 3, 5, 9])
def test_sym_kron_nonsymmetric_matches_bruteforce(p):
    # G[a, b] = tr(E_a A E_b A^T), the matrix of X -> A X A^T; at p = 9 the
    # m = 45 rows are formed in more than one block
    rng = np.random.default_rng(10 + p)
    basis = build_basis(p)
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
    assert_allclose(basis.sym_kron(A, rows=rows, cols=rows), brute[np.ix_(rows, rows)], atol=1e-12)


@pytest.mark.parametrize("p", [2, 5, 9])
def test_pair_gram_block_of_rank_one_gram_is_sym_kron(p):
    # M = a a^T with a_q = A[x_q, y_q]; at p = 9 the m = 45 rows are gathered
    # in two passes
    rng = np.random.default_rng(20 + p)
    basis = build_basis(p)
    A = rng.standard_normal((p, p))
    A = A + A.T
    a = A[basis.rows, basis.cols]
    M = np.outer(a, a)
    G = basis.sym_kron(A)
    scale = np.abs(G).max()
    assert np.abs(basis.pair_gram_block(M) - G).max() <= 1e-14 * scale
    rows = np.arange(1, basis.m, 2)
    cols = np.arange(0, basis.m, 3)
    block = basis.pair_gram_block(M, rows=rows, cols=cols)
    assert np.abs(block - G[np.ix_(rows, cols)]).max() <= 1e-14 * scale


@pytest.mark.parametrize("p", [3, 9])
def test_pair_gram_block_matches_bruteforce_weighted_congruence(p):
    # M = P delta P^T with P[q, k] = W[x_q, k] W[y_q, k] gathers the matrix
    # Phi diag(delta) Phi^T, Phi the matrix of Z -> W Z W^T
    rng = np.random.default_rng(30 + p)
    basis = build_basis(p)
    W = rng.standard_normal((p, p))
    delta = rng.uniform(0.1, 2.0, (p, p))
    delta = delta + delta.T
    E = basis.elements()
    Phi = np.array([[np.trace(E[a] @ W @ E[b] @ W.T) for b in range(basis.m)]
                    for a in range(basis.m)])
    T = np.union1d(np.flatnonzero(~basis.off_diag), np.arange(0, basis.m, 2))
    brute = Phi[T] @ np.diag(delta[basis.rows, basis.cols]) @ Phi[T].T
    P = W[basis.rows] * W[basis.cols]
    block = basis.pair_gram_block((P @ delta) @ P.T, rows=T, cols=T)
    assert_allclose(block, brute, rtol=0, atol=1e-13 * np.abs(brute).max())


def test_vec_of_transposed_view_equals_contiguous_copy():
    rng = np.random.default_rng(5)
    basis = build_basis(7)
    M = rng.standard_normal((7, 7))
    # asymmetric within the tolerance, so the view's upper triangle is not the
    # upper triangle of the array it views
    S = M + M.T + 1e-14 * rng.standard_normal((7, 7))
    view = S.T
    assert not np.array_equal(view, S)
    assert not view.flags.c_contiguous
    np.testing.assert_array_equal(basis.mat_to_vec(view), basis.mat_to_vec(np.ascontiguousarray(view)))
    strided = S[::2, ::2]
    np.testing.assert_array_equal(build_basis(4).mat_to_vec(strided),
                                  build_basis(4).mat_to_vec(np.ascontiguousarray(strided)))
