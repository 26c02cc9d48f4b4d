import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lsfa import DataError, ProblemData, SymmetricBasis, eval_f, gaussian_kl
from lsfa.harness import gaussian_nll
from lsfa.symbasis import require_symmetric

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

# every caller of require_symmetric, as a map from a 2 x 2 matrix to what it gives back
_PROBLEM = ProblemData(np.eye(2), C=1.0, mu=1.0)
_CALLERS = {
    "ProblemData": lambda M: ProblemData(M, C=1.0, mu=1.0).sigma_check,
    "mat_to_vec": lambda M: SymmetricBasis(2).mat_to_vec(M),
    "eval_f-L": lambda M: eval_f(M, np.eye(2), _PROBLEM),
    "eval_f-S": lambda M: eval_f(np.eye(2), M, _PROBLEM),
    "gaussian_nll": lambda M: gaussian_nll(np.ones((3, 2)), M),
    "gaussian_kl-p": lambda M: gaussian_kl(M, np.eye(2)),
    "gaussian_kl-q": lambda M: gaussian_kl(np.eye(2), M),
}


@pytest.mark.parametrize("caller", _CALLERS)
@pytest.mark.parametrize("M", [
    # 1e-10 relative: a Frobenius norm of it overflows and passes any asymmetry
    [[1e160, 1e150], [0.0, 1e160]],
    # potrf reads only the lower triangle, and would factor diag(2)
    [[2.0, 5.0], [0.0, 2.0]],
], ids=["huge", "upper-only"])
def test_every_caller_rejects_an_asymmetric_matrix_without_a_warning(caller, M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="not symmetric"):
            _CALLERS[caller](np.array(M))


@pytest.mark.parametrize("caller", _CALLERS)
def test_every_caller_reads_the_symmetric_part_of_a_nearly_symmetric_matrix(caller):
    M = np.array([[2.0, 0.5 * (1 + 1e-14)], [0.5, 2.0]])
    symmetric = require_symmetric(M, "M")
    assert symmetric[0, 1] == symmetric[1, 0] == 0.5 * (M[0, 1] + M[1, 0])
    np.testing.assert_array_equal(_CALLERS[caller](M), _CALLERS[caller](symmetric))


def test_an_exactly_symmetric_matrix_comes_back_bit_for_bit():
    # M + M^T would overflow on the diagonal and lose the subnormal's bit
    M = np.array([[1.5e308, 5e-324], [5e-324, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = require_symmetric(M, "M")
    assert got.tobytes() == M.tobytes()


def test_the_symmetric_part_of_a_huge_nearly_symmetric_matrix_is_finite():
    M = np.array([[1.7e308, 1e308], [1e308 * (1 + 1e-13), 1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = require_symmetric(M, "M")
    assert got[0, 1] == got[1, 0] == 0.5 * M[0, 1] + 0.5 * M[1, 0]
    np.testing.assert_array_equal(got.diagonal(), M.diagonal())


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
