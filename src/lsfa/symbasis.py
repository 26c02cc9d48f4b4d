"""Orthonormal basis of the symmetric matrices and the coordinate maps.

A p x p symmetric matrix is identified with a coordinate vector of length
m = p(p+1)/2 relative to an orthonormal basis under the trace inner product
<U, V> = tr(UV).  Diagonal positions carry single-entry unit matrices; each
off-diagonal pair (i, j), i < j, carries 1/sqrt(2) in the two mirrored
positions, the unique scaling that makes the family orthonormal.  The map is
then an isometry: ||vec(S)||_2 = ||S||_F for every symmetric S.

Coordinates enumerate the upper triangle in row-major order, so for p = 2
the basis is [[1,0],[0,0]], (1/sqrt 2)[[0,1],[1,0]], [[0,0],[0,1]].  A p x p
table holds the coordinate of every position (the pair index), so both maps
are single gathers; so is the map from any square array to the coordinates
of its symmetric part (sym_part_to_vec).  require_symmetric is lsfa's one
rule for what a caller's symmetric matrix is.  The matrix of the congruence
X -> A X A^T (sym_kron), or some of its rows, is formed entry by entry
from gathers, a block of rows at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DataError, require_count

_SQRT2 = np.sqrt(2.0)
# Rows of sym_kron formed per pass.  A pass copies whole rows of p x m
# tables into temporaries of _ROW_BLOCK x m (~0.2 MB each at p = 40,
# m = 820), which stay in L2 cache.  Timed on square blocks of 0.78 m
# rows, 1 BLAS thread, against 32 rows a pass: 16 took 1.06-1.3x as long at
# p = 20-60 (per-pass overhead), 64 took 0.8-0.86x at p = 20 and 40 but 1.1x
# at p = 60, and 128 took 0.94-2x.
_ROW_BLOCK = 32


def require_symmetric(M, what: str) -> np.ndarray:
    """The symmetric part 0.5 (M + M^T) of a caller's square matrix M.

    lsfa's one rule for a symmetric matrix, applied once to every matrix a
    caller hands it (a covariance, a start, a fitted model).  M is symmetric
    when the largest |M_ij - M_ji| over its unequal mirrored pairs is at
    most 1e-12 times its largest |M_ij|, a scale-free test that overflows
    nowhere.  Equal pairs, infinities and NaN facing NaN too, are never
    subtracted; an unequal pair with a NaN or an infinity in it is not
    symmetric.  Non-finite entries that pass are left to the caller's own
    checks.

    The symmetric part is returned, bit for bit M itself when M is exactly
    symmetric, because lsfa reads both triangles of one matrix: potrf
    factors the lower one and the coordinate gathers take the upper one.

    Raises:
        DataError: naming `what`, when M is not square or not symmetric.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DataError(f"{what} must be a square matrix, got shape {M.shape}")
    unequal = (M != M.T) & ~(np.isnan(M) & np.isnan(M.T))
    if not unequal.any():
        return M
    # finite entries of opposite signs may differ by more than the largest
    # float: that difference is inf, and rejected as such
    with np.errstate(over="ignore"):
        asym = np.abs(M[unequal] - M.T[unequal]).max()
    # at max |M_ij| = inf the tolerance alone would pass inf facing -inf
    if not np.isfinite(asym) or asym > 1e-12 * np.abs(M).max():
        raise DataError(
            f"{what} is not symmetric: max |M_ij - M_ji| = {asym:.3e} exceeds "
            "1e-12 times max |M_ij|")
    # each unequal pair by its mean, halved before the sum so that it cannot
    # overflow; equal pairs keep their bits
    return np.where(unequal, 0.5 * M + 0.5 * M.T, M)


class SymmetricBasis:
    """Orthonormal basis E_1..E_m of the p x p symmetric matrices.

    Attributes:
        p: matrix dimension.
        m: coordinate dimension, p(p+1)/2.
        rows, cols: upper-triangle index pairs in row-major order; coordinate
            a lives at positions (rows[a], cols[a]) and (cols[a], rows[a]).
        off_diag: boolean mask of the off-diagonal coordinates.
        pair_index: p x p table of coordinates, pair_index[x, y] = q(x, y)
            the coordinate of the unordered pair {x, y}.
        upper_flat, lower_flat: flat positions in a p x p array of
            (rows[a], cols[a]) and (cols[a], rows[a]).
        vec_scale: the factors s_a = <S, E_a> / S[rows[a], cols[a]] of a
            symmetric S, sqrt(2) off the diagonal and 1 on it.
        identity_vec: the coordinates of the identity, 1 on the diagonal
            and 0 off it.
    """

    def __init__(self, p: int):
        require_count(p=p)
        self.p = int(p)
        self.m = self.p * (self.p + 1) // 2
        rows, cols = np.triu_indices(self.p)
        self.rows = rows
        self.cols = cols
        self.off_diag = rows != cols
        # <S, E_a> picks up both mirrored entries of an off-diagonal pair.
        self.vec_scale = np.where(self.off_diag, _SQRT2, 1.0)
        self.identity_vec = np.where(self.off_diag, 0.0, 1.0)
        coords = np.arange(self.m)
        self.pair_index = np.empty((self.p, self.p), dtype=np.intp)
        self.pair_index[rows, cols] = coords
        self.pair_index[cols, rows] = coords
        self.upper_flat = rows * self.p + cols
        self.lower_flat = cols * self.p + rows

    def mat_to_vec(self, S: np.ndarray) -> np.ndarray:
        """Coordinates of a symmetric matrix: s_a = <S, E_a>.

        Diagonal entries map unchanged; an off-diagonal entry S_ij maps to
        sqrt(2) * S_ij.  S must be p x p (else ValueError) and symmetric by
        require_symmetric's rule (else DataError); the coordinates are those
        of the symmetric part it returns.
        """
        S = np.asarray(S, dtype=float)
        if S.shape != (self.p, self.p):
            raise ValueError(f"expected a {self.p}x{self.p} matrix, got shape {S.shape}")
        return require_symmetric(S, "matrix").take(self.upper_flat) * self.vec_scale

    def sym_part_to_vec(self, M: np.ndarray) -> np.ndarray:
        """Coordinates of the symmetric part 0.5 (M + M^T) of a p x p array, unchecked.

        One gather of the mirrored pairs, with no symmetry check and no p x p
        copy, for the matrices the solver builds symmetric by construction:
        bit for bit mat_to_vec(0.5 (M + M^T)) on any M, and mat_to_vec(M) on
        an exactly symmetric M, where the mean of the two equal entries is
        exact.  Caller-supplied matrices go through mat_to_vec and its
        require_symmetric check.
        """
        return 0.5 * (M.take(self.upper_flat) + M.take(self.lower_flat)) * self.vec_scale

    def vec_to_mat(self, v: np.ndarray) -> np.ndarray:
        """Matrix sum_a v_a E_a; exact inverse of :meth:`mat_to_vec`."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"expected a coordinate vector of length {self.m}, got shape {v.shape}")
        return (v / self.vec_scale).take(self.pair_index)

    def element(self, a: int) -> np.ndarray:
        """The a-th basis matrix E_a."""
        e = np.zeros(self.m)
        e[a] = 1.0
        return self.vec_to_mat(e)

    def elements(self) -> np.ndarray:
        """All basis matrices stacked as an (m, p, p) array."""
        return np.stack([self.element(a) for a in range(self.m)])

    def sym_kron(self, A: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Matrix of the congruence map X -> A X A^T in this basis.

        Returns the m x m matrix G with G[a, b] = tr(E_a A E_b A^T) (for a
        symmetric A, the symmetric Kronecker product of A with itself), or
        only its rows G[rows] when `rows` is given.  Writing
        E_a = c_a (e_i e_j^T + e_j e_i^T) with c_a = 1/2 on the diagonal and
        1/sqrt(2) off it, the trace expands to

            G[a, b] = 2 c_a c_b (A[i_a, i_b] A[j_a, j_b] + A[i_a, j_b] A[j_a, i_b]),

        O(m^2) work.  The columns i_b and j_b of A are taken once, as two
        p x m tables; the factors of a block of rows are then whole-row
        copies from them.  Each row equals that row of the full matrix.
        """
        A = np.asarray(A, dtype=float)
        ia, ja, ca = self.rows, self.cols, self._coord_scale
        if rows is not None:
            ia, ja, ca = ia[rows], ja[rows], ca[rows]
        A_i, A_j = A.take(self.rows, axis=1), A.take(self.cols, axis=1)
        G = np.empty((len(ia), self.m))
        for lo in range(0, len(ia), _ROW_BLOCK):
            blk = slice(lo, lo + _ROW_BLOCK)
            x, y = ia[blk], ja[blk]
            e = A_i[x] * A_j[y]
            e += A_j[x] * A_i[y]
            np.multiply(e, np.multiply.outer(2.0 * ca[blk], self._coord_scale), out=G[blk])
        return G

    @functools.cached_property
    def _coord_scale(self) -> np.ndarray:
        """The factors c_a of E_a = c_a (e_i e_j^T + e_j e_i^T)."""
        return np.where(self.off_diag, 1.0 / _SQRT2, 0.5)
