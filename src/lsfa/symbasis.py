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
are single gathers.  The matrices of the congruence X -> A X A^T (sym_kron)
and of the weighted map X -> W (D o W^T X W) W^T (pair_gram_block, o the
entrywise product) are formed entry by entry from gathers, a block of rows
at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_SQRT2 = np.sqrt(2.0)
# Rows of sym_kron formed per pass.  At p = 40 each gathered factor of a block
# is ~0.2 MB, so the four stay in L2 cache; forming whole factors at once was
# twice as slow, mostly in page faults on fresh multi-megabyte temporaries.
_ROW_BLOCK = 32


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
    """

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise ValueError(f"matrix dimension must be an integer, got {p!r}")
        if p < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {p}")
        self.p = int(p)
        self.m = self.p * (self.p + 1) // 2
        rows, cols = np.triu_indices(self.p)
        self.rows = rows
        self.cols = cols
        self.off_diag = rows != cols
        # <S, E_a> picks up both mirrored entries of an off-diagonal pair.
        self._vec_scale = np.where(self.off_diag, _SQRT2, 1.0)
        coords = np.arange(self.m)
        self.pair_index = np.empty((self.p, self.p), dtype=np.intp)
        self.pair_index[rows, cols] = coords
        self.pair_index[cols, rows] = coords
        self._upper_flat = rows * self.p + cols

    def mat_to_vec(self, S: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
        """Coordinates of a symmetric matrix: s_a = <S, E_a>.

        Diagonal entries map unchanged; an off-diagonal entry S_ij maps to
        sqrt(2) * S_ij.  Asymmetric input (beyond `rtol` relative to ||S||_F)
        is rejected rather than silently symmetrized.
        """
        S = np.asarray(S, dtype=float)
        if S.shape != (self.p, self.p):
            raise ValueError(f"expected a {self.p}x{self.p} matrix, got shape {S.shape}")
        asym = np.linalg.norm(S - S.T)
        if asym > rtol * np.linalg.norm(S):
            raise ValueError(
                f"matrix is not symmetric: ||S - S.T||_F = {asym:.3e} exceeds "
                f"the relative tolerance {rtol:g}"
            )
        return S.take(self._upper_flat) * self._vec_scale

    def vec_to_mat(self, v: np.ndarray) -> np.ndarray:
        """Matrix sum_a v_a E_a; exact inverse of :meth:`mat_to_vec`."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"expected a coordinate vector of length {self.m}, got shape {v.shape}")
        return (v / self._vec_scale).take(self.pair_index)

    def element(self, a: int) -> np.ndarray:
        """The a-th basis matrix E_a."""
        e = np.zeros(self.m)
        e[a] = 1.0
        return self.vec_to_mat(e)

    def elements(self) -> np.ndarray:
        """All basis matrices stacked as an (m, p, p) array."""
        return np.stack([self.element(a) for a in range(self.m)])

    def sym_kron(
        self, A: np.ndarray, rows: np.ndarray | None = None, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """Matrix of the congruence map X -> A X A^T in this basis.

        Returns the m x m matrix G with G[a, b] = tr(E_a A E_b A^T) (for a
        symmetric A, the symmetric Kronecker product of A with itself), or
        only its block G[rows][:, cols] when `rows` or `cols` is given.
        Writing E_a = c_a (e_i e_j^T + e_j e_i^T) with c_a = 1/2 on the
        diagonal and 1/sqrt(2) off it, the trace expands to

            G[a, b] = 2 c_a c_b (A[i_a, i_b] A[j_a, j_b] + A[i_a, j_b] A[j_a, i_b]),

        O(m^2) work.  The factors are gathered from the rows i_a and j_a of A
        a block of rows at a time, so the temporaries stay in cache and only
        the result is a fresh large array; an entry of a block equals that
        entry of the full matrix.
        """
        A = np.asarray(A, dtype=float)
        i, j, c = self.rows, self.cols, self._coord_scale
        ia, ja, ca = (i, j, c) if rows is None else (i[rows], j[rows], c[rows])
        ib, jb, cb = (i, j, c) if cols is None else (i[cols], j[cols], c[cols])
        G = np.empty((len(ia), len(ib)))
        for lo in range(0, len(ia), _ROW_BLOCK):
            blk = slice(lo, lo + _ROW_BLOCK)
            A_i, A_j, g = A[ia[blk]], A[ja[blk]], G[blk]
            np.multiply(A_i.take(ib, axis=1), A_j.take(jb, axis=1), out=g)
            g += A_i.take(jb, axis=1) * A_j.take(ib, axis=1)
            g *= np.multiply.outer(2.0 * ca[blk], cb)
        return G

    def pair_gram_block(
        self, M: np.ndarray, rows: np.ndarray | None = None, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """Block [rows, cols] of the matrix of the map whose pair Gram is M.

        M is an m x m matrix indexed by unordered pairs of {0..p-1} (the
        coordinates q(x, y) of pair_index), of the form M = P D P^T with
        P[q, k] = W[x_q, k] W[y_q, k] for a p x p matrix W and a symmetric
        p x p weight D.  The map is X -> W (D o W^T X W) W^T, with o the
        entrywise product, and its matrix in this basis is

            G[a, b] = sum_kl (W^T E_a W)_kl D_kl (W^T E_b W)_kl
                    = 2 c_a c_b (M[q(i_a, i_b), q(j_a, j_b)] + M[q(i_a, j_b), q(j_a, i_b)]).

        For a rank-one M = v v^T with v_q = A[x_q, y_q] and symmetric A the
        map is X -> A X A, and G is sym_kron(A).  Forming M costs one m x p by p x m product,
        2 m^2 p flops; the block is then two gathers per entry.  Their flat
        indices q(x, y) m + q(x', y') add a row of a p x ncols table indexed
        by x to a row of one indexed by x', a block of rows at a time, so the
        integer temporaries stay in cache.
        """
        M = np.ascontiguousarray(M, dtype=float)
        i, j, c, m = self.rows, self.cols, self._coord_scale, self.m
        ia, ja, ca = (i, j, c) if rows is None else (i[rows], j[rows], c[rows])
        ib, jb, cb = (i, j, c) if cols is None else (i[cols], j[cols], c[cols])
        Q = self.pair_index
        # row x of Qm_i holds q(x, i_b) m over the columns b, and so on
        Qm_i, Qm_j = (Q * m).take(ib, axis=1), (Q * m).take(jb, axis=1)
        Q_i, Q_j = Q.take(ib, axis=1), Q.take(jb, axis=1)
        G = np.empty((len(ia), len(ib)))
        for lo in range(0, len(ia), _ROW_BLOCK):
            blk = slice(lo, lo + _ROW_BLOCK)
            x, y, g = ia[blk], ja[blk], G[blk]
            flat = Qm_i[x]
            flat += Q_j[y]
            M.take(flat, out=g)
            flat = Qm_j[x]
            flat += Q_i[y]
            g += M.take(flat)
            g *= np.multiply.outer(2.0 * ca[blk], cb)
        return G

    @functools.cached_property
    def _coord_scale(self) -> np.ndarray:
        """The factors c_a of E_a = c_a (e_i e_j^T + e_j e_i^T)."""
        return np.where(self.off_diag, 1.0 / _SQRT2, 0.5)


def build_basis(p: int) -> SymmetricBasis:
    """Construct the orthonormal symmetric-matrix basis for dimension p."""
    return SymmetricBasis(p)
