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
at a time; on request only the upper triangle of a square block, the part a
Cholesky factorization reads.
"""

from __future__ import annotations

import functools

import numpy as np

_SQRT2 = np.sqrt(2.0)
# Rows of sym_kron and pair_gram_block formed per pass.  A pass copies whole
# rows of p x ncols tables into temporaries of _ROW_BLOCK x ncols (~0.16 MB
# each at p = 40, ncols ~ 640), which stay in L2 cache, and an upper-triangle
# pass forms at most _ROW_BLOCK^2 / 2 entries below the diagonal only to reset
# them.  Timed on upper triangles of 0.78 m rows: 16 rows took 1.2-1.3x as
# long (per-pass overhead); 64 and 128 were no faster at p = 40 and up to 1.4x
# slower at p = 60.
_ROW_BLOCK = 32
# The entries below the diagonal of a pass's diagonal block.
_BELOW = np.tri(_ROW_BLOCK, k=-1, dtype=bool)


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
        self,
        A: np.ndarray,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
        upper: bool = False,
    ) -> np.ndarray:
        """Matrix of the congruence map X -> A X A^T in this basis.

        Returns the m x m matrix G with G[a, b] = tr(E_a A E_b A^T) (for a
        symmetric A, the symmetric Kronecker product of A with itself), or
        only its block G[rows][:, cols] when `rows` or `cols` is given.  With
        `upper` the block must be square (cols equal to rows), and only its
        upper triangle is formed, with zeros below the diagonal.  Writing
        E_a = c_a (e_i e_j^T + e_j e_i^T) with c_a = 1/2 on the diagonal and
        1/sqrt(2) off it, the trace expands to

            G[a, b] = 2 c_a c_b (A[i_a, i_b] A[j_a, j_b] + A[i_a, j_b] A[j_a, i_b]),

        O(m^2) work.  The columns i_b and j_b of A are taken once, as two
        p x ncols tables; the factors of a block of rows are then whole-row
        copies from them.  An entry of a block or a triangle equals that entry
        of the full matrix.
        """
        A = np.asarray(A, dtype=float)
        (ia, ja, ca), (ib, jb, cb) = self._block_coords(rows, cols, upper)
        A_i, A_j = A.take(ib, axis=1), A.take(jb, axis=1)
        G = np.empty((len(ia), len(ib)))
        for blk, cs in _row_passes(G, upper):
            x, y = ia[blk], ja[blk]
            e = A_i[x, cs] * A_j[y, cs]
            e += A_j[x, cs] * A_i[y, cs]
            np.multiply(e, np.multiply.outer(2.0 * ca[blk], cb[cs]), out=G[blk, cs])
        return G

    def pair_gram_block(
        self,
        M: np.ndarray,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
        upper: bool = False,
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
        integer temporaries stay in cache.  With `upper`, as in sym_kron, only
        the upper triangle of a square block is formed.
        """
        M = np.ascontiguousarray(M, dtype=float)
        (ia, ja, ca), (ib, jb, cb) = self._block_coords(rows, cols, upper)
        Q = self.pair_index
        # row x of Qm_i holds q(x, i_b) m over the columns b, and so on
        Qm_i, Qm_j = (Q * self.m).take(ib, axis=1), (Q * self.m).take(jb, axis=1)
        Q_i, Q_j = Q.take(ib, axis=1), Q.take(jb, axis=1)
        G = np.empty((len(ia), len(ib)))
        for blk, cs in _row_passes(G, upper):
            x, y = ia[blk], ja[blk]
            flat = Qm_i[x, cs]
            flat += Q_j[y, cs]
            e = M.take(flat)
            flat = Qm_j[x, cs]
            flat += Q_i[y, cs]
            e += M.take(flat)
            np.multiply(e, np.multiply.outer(2.0 * ca[blk], cb[cs]), out=G[blk, cs])
        return G

    def _block_coords(self, rows, cols, upper):
        """(i, j, c) of the coordinates indexing the rows, and of the columns, of a block."""
        if upper and not (cols is rows or np.array_equal(rows, cols)):
            raise ValueError("upper needs a square block, with cols equal to rows")
        i, j, c = self.rows, self.cols, self._coord_scale
        return tuple((i, j, c) if idx is None else (i[idx], j[idx], c[idx]) for idx in (rows, cols))

    @functools.cached_property
    def _coord_scale(self) -> np.ndarray:
        """The factors c_a of E_a = c_a (e_i e_j^T + e_j e_i^T)."""
        return np.where(self.off_diag, 1.0 / _SQRT2, 0.5)


def _row_passes(G: np.ndarray, upper: bool):
    """Yield the (rows, columns) slices of G that the caller fills, _ROW_BLOCK rows a pass.

    With `upper`, G is a square block of which only the upper triangle
    (column >= row) is formed, the part a Cholesky factorization reads: each
    pass starts its columns at its first row, and once the caller has filled
    them, the pass's entries left of its diagonal are set to zero.
    """
    for lo in range(0, G.shape[0], _ROW_BLOCK):
        blk = slice(lo, lo + _ROW_BLOCK)
        yield blk, slice(lo if upper else 0, None)
        if upper:
            G[blk, :lo] = 0.0
            diag = G[blk, blk]
            diag[_BELOW[: len(diag), : len(diag)]] = 0.0


def build_basis(p: int) -> SymmetricBasis:
    """Construct the orthonormal symmetric-matrix basis for dimension p."""
    return SymmetricBasis(p)
