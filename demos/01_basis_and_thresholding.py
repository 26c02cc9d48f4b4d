"""Coordinates for symmetric matrices, and the hard-thresholding prox.

Walks through the two primitives everything else is built on: the
orthonormal basis that turns p x p symmetric matrices into length-p(p+1)/2
coordinate vectors without distorting norms, and the closed-form proximal
operator of the l0 penalty.
"""

import numpy as np

from lsfa import SymmetricBasis, prox_l0_vec

np.set_printoptions(precision=4, suppress=True)

# --- the basis for p = 2: two unit diagonal matrices and one scaled pair ---
basis = SymmetricBasis(2)
print("basis elements for p = 2:")
for a in range(basis.m):
    print(basis.element(a), "\n")

# coordinates of a symmetric matrix: diagonal entries pass through, an
# off-diagonal entry x becomes sqrt(2) * x
S = np.array([[2.0, -1.0], [-1.0, 0.5]])
v = basis.mat_to_vec(S)
print("matrix:\n", S)
print("coordinates:", v)
print("reconstruction error:", np.abs(basis.vec_to_mat(v) - S).max())
print("Frobenius norm", np.linalg.norm(S), "== coordinate norm", np.linalg.norm(v))

# --- hard thresholding: keep what is loud, zero what is quiet ---
gamma, C = 0.5, 1.0
x = np.array([0.2, -0.8, 1.01, -3.0, 0.999, 1.0])
print("\nthreshold sqrt(2*gamma*C) =", np.sqrt(2 * gamma * C))
print("input: ", x)
print("output:", prox_l0_vec(x, gamma, C), " (ties at the threshold go to zero)")
