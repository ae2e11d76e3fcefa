#!/usr/bin/env python3
"""Tour of the matrix kernels: thin QR, top-k eigenbasis, subspace distance.

Run:  python3 demos/01_matrix_kernels.py
"""

import numpy as np

from srpfl import principal_angle_dist, rank_k_eig, thin_qr

rng = np.random.default_rng(0)

print("== thin QR with a positive-diagonal sign convention ==")
a = rng.standard_normal((5, 3))
q, r = thin_qr(a)
print(f"reconstruction error  : {np.linalg.norm(q @ r - a):.2e}")
print(f"orthonormality error  : {np.linalg.norm(q.T @ q - np.eye(3)):.2e}")
print(f"diag(r) (all positive): {np.round(np.diag(r), 4)}")

print("\n== top-k eigenbasis of a symmetric matrix ==")
m = rng.standard_normal((6, 6))
s = m + m.T
basis = rank_k_eig(s, 2)
full_vals, full_vecs = np.linalg.eigh(s)
oracle = full_vecs[:, np.argsort(full_vals)[::-1][:2]]
print(f"distance to full-decomposition oracle: {principal_angle_dist(basis, oracle):.2e}")
print(f"scale invariance (s vs 1000 s)       : "
      f"{principal_angle_dist(basis, rank_k_eig(1000 * s, 2)):.2e}")

print("\n== principal-angle distance ==")
theta = np.pi / 6
line_a = np.array([[1.0], [0.0]])
line_b = np.array([[np.cos(theta)], [np.sin(theta)]])
print(f"lines at 30 degrees: dist = {principal_angle_dist(line_a, line_b):.6f} (sin 30 = 0.5)")
b1, _ = thin_qr(rng.standard_normal((8, 2)))
b2, _ = thin_qr(rng.standard_normal((8, 2)))
rot, _ = thin_qr(rng.standard_normal((2, 2)))
print(f"random 2-planes in R^8: dist = {principal_angle_dist(b1, b2):.4f}")
print(f"rotation invariance gap: "
      f"{abs(principal_angle_dist(b1 @ rot, b2) - principal_angle_dist(b1, b2)):.2e}")
