"""Dense matrix kernels used everywhere else in the package.

Thin QR with a fixed sign convention, a basis of the sum of two spans,
top-k symmetric eigenbasis, and the principal-angle distance between
equal-rank subspaces.  Everything operates on plain
float ndarrays; matrices are row-major ``(rows, cols)`` arrays and an
"orthonormal basis" is a ``d x k`` array ``b`` with ``b.T @ b = I_k`` up
to :data:`ORTHO_TOL`.
"""

import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenGapDegenerateWarning,
    NonFinite,
    NotSymmetric,
    RankDeficient,
)

ORTHO_TOL = 1e-10
RANK_TOL = 1e-12
SYMMETRY_TOL = 1e-10
EIGEN_GAP_TOL = 1e-12


def is_orthonormal(b):
    """True when ``b.T @ b`` equals the identity within :data:`ORTHO_TOL` (Frobenius)."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        return False
    k = b.shape[1]
    return float(np.linalg.norm(b.T @ b - np.eye(k))) <= ORTHO_TOL


def thin_qr(a):
    """Reduced QR factorization ``a = q @ r`` with a positive diagonal on ``r``.

    Parameters
    ----------
    a : (d, k) array with d >= k, full column rank.

    Returns
    -------
    q : (d, k) array with orthonormal columns.
    r : (k, k) upper-triangular array, strictly positive diagonal.

    Raises
    ------
    NonFinite
        If ``r`` is not finite: ``a`` is not, or its column norms overflow.
    RankDeficient
        If ``sigma_min(a) <= RANK_TOL * sigma_max(a)``, i.e. the columns
        have numerically collapsed.  The singular values are taken from
        the k x k factor ``r``, which shares them with ``a``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"thin_qr expects a tall d x k matrix, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    if not np.isfinite(r).all():
        raise NonFinite("QR factor is not finite: the input is not, or its column norms overflow")
    sv = np.linalg.svd(r, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficient(
            f"column rank collapsed: sigma_min={sv[-1]:.3e} vs sigma_max={sv[0]:.3e}"
        )
    # positive-diagonal convention so repeated runs are bit-identical
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, signs[:, None] * r


def span_basis(fixed, moving):
    """Orthonormal basis of ``span(fixed) + span(moving)``.

    ``fixed`` is a d x k orthonormal basis, ``moving`` a d x j matrix;
    returns ``q`` of shape d x min(d, k + j).  The first k columns come
    from ``fixed``; the rest span the part of ``moving`` outside it and
    are aligned with the left singular vectors of that part, so
    replacing ``moving`` by ``moving @ r`` for an orthogonal j x j ``r``
    leaves ``q`` unchanged up to rounding.  Each column's largest-
    magnitude entry is positive.  Built from a Householder QR, so ``q``
    stays orthonormal to machine precision when ``moving`` nearly lies
    in ``span(fixed)``.
    """
    k = fixed.shape[1]
    q, r = np.linalg.qr(np.hstack([fixed, moving]))
    rest = np.linalg.svd(r[k:, k:], full_matrices=False)[0]
    q = np.hstack([q[:, :k], q[:, k:] @ rest])
    peaks = np.abs(q).argmax(axis=0)
    return q * np.sign(q[peaks, np.arange(q.shape[1])])


def rank_k_eig(s, k):
    """Orthonormal basis of the top-k eigenspace of a symmetric matrix.

    Columns are ordered by descending eigenvalue.  The span is invariant
    to positive rescaling of ``s``.  When the eigengap between the k-th
    and (k+1)-th eigenvalues falls below :data:`EIGEN_GAP_TOL`, an
    :class:`EigenGapDegenerateWarning` is issued (the returned span is
    then not unique) but a basis is still returned.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {s.shape}")
    d = s.shape[0]
    if not 1 <= k <= d:
        raise DimensionMismatch(f"k={k} outside 1..{d}")
    asym = float(np.linalg.norm(s - s.T))
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"||s - s.T||_F = {asym:.3e} exceeds {SYMMETRY_TOL}")
    vals, vecs = np.linalg.eigh(0.5 * (s + s.T))
    if k < d and vals[d - k] - vals[d - k - 1] <= EIGEN_GAP_TOL:
        warnings.warn(
            f"eigengap between ranks {k} and {k + 1} is degenerate "
            f"({vals[d - k]:.6e} vs {vals[d - k - 1]:.6e}); span is not unique",
            EigenGapDegenerateWarning,
            stacklevel=2,
        )
    return vecs[:, ::-1][:, :k]


def principal_angle_dist(b1, b2):
    """Principal-angle distance between the column spans of two orthonormal bases.

    Computed as ``||(I - b1 b1^T) b2||_2``, the largest singular value
    of the residual (one ``np.linalg.svd`` call), which is the sine of
    the largest principal angle: 0 iff the spans coincide, 1 iff some
    direction of ``b2`` is orthogonal to ``span(b1)``.  Both inputs must be d x k with
    orthonormal columns; for equal k the value is symmetric in its
    arguments and invariant to right-multiplication by any orthogonal
    k x k matrix.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape != b2.shape:
        raise DimensionMismatch(f"basis shapes differ: {b1.shape} vs {b2.shape}")
    resid = b2 - b1 @ (b1.T @ b2)
    return min(1.0, float(np.linalg.svd(resid, compute_uv=False)[0]))
