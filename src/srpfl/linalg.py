"""Dense matrix kernels used everywhere else in the package.

Thin QR with a fixed sign convention, a basis of the sum of two spans
together with their principal-angle distance, top-k symmetric eigenbasis,
and the principal-angle distance between equal-rank subspaces.  Everything
operates on plain float ndarrays; matrices are row-major ``(rows, cols)``
arrays and an "orthonormal basis" is a ``d x k`` array ``b`` with
``b.T @ b = I_k`` up to :data:`ORTHO_TOL`.
"""

import warnings

import numpy as np

from .errors import EigenGapDegenerateWarning, SrpflError

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
    SrpflError
        If ``a`` is not tall, if ``r`` is not finite (``a`` is not, or its
        column norms overflow), or if ``sigma_min(a) <= RANK_TOL *
        sigma_max(a)``, i.e. the columns have numerically collapsed.  The
        singular values are taken from the k x k factor ``r``, which
        shares them with ``a``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise SrpflError(f"thin_qr expects a tall d x k matrix, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    _checked_svd(r[None])
    # positive-diagonal convention so repeated runs are bit-identical
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, signs[:, None] * r


def _checked_svd(blocks):
    """Left singular vectors and singular values of a stack of matrices whose first is the R factor of a QR.

    One SVD call for the whole stack.  Raises as :func:`thin_qr` does unless
    that factor is finite and its singular values clear :data:`RANK_TOL`.
    """
    if not np.isfinite(blocks[0]).all():
        raise SrpflError("QR factor is not finite: the input is not, or its column norms overflow")
    u, sv, _ = np.linalg.svd(blocks)
    if not sv[0, -1] > RANK_TOL * sv[0, 0]:
        raise SrpflError(f"column rank collapsed: sigma_min={sv[0, -1]:.3e} vs sigma_max={sv[0, 0]:.3e}")
    return u, sv


def span_basis(lead, other):
    """Orthonormal basis of ``span(lead) + span(other)`` that starts with ``lead``, and their distance.

    ``lead`` is any d x k full-rank matrix with d >= k, ``other`` a d x k
    orthonormal basis.  One Householder QR ``[lead, other] = Q R`` does the
    work.  ``R11``, ``lead``'s triangle, gets :func:`thin_qr`'s checks.  The
    left singular vectors of ``R12`` turn ``Q1`` into ``lead``'s principal
    vectors toward ``other``, the first k columns of ``q``.  ``R22``'s singular
    values are the sines of the principal angles, and its left singular
    vectors give the rest of ``q``, largest angle first, so that when d < 2k
    the directions ``other`` shares with ``lead`` are the ones left out.  One
    SVD call takes the three blocks when d >= 2k; below that ``R22`` is not
    square and takes a second.
    Returns ``(q, dist)``: ``q`` is d x min(d, 2k), each column's
    largest-magnitude entry positive, and ``dist = sigma_max(R22)`` (0 when
    d = k) is :func:`principal_angle_dist` up to rounding.  When d >= 2k,
    ``q`` depends on each input only through its span, up to rounding; below
    that, the spans share directions, tied at principal angle 0, whose
    principal vectors are left to rounding.  ``q`` is a product of orthonormal
    factors, so it stays orthonormal when ``other`` nearly lies in
    ``span(lead)``.
    """
    k = lead.shape[1]
    basis, r = np.linalg.qr(np.concatenate([lead, other], axis=1))
    if r.shape[0] == 2 * k:  # d >= 2k: R22 is k x k, and one call takes [R11, R12, R22]
        u, sv = _checked_svd(r.reshape(2, k, 2, k).swapaxes(1, 2)[[0, 0, 1], [0, 1, 1]])
        u_rest, sines = u[2], sv[2]
    else:  # R22 is (d - k) x k, with no rows when d = k: a call of its own
        u, _ = _checked_svd(r[:k].reshape(k, 2, k).swapaxes(0, 1))
        u_rest, sines, _ = np.linalg.svd(r[k:, k:])
    q = np.concatenate([basis[:, :k] @ u[1], basis[:, k:] @ u_rest], axis=1)
    peaks = np.abs(q).argmax(axis=0)
    return q * np.sign(q[peaks, np.arange(q.shape[1])]), min(1.0, float(sines.max(initial=0.0)))


def rank_k_eig(s, k):
    """Orthonormal basis of the top-k eigenspace of a symmetric matrix.

    Columns are ordered by descending eigenvalue.  The span is invariant
    to positive rescaling of ``s``.  Raises :class:`SrpflError` unless
    ``s`` is square and finite, 1 <= k <= d and ``||s - s.T||_F <=
    SYMMETRY_TOL * max(1, ||s||_F)``, a bound that grows with ``s`` as its
    rounding does.
    An eigengap between the k-th and (k+1)-th eigenvalues at or below
    :data:`EIGEN_GAP_TOL` issues an :class:`EigenGapDegenerateWarning`
    (the span is then not unique), and a basis is still returned.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise SrpflError(f"expected a square matrix, got shape {s.shape}")
    d = s.shape[0]
    if not 1 <= k <= d:
        raise SrpflError(f"k={k} outside 1..{d}")
    if not np.isfinite(s).all():  # a nan would pass the symmetry test below and fail inside eigh
        raise SrpflError("expected a finite matrix, got an inf or nan entry")
    asym = float(np.linalg.norm(s - s.T))
    bound = SYMMETRY_TOL * max(1.0, float(np.linalg.norm(s)))
    if asym > bound:
        raise SrpflError(
            f"||s - s.T||_F = {asym:.3e} exceeds {SYMMETRY_TOL} * max(1, ||s||_F) = {bound:.3e}"
        )
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
        raise SrpflError(f"basis shapes differ: {b1.shape} vs {b2.shape}")
    resid = b2 - b1 @ (b1.T @ b2)
    return min(1.0, float(np.linalg.svd(resid, compute_uv=False)[0]))
