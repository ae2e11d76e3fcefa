"""One communication round of the alternating minimization-descent subroutine.

Per participating client: solve the local head exactly by least squares
against the frozen representation, then take a single gradient step on
the representation.  The server averages the per-client representation
updates and re-orthonormalizes with a thin QR.  Each client update
carries the 1/m batch normalization and the server carries the 1/n
average, so the composite step on the representation is eta/(m*n) times
the summed gradient; a round forms that sum directly, as one d x k move.

A round never draws a client's d-dimensional rows.  A client's step
reads its batch only through ``X b``, ``y`` and ``X^T r``, and
``x ~ N(0, I_d)`` is rotation invariant, so the round draws in the span
of ``b`` and ``B*``: with ``Q`` an orthonormal basis of that span
(d x p, p = min(d, 2k)) whose first k columns span ``b``, ``A = X Q`` is
an m x p standard Gaussian matrix, ``y = A Q^T B* w* + sigma z``, and the
part of ``X^T r`` outside ``span(Q)`` is ``||r|| (I - Q Q^T) g`` for a
standard Gaussian d-vector ``g``.  The rest is a function of the Gram
matrix of the m x (p+1) block ``[A z]``, so the round draws that block's
upper-trapezoidal R factor instead (Bartlett, see :func:`_draw_in_span`):
r = min(m, p+1) rows that stand for the m samples (``Batch.m``), exact
in distribution for every m.  Since ``Q`` starts with ``b``, a client's
head is a back-substitution on R (:func:`_factor_heads`) and its
residual is the rest of its labels (:func:`reduced_rep_step`).  All
participants are drawn from one generator per round, in participant
order, as one stacked batch.

Also provides the spectral warm start: average the per-client
second-moment surrogates ``(1/m) sum_j y_j^2 x_j x_j^T`` and keep the
top-k eigenspace.  These are fourth moments of the rows, so the warm
start draws each participant's full rows with :func:`sample_batch`.
"""

import functools

import numpy as np

from .errors import SrpflError
from .linalg import rank_k_eig, span_basis, thin_qr
from .synthesis import TAG_ROUND, Batch, sample_batch, substream

GRAM_TOL = 1e-10


def head_update(b, batch):
    """Exact local head: the least-squares minimizer of ``||y - X b w||``.

    Returns ``w = ((1/m) b^T X^T X b)^{-1} (1/m) b^T X^T y``: shape (k,)
    for a single batch (``x`` of shape (m, d)), (B, k) for a stacked one
    (``x`` of shape (B, m, d)), one head per slice; ``m`` is ``batch.m``.
    The row-form reference of the self-checks and the tests.

    Raises
    ------
    SrpflError
        If a projected Gram matrix, symmetric positive semidefinite, has
        an eigenvalue at or below :data:`GRAM_TOL` (every slice is checked
        with ``eigvalsh``); the batch is too small (m < k) or degenerate.
        The message names the first such client of the batch.
    """
    xb = batch.x @ b
    gram = xb.swapaxes(-1, -2) @ xb / batch.m
    eig_min = np.ravel(np.linalg.eigvalsh(gram)[..., 0])
    singular = np.flatnonzero(eig_min <= GRAM_TOL)
    if singular.size:
        first = singular[0]
        raise SrpflError(
            f"projected Gram matrix singular (lambda_min={eig_min[first]:.3e}) "
            f"for client {np.ravel(batch.client_id)[first]} at m={batch.m}"
        )
    q, r = np.linalg.qr(xb)  # not the normal equations, which square X b's condition number
    return np.linalg.solve(r, q.swapaxes(-1, -2) @ batch.y[..., None])[..., 0]


def rep_gradient_step(b, w, batch, eta):
    """One descent step on the representation, per client.

    Returns ``b - (eta/m) X^T (X b w - y) w^T``: shape (d, k) for a
    single batch and head, (B, d, k) for a stacked batch with heads of
    shape (B, k).  The server-side 1/n average completes the eta/(m*n)
    composite step.  A round takes this step in the summed form of
    :func:`reduced_rep_step`; the self-checks and the tests use this one.
    """
    m = batch.m
    resid = (batch.x @ (b @ w[..., None]))[..., 0] - batch.y
    return b - (eta / m) * (batch.x.swapaxes(-1, -2) @ (resid[..., :, None] * w[..., None, :]))


def method_of_moments_init(gt, participants, m, seed):
    """Spectral warm start for the shared representation.

    Every participant draws one batch (round index 0) and forms
    ``P_i = (1/m) sum_j y_j^2 x_j x_j^T``; the ``P_i`` are summed in
    participant order and the top-k eigenspace of their average is
    returned.  A sum that overflows issues no numpy warning;
    :func:`rank_k_eig` refuses it.
    """
    parts = list(participants)
    if not parts:
        raise SrpflError("warm start needs at least one participant")
    p_bar = np.zeros((gt.d, gt.d))
    saw_signal = False
    for cid in parts:
        batch = sample_batch(gt, cid, m, 0, seed)
        saw_signal = saw_signal or bool(np.any(batch.y != 0.0))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends at rank_k_eig's finiteness check
            p_bar += (batch.x.T * batch.y**2) @ batch.x / m
    if not saw_signal:
        raise SrpflError("every warm-start label was zero; nothing to estimate")
    return rank_k_eig(p_bar / len(parts), gt.k)


@functools.cache
def _above_diagonal(rows, cols):
    """Indices of the entries above the diagonal of a rows x cols matrix."""
    return np.triu_indices(rows, 1, cols)


def _draw_in_span(gt, q, parts, m, rng):
    """Factor batches of ``parts`` drawn in ``span(q)``, and one ``g`` per client.

    A client's m x (p+1) standard Gaussian block ``[A z]`` (p =
    ``q.shape[1]``) is drawn as the R factor of its QR decomposition,
    which has r = min(m, p+1) rows (Bartlett): entry (i, i) is
    ``sqrt(chi2(m - i))``, the entries above the diagonal are standard
    normal and those below are 0, all independent, so ``R^T R`` has the
    law of ``[A z]^T [A z]``.  Draws from ``rng``, for all n clients at
    once, the normals above the diagonal (n, row-major within R), the
    chi-squares (n, r) and ``g`` (n, d), in that order.  Returns the
    stacked ``Batch`` (``x`` = ``R[..., :p]``, ``y`` = ``x q^T B* w* +
    sigma R[..., p]``, ``m`` = m) and ``g``.
    """
    n, p = len(parts), q.shape[1]
    r = min(m, p + 1)
    rows, cols = _above_diagonal(r, p + 1)
    diag = np.arange(r)
    factor = np.zeros((n, r, p + 1))
    factor[:, rows, cols] = rng.standard_normal((n, rows.size))
    factor[:, diag, diag] = np.sqrt(rng.chisquare(m - diag, size=(n, r)))
    g = rng.standard_normal((n, gt.d))
    x, z = factor[..., :p], factor[..., p]
    y = (x @ (gt.w_star[parts] @ (q.T @ gt.b_star).T)[..., None])[..., 0] + gt.sigma * z
    return Batch(x=x, y=y, client_id=parts, m=m), g


def _factor_heads(batch, k):
    """Heads of a factor batch drawn in a basis whose first k columns span ``b``.

    A client's projected rows are then its factor's upper-triangular block
    ``R_kk`` over zeros, so its head, in those k coordinates, is
    ``R_kk^{-1} y[:k]`` by back-substitution.  Returns the heads, (n, k).
    Raises as :func:`head_update` does when ``R_kk^T R_kk / m`` is singular
    (always when m < k); only clients whose lower bound ``det(R_kk)^2 / (m
    ||R_kk||_F^(2k-2))`` on lambda_min does not clear :data:`GRAM_TOL` are
    checked, by :func:`head_update` on their factor rows.
    """
    t = batch.x[:, :k, :k].transpose(1, 2, 0).copy()  # every client's R_kk, clients last
    u = batch.y[:, :k].T.copy()
    clear = np.zeros(u.shape[1], dtype=bool)  # none when m < k leaves fewer than k factor rows
    if len(t) == k:
        with np.errstate(all="ignore"):
            u[k - 1] /= t[k - 1, k - 1]
            for i in reversed(range(k - 1)):
                u[i] = (u[i] - (t[i, i + 1:] * u[i + 1:]).sum(axis=0)) / t[i, i]
            flat = t.reshape(k * k, -1)
            clear = flat[::k + 1].prod(0) ** 2 > GRAM_TOL * batch.m * (flat * flat).sum(0) ** (k - 1)
    if not clear.all():  # raises for a singular one
        doubtful = (~clear).nonzero()[0]
        ids = np.ravel(batch.client_id)[doubtful]
        head_update(np.eye(k), Batch(x=batch.x[doubtful, :, :k], y=batch.y[doubtful], client_id=ids, m=batch.m))
    return u.T


def reduced_rep_step(q, w, batch, g):
    """The summed update ``sum_i X_i^T r_i w_i^T`` of a factor batch drawn in ``span(q)``.

    ``q`` is ``span_basis(b, B*)``, ``w`` the heads from :func:`_factor_heads`
    and ``g`` one standard Gaussian d-vector per client (n, d).  A head fits
    its first k factor rows, so the residual is ``-y[k:]`` on the rest:
    ``||r_i|| = ||y_i[k:]||`` and ``A_i^T r_i = -R_i[k:, k:]^T y_i[k:]`` on
    the last p - k coordinates.  With ``X_i^T r_i = q A_i^T r_i + ||r_i||
    (I - q q^T) g_i`` the sum is two products over the client axis.
    Returned in the frame of ``q[:, :k]``; times ``q[:, :k]^T b`` it is the
    move in ``b``'s.  :func:`rep_gradient_step` is the row form.
    """
    k = w.shape[-1]
    tail = batch.y[:, k:]
    inside = np.einsum("nij,ni->jn", batch.x[:, k:, k:], tail) @ w
    outside = g.T @ (np.sqrt(np.einsum("ni,ni->n", tail, tail))[:, None] * w)
    return outside - q @ (q.T @ outside) - q[:, k:] @ inside


def fedrep_round(b, gt, participants, m, eta, seed, round_index):
    """Run one communication round from representation ``b``; return the new one.

    ``round_index`` is the 1-based round number.  Every id is checked
    before the first draw.  The round's basis is ``span_basis(b, B*)``,
    and one generator, keyed on ``(seed, round_index)``, draws every
    participant's batch in participant order (see :func:`_draw_in_span`),
    so a participant's batch depends on its place in the round while the
    trace stays a pure function of the config.  Each participant solves
    its head afresh; the updates are summed into one d x k move (see
    :func:`reduced_rep_step`), and the round returns the thin QR of ``b -
    eta/(m*n) move``.  Raises with the offending client id when a local
    solve fails, and when the moved ``b`` collapses or is not finite (see
    :func:`thin_qr`); an overflow on the way there issues no numpy warning.
    """
    parts = np.asarray(participants, dtype=int)
    if not parts.size:
        raise SrpflError("a round needs at least one participant")
    bad = parts[(parts < 0) | (parts >= gt.n_clients)]
    if bad.size:
        raise SrpflError(f"participant {bad[0]} outside 0..{gt.n_clients - 1}")
    q = span_basis(b, gt.b_star)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends at thin_qr's finiteness check
        batch, g = _draw_in_span(gt, q, parts, m, substream(seed, TAG_ROUND, round_index))
        move = reduced_rep_step(q, _factor_heads(batch, gt.k), batch, g) @ (q[:, :gt.k].T @ b)
        step = b - (eta / (m * len(parts))) * move
    return thin_qr(step)[0]
