"""One communication round of the alternating minimization-descent subroutine.

Per participating client: solve the local head exactly by least squares
against the frozen representation, then take a single gradient step on
the representation.  The server averages the per-client representation
updates and re-orthonormalizes with a thin QR.  Each client update
carries the 1/m batch normalization and the server carries the 1/n
average, so the composite step on the representation is eta/(m*n) times
the summed gradient; a round forms that sum directly, as one d x k move,
and never holds a client's own d x k step.

A round never draws a client's d-dimensional rows.  A client's step
reads its batch only through ``X b``, ``y`` and ``X^T r``, and
``x ~ N(0, I_d)`` is rotation invariant, so the round draws in the span
of ``b`` and ``B*``: with ``Q`` an orthonormal basis of that span
(d x p, p = min(d, 2k)), ``A = X Q`` is an m x p standard Gaussian
matrix, ``y = A Q^T B* w* + sigma z``, and the part of ``X^T r`` outside
``span(Q)`` is ``||r|| (I - Q Q^T) g`` for a standard Gaussian d-vector
``g``.  What is left, ``A^T A``, ``A^T y`` and ``||r||``, is a function
of the Gram matrix of the m x (p+1) Gaussian block ``[A z]``, so the
round draws that Gram matrix's upper-trapezoidal factor ``R`` instead
(the Bartlett decomposition, see :func:`_draw_in_span`) and feeds
``R``'s rows through the head and the step in place of the m rows: a
factor batch holds r = min(m, p+1) rows (``x`` = ``R[:, :p]``) that
stand for its m samples (``Batch.m``).  This is exact in distribution
for every m and needs (p+1)(p+2)/2 values plus ``g`` per client (fewer
when m < p+1) instead of m*(d + 1).  All participants are drawn from one
generator per round, in participant order, and solved as one stacked
batch.

Also provides the spectral warm start: average the per-client
second-moment surrogates ``(1/m) sum_j y_j^2 x_j x_j^T`` and keep the
top-k eigenspace.  These are fourth moments of the rows, so the warm
start draws each participant's full rows with :func:`sample_batch`.
"""

import functools

import numpy as np

from .errors import (
    AllZeroMoments,
    ClientOutOfRange,
    EmptyParticipants,
    SingularGram,
)
from .linalg import rank_k_eig, span_basis, thin_qr
from .synthesis import TAG_ROUND, Batch, sample_batch, substream

GRAM_TOL = 1e-10


def head_update(b, batch):
    """Exact local head: the least-squares minimizer of ``||y - X b w||``.

    Returns ``w = ((1/m) b^T X^T X b)^{-1} (1/m) b^T X^T y``: shape (k,)
    for a single batch (``x`` of shape (m, d)), (B, k) for a stacked one
    (``x`` of shape (B, m, d)), one head per slice; ``m`` is ``batch.m``.

    Raises
    ------
    SingularGram
        If a projected Gram matrix, symmetric positive semidefinite, has
        an eigenvalue at or below :data:`GRAM_TOL`; the batch is too
        small (m < k) or degenerate.
        The message names the first such client of the batch.  Only the
        clients whose Gershgorin lower bound on that eigenvalue does not
        clear :data:`GRAM_TOL` are checked with ``eigvalsh``.
    """
    m = batch.m
    xb = batch.x @ b
    xb_t = xb.swapaxes(-1, -2)
    gram = xb_t @ xb / m
    k = gram.shape[-1]
    gershgorin = (2.0 * np.diagonal(gram, axis1=-2, axis2=-1) - np.abs(gram).sum(axis=-1)).min(axis=-1)
    doubtful = np.flatnonzero(np.ravel(gershgorin) <= GRAM_TOL)
    if doubtful.size:
        eig_min = np.linalg.eigvalsh(gram.reshape(-1, k, k)[doubtful])[:, 0]
        singular = np.flatnonzero(eig_min <= GRAM_TOL)
        if singular.size:
            first = singular[0]
            raise SingularGram(
                f"projected Gram matrix singular (lambda_min={eig_min[first]:.3e}) "
                f"for client {np.ravel(batch.client_id)[doubtful[first]]} at m={m}"
            )
    return np.linalg.solve(gram, xb_t @ batch.y[..., None] / m)[..., 0]


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
    returned.
    """
    parts = list(participants)
    if not parts:
        raise EmptyParticipants("warm start needs at least one participant")
    p_bar = np.zeros((gt.d, gt.d))
    saw_signal = False
    for cid in parts:
        batch = sample_batch(gt, cid, m, 0, seed)
        saw_signal = saw_signal or bool(np.any(batch.y != 0.0))
        p_bar += (batch.x.T * batch.y**2) @ batch.x / m
    if not saw_signal:
        raise AllZeroMoments("every warm-start label was zero; nothing to estimate")
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


def reduced_rep_step(b, q, w, batch, g):
    """The summed update ``sum_i X_i^T r_i w_i^T`` of a batch drawn in ``span(q)``.

    ``batch.x`` holds, stacked over the n clients (shape (n, r, p)),
    ``A_i = X_i q`` or the factor rows that stand for it (see
    :func:`_draw_in_span`), ``w`` the heads from ``head_update(q.T @ b,
    batch)`` (shape (n, k)) and ``g`` one standard Gaussian d-vector per
    client (shape (n, d)).  With residuals ``r_i = A_i q^T b w_i - y_i``,
    ``X_i^T r_i`` is ``q A_i^T r_i + ||r_i|| (I - q q^T) g_i``, so the
    sum is ``q (sum_i a_i w_i^T) + (I - q q^T) G^T (rho * W)`` with
    ``a_i = A_i^T r_i`` and ``rho_i = ||r_i||``: two products over the
    client axis and no per-client d x k array.  Returns the d x k move
    that :func:`fedrep_round` scales by eta/(m*n);
    :func:`rep_gradient_step` is the per-client row form it stands for.
    """
    resid = (batch.x @ ((q.T @ b) @ w[..., None]))[..., 0] - batch.y
    inside = (batch.x.swapaxes(-1, -2) @ resid[..., None])[..., 0].T @ w
    outside = g.T @ (np.linalg.norm(resid, axis=-1)[:, None] * w)
    return outside + q @ (inside - q.T @ outside)


def fedrep_round(b, gt, participants, m, eta, seed, round_index):
    """Run one communication round from representation ``b``; return the new one.

    ``round_index`` is the 1-based round number.  Every id is checked
    before the first draw.  The round's basis is ``span_basis(B*, b)``,
    and one generator, keyed on ``(seed, round_index)``, draws every
    participant's batch in participant order (see :func:`_draw_in_span`),
    so a participant's batch depends on its place in the round while the
    trace stays a pure function of the config.  Each participant solves
    its head (heads are not kept between rounds); the participants'
    updates ``X_i^T r_i w_i^T`` are summed directly into one d x k move
    (see :func:`reduced_rep_step`), and the round returns the thin QR of
    ``b - eta/(m*n) move``.  Raises with the offending client id when a
    local solve fails, and ``RankDeficient`` when the moved ``b`` collapses.
    """
    parts = np.array(list(participants), dtype=int)
    if not parts.size:
        raise EmptyParticipants("a round needs at least one participant")
    bad = parts[(parts < 0) | (parts >= gt.n_clients)]
    if bad.size:
        raise ClientOutOfRange(f"participant {bad[0]} outside 0..{gt.n_clients - 1}")
    q = span_basis(gt.b_star, b)
    batch, g = _draw_in_span(gt, q, parts, m, substream(seed, TAG_ROUND, round_index))
    w = head_update(q.T @ b, batch)
    return thin_qr(b - (eta / (m * len(parts))) * reduced_rep_step(b, q, w, batch, g))[0]
