"""One communication round of the alternating minimization-descent subroutine.

Per participating client: solve the local head exactly by least squares
against the frozen representation, then take a single gradient step on
the representation.  The server averages the per-client representation
updates and re-orthonormalizes with a thin QR.  Each client update
carries the 1/m batch normalization and the server carries the 1/n
average, so the composite step on the representation is eta/(m*n) times
the summed gradient.

Also provides the spectral warm start: average the per-client
second-moment surrogates ``(1/m) sum_j y_j^2 x_j x_j^T`` and keep the
top-k eigenspace.
"""

import numpy as np

from .errors import (
    AllZeroMoments,
    ClientOutOfRange,
    EmptyParticipants,
    SingularGram,
)
from .linalg import rank_k_eig, thin_qr
from .synthesis import sample_batch

GRAM_TOL = 1e-10


def head_update(b, batch):
    """Exact local head: the least-squares minimizer of ``||y - X b w||``.

    Returns ``w = ((1/m) b^T X^T X b)^{-1} (1/m) b^T X^T y``.

    Raises
    ------
    SingularGram
        If the projected Gram matrix has a singular value at or below
        :data:`GRAM_TOL`; the batch is too small (m < k) or degenerate.
    """
    m = batch.x.shape[0]
    xb = batch.x @ b
    gram = xb.T @ xb / m
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= GRAM_TOL:
        raise SingularGram(
            f"projected Gram matrix singular (sigma_min={sv[-1]:.3e}) "
            f"for client {batch.client_id} at m={m}"
        )
    return np.linalg.solve(gram, xb.T @ batch.y / m)


def rep_gradient_step(b, w, batch, eta):
    """One descent step on the representation for a single client.

    Returns ``b - (eta/m) X^T (X b w - y) w^T``; the server-side 1/n
    average completes the eta/(m*n) composite step.
    """
    m = batch.x.shape[0]
    resid = batch.x @ (b @ w) - batch.y
    return b - (eta / m) * (batch.x.T @ np.outer(resid, w))


def server_aggregate(contributions, n):
    """Average the per-client representation updates and orthonormalize.

    The sum runs in list order (fixed-order reduction) so results do not
    depend on scheduling.  Returns the thin QR of the average; a
    collapsed average propagates ``RankDeficient``.
    """
    if n < 1 or not contributions:
        raise EmptyParticipants("server_aggregate needs at least one contribution")
    if len(contributions) != n:
        raise EmptyParticipants(
            f"expected {n} contributions, got {len(contributions)}"
        )
    total = np.zeros_like(contributions[0])
    for c in contributions:
        total += c
    return thin_qr(total / n)


def method_of_moments_init(gt, participants, m, seed):
    """Spectral warm start for the shared representation.

    Every participant draws one batch (round index 0), forms
    ``P_i = (1/m) sum_j y_j^2 x_j x_j^T``, and the top-k eigenspace of
    the participant average is returned.
    """
    parts = list(participants)
    if not parts:
        raise EmptyParticipants("warm start needs at least one participant")
    p_bar = np.zeros((gt.d, gt.d))
    saw_signal = False
    for cid in parts:
        batch = sample_batch(gt, cid, m, round_index=0, seed=seed)
        if not saw_signal and np.any(batch.y != 0.0):
            saw_signal = True
        p_bar += (batch.x.T * batch.y**2) @ batch.x / m
    if not saw_signal:
        raise AllZeroMoments("every warm-start label was zero; nothing to estimate")
    return rank_k_eig(p_bar / len(parts), gt.k)


def fedrep_round(b, gt, participants, m, eta, seed, round_index):
    """Run one communication round from representation ``b``; return the new one.

    ``round_index`` is the 1-based round number and doubles as the batch
    substream index (index 0 is reserved for the warm start).  Each
    participant draws a fresh batch, solves its head and contributes one
    representation step; heads are not kept between rounds.  Raises with
    the offending client id when a local solve fails.
    """
    parts = list(participants)
    if not parts:
        raise EmptyParticipants("a round needs at least one participant")
    contributions = []
    for cid in parts:
        if not 0 <= cid < gt.n_clients:
            raise ClientOutOfRange(f"participant {cid} outside 0..{gt.n_clients - 1}")
        batch = sample_batch(gt, cid, m, round_index, seed)
        w = head_update(b, batch)
        contributions.append(rep_gradient_step(b, w, batch, eta))
    b_new, _ = server_aggregate(contributions, len(parts))
    return b_new
