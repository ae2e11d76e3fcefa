"""One communication round of the alternating minimization-descent subroutine.

Per participating client: solve the local head exactly by least squares
against the frozen representation, then take a single gradient step on
the representation.  The server averages the per-client representation
updates and re-orthonormalizes with a thin QR.  Each client update
carries the 1/m batch normalization and the server carries the 1/n
average, so the composite step on the representation is eta/(m*n) times
the summed gradient.

A round solves its participants in blocks of :data:`BLOCK` clients: the
per-client batches of a block are stacked into one ``Batch`` and every
client update runs as one stacked array call.  Stacked matmul, SVD and
solve run the same BLAS/LAPACK kernel on each slice as the 2-D calls, so
a stacked round is bit-identical to a per-client loop.

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
from .synthesis import Batch, sample_batch

GRAM_TOL = 1e-10

# clients per stacked block; bounds the memory of the stacked batches
# (stacking a whole n=256 round raised peak RSS by about a fifth)
BLOCK = 16


def _blocks(gt, parts, m, round_index, seed):
    """Stacked batches of ``parts`` in participant order, ``BLOCK`` clients each.

    Every client still draws its own batch from :func:`sample_batch`; a
    block stacks them into one ``Batch`` with ``x`` of shape (B, m, d),
    ``y`` of shape (B, m) and ``client_id`` an array of the B ids.
    """
    for start in range(0, len(parts), BLOCK):
        batches = [sample_batch(gt, cid, m, round_index, seed) for cid in parts[start:start + BLOCK]]
        yield Batch(
            x=np.stack([batch.x for batch in batches]),
            y=np.stack([batch.y for batch in batches]),
            client_id=np.array([batch.client_id for batch in batches]),
            round_index=round_index,
        )


def head_update(b, batch):
    """Exact local head: the least-squares minimizer of ``||y - X b w||``.

    Returns ``w = ((1/m) b^T X^T X b)^{-1} (1/m) b^T X^T y``: shape (k,)
    for a single batch (``x`` of shape (m, d)), (B, k) for a stacked one
    (``x`` of shape (B, m, d)), one head per slice.

    Raises
    ------
    SingularGram
        If a projected Gram matrix has a singular value at or below
        :data:`GRAM_TOL`; the batch is too small (m < k) or degenerate.
        The message names the first such client of the batch.
    """
    m = batch.x.shape[-2]
    xb = batch.x @ b
    xb_t = xb.swapaxes(-1, -2)
    gram = xb_t @ xb / m
    sv_min = np.ravel(np.linalg.svd(gram, compute_uv=False)[..., -1])
    singular = np.flatnonzero(sv_min <= GRAM_TOL)
    if singular.size:
        first = singular[0]
        raise SingularGram(
            f"projected Gram matrix singular (sigma_min={sv_min[first]:.3e}) "
            f"for client {np.ravel(batch.client_id)[first]} at m={m}"
        )
    return np.linalg.solve(gram, xb_t @ batch.y[..., None] / m)[..., 0]


def rep_gradient_step(b, w, batch, eta):
    """One descent step on the representation, per client.

    Returns ``b - (eta/m) X^T (X b w - y) w^T``: shape (d, k) for a
    single batch and head, (B, d, k) for a stacked batch with heads of
    shape (B, k).  The server-side 1/n average completes the eta/(m*n)
    composite step.
    """
    m = batch.x.shape[-2]
    resid = (batch.x @ (b @ w[..., None]))[..., 0] - batch.y
    return b - (eta / m) * (batch.x.swapaxes(-1, -2) @ (resid[..., :, None] * w[..., None, :]))


def server_aggregate(contributions, n):
    """Average the per-client representation updates and orthonormalize.

    ``contributions`` holds the n updates, stacked as an (n, d, k) array
    or listed.  They are summed over the first axis in order (a
    fixed-order reduction), so results do not depend on scheduling.
    Returns the thin QR of the average; a collapsed average propagates
    ``RankDeficient``.
    """
    steps = np.asarray(contributions, dtype=float)
    if n < 1 or len(steps) == 0:
        raise EmptyParticipants("server_aggregate needs at least one contribution")
    if len(steps) != n:
        raise EmptyParticipants(f"expected {n} contributions, got {len(steps)}")
    return thin_qr(steps.sum(axis=0) / n)


def method_of_moments_init(gt, participants, m, seed):
    """Spectral warm start for the shared representation.

    Every participant draws one batch (round index 0), forms
    ``P_i = (1/m) sum_j y_j^2 x_j x_j^T`` (a block at a time), and the
    top-k eigenspace of the participant average is returned; the
    ``P_i`` are summed in participant order.
    """
    parts = list(participants)
    if not parts:
        raise EmptyParticipants("warm start needs at least one participant")
    p_bar = np.zeros((gt.d, gt.d))
    saw_signal = False
    for batch in _blocks(gt, parts, m, 0, seed):
        saw_signal = saw_signal or bool(np.any(batch.y != 0.0))
        for p in (batch.x.swapaxes(-1, -2) * (batch.y**2)[:, None, :]) @ batch.x / m:
            p_bar += p
    if not saw_signal:
        raise AllZeroMoments("every warm-start label was zero; nothing to estimate")
    return rank_k_eig(p_bar / len(parts), gt.k)


def fedrep_round(b, gt, participants, m, eta, seed, round_index):
    """Run one communication round from representation ``b``; return the new one.

    ``round_index`` is the 1-based round number and doubles as the batch
    substream index (index 0 is reserved for the warm start).  Each
    participant draws a fresh batch, solves its head and contributes one
    representation step; heads are not kept between rounds.  Every id is
    checked before the first draw.  Participants are solved in blocks of
    :data:`BLOCK`, in participant order, and their steps are summed in
    that order.  Raises with the offending client id when a local solve
    fails.
    """
    parts = list(participants)
    if not parts:
        raise EmptyParticipants("a round needs at least one participant")
    for cid in parts:
        if not 0 <= cid < gt.n_clients:
            raise ClientOutOfRange(f"participant {cid} outside 0..{gt.n_clients - 1}")
    steps = np.empty((len(parts),) + b.shape)
    start = 0
    for batch in _blocks(gt, parts, m, round_index, seed):
        w = head_update(b, batch)
        steps[start:start + len(w)] = rep_gradient_step(b, w, batch, eta)
        start += len(w)
    b_new, _ = server_aggregate(steps, len(parts))
    return b_new
