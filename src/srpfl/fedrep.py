"""One communication round of the alternating minimization-descent subroutine.

Per participating client: solve the local head exactly by least squares
against the frozen representation, then take a single gradient step on
the representation.  The server averages the per-client representation
updates and re-orthonormalizes.  Each client update
carries the 1/m batch normalization and the server carries the 1/n
average, so the composite step on the representation is eta/(m*n) times
the summed gradient; a round forms that sum directly, as one d x k move.

A round never draws a client's rows.  A client's step reads its batch
only through ``X b``, ``y`` and ``X^T r``, and ``x ~ N(0, I_d)`` is
rotation invariant, so the round works in the span of ``b`` and ``B*``:
with ``Q`` an orthonormal basis of that span (d x p, p = min(d, 2k))
whose first k columns span ``b``, ``A = X Q`` is an m x p standard
Gaussian matrix, ``y = A v + sigma z`` with ``v = Q^T B* w*``, and the part
of ``X^T r`` outside ``span(Q)`` is ``||r|| (I - Q Q^T) g`` for a standard
Gaussian d-vector ``g``.  The rest is a function of the Bartlett factor of
``[A z]``, and a client's head, ``||r||`` and ``A^T r`` have, jointly, the
law of three short formulas in two chi-squares and p + 1 normals, the head's
error a multivariate t (see :func:`_client_statistics`), exact for every m >
k.  The clients' parts outside ``span(Q)`` sum to one d x min(n, k) Gaussian
block times the R factor of their rows ``||r_i|| w_i`` (see
:func:`_summed_move`).  So a round draws seven values per client at d = 20,
k = 2, plus d k per round (:func:`_draw_round`), all clients last from one
generator per round, in participant order.

A round carries ``Q`` itself, not ``b``: ``b`` is ``Q``'s first k columns,
and the round ends in one Householder QR of ``[step, B*]``
(:func:`span_basis`), which orthonormalizes the step, checks it for
collapse, measures its distance to ``B*`` and builds the next round's ``Q``.

Also provides the two starts: the spectral warm start averages the
per-client second-moment surrogates ``(1/m) sum_j y_j^2 x_j x_j^T`` and
keeps the top-k eigenspace.  These are fourth moments of the rows, so the
warm start draws every participant's full rows, all from one generator
per call, in blocks of at most :data:`WARM_START_ROWS` rows, and adds one
weighted Gram product per block (:func:`_moment_sum`).  The random start
is the thin QR of a Gaussian (:func:`random_init`).
"""

from numbers import Integral

import numpy as np

from .errors import ConfigError, SrpflError
from .linalg import ORTHO_TOL, rank_k_eig, span_basis, thin_qr
from .synthesis import TAG_RANDOM_INIT, TAG_ROUND, TAG_WARM_START, check_sample_count, substream

GRAM_TOL = 1e-10
# rows per block of the warm start's draw, about 330 kB at d = 40: blocks of 2**14 rows
# (5 MB) drew no faster at perfbench's dynamic_wide size and raised its peak memory by 6%
WARM_START_ROWS = 2**10


def check_batch_size(m, k):
    """Raise :class:`ConfigError` unless m is an integer (numpy's included) and m > k: at m = k no
    residual is left, and below it no head is unique."""
    if not (isinstance(m, Integral) and m > k):
        raise ConfigError(f"need m > k, got m={m}, k={k}")


def head_update(b, x, y, m=None):
    """Exact local head: the least-squares minimizer of ``||y - X b w||``.

    Returns ``w = ((1/m) b^T X^T X b)^{-1} (1/m) b^T X^T y``: shape (k,)
    for a single batch (``x`` of shape (m, d), ``y`` (m,)), (B, k) for a
    stacked one (``x`` of shape (B, m, d), ``y`` (B, m)), one head per
    slice.  ``m`` is the number of samples the rows stand for, by default
    the rows of ``x``.  The row-form reference of the self-checks and the tests.

    Raises
    ------
    SrpflError
        Unless every projected Gram matrix has its eigenvalues above
        :data:`GRAM_TOL`, checked per slice with ``eigvalsh``: the batch is too
        small (m < k), degenerate or not finite.  The message names the first
        such slice by its position in the stack.
    """
    m = x.shape[-2] if m is None else m
    xb = x @ b
    eig_min = np.ravel(np.linalg.eigvalsh(xb.swapaxes(-1, -2) @ xb / m)[..., 0])
    first = np.argmax(~(eig_min > GRAM_TOL))
    if not eig_min[first] > GRAM_TOL:
        raise SrpflError(
            f"projected Gram matrix singular (lambda_min={eig_min[first]:.3e}) for slice {first} at m={m}"
        )
    q, r = np.linalg.qr(xb)  # not the normal equations, which square X b's condition number
    return np.linalg.solve(r, q.swapaxes(-1, -2) @ y[..., None])[..., 0]


def rep_gradient_step(b, w, x, y, eta, m=None):
    """One descent step on the representation, per client.

    Returns ``b - (eta/m) X^T (X b w - y) w^T``: shape (d, k) for a
    single batch and head, (B, d, k) for a stacked batch with heads of
    shape (B, k); ``m`` is as in :func:`head_update`.  The server-side 1/n
    average completes the eta/(m*n) composite step.  A round takes this
    step in the summed form of :func:`_summed_move`; the self-checks and
    the tests use this one.
    """
    m = x.shape[-2] if m is None else m
    resid = (x @ (b @ w[..., None]))[..., 0] - y
    return b - (eta / m) * (x.swapaxes(-1, -2) @ (resid[..., :, None] * w[..., None, :]))


def random_init(gt, seed):
    """Random start for the shared representation: the thin QR of a d x k standard Gaussian."""
    return thin_qr(substream(seed, TAG_RANDOM_INIT).standard_normal((gt.d, gt.k)))[0]


def method_of_moments_init(gt, participants, m, seed):
    """Spectral warm start for the shared representation.

    Every participant draws m fresh samples and forms ``P_i = (1/m) sum_j
    y_j^2 x_j x_j^T``; the top-k eigenspace of the average of the ``P_i``
    is returned.  One generator, keyed on ``seed``, draws every
    participant's rows in participant order (see :func:`_moment_sum`), so a
    participant listed twice draws two independent batches.  Every id and
    ``m`` are checked before the first draw, and so are the labels: when
    sigma is 0 and every participant's head is zero, every label would be.
    A sum that overflows issues no numpy warning; :func:`rank_k_eig`
    refuses it.
    """
    parts = gt.check_participants(participants)
    check_sample_count(m)
    if not (gt.sigma > 0 or gt.w_star[parts].any()):
        raise SrpflError("every warm-start label was zero; nothing to estimate")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends at rank_k_eig's finiteness check
        p_sum = _moment_sum(gt, parts, m, substream(seed, TAG_WARM_START))
    return rank_k_eig(p_sum / (m * parts.size), gt.k)


def _moment_sum(gt, parts, m, rng):
    """``sum_j y_j^2 x_j x_j^T`` over m fresh samples of each participant, drawn from ``rng``.

    The rows of all participants, m each in participant order, are drawn
    row-major in blocks of at most :data:`WARM_START_ROWS` rows of d + 1
    standard normals: d features ``x`` and a noise ``z``, with the label ``y
    = x^T B* w_i* + sigma z``.  Each block adds one weighted Gram product.
    How the rows split into blocks does not change the draws.
    """
    heads = gt.w_star[parts]
    total = parts.size * m
    p_sum = np.zeros((gt.d, gt.d))
    for start in range(0, total, WARM_START_ROWS):
        rows = np.arange(start, min(start + WARM_START_ROWS, total))
        block = rng.standard_normal((rows.size, gt.d + 1))
        x = block[:, :-1]
        y = ((x @ gt.b_star) * heads[rows // m]).sum(axis=1) + gt.sigma * block[:, -1]
        x *= np.abs(y)[:, None]  # rows |y| x, whose Gram matrix is sum y^2 x x^T
        p_sum += x.T @ x
    return p_sum


def _draw_round(n, k, p, d, m, rng):
    """Every random value a round of n clients reads, clients last.

    Returns ``(e, t, zeta, z)``.  ``e`` (k, n) is each client's head error per
    unit of ``||u||``, ``g / rho`` for a standard normal k-vector ``g`` and ``rho =
    sqrt(chi2(m - k + 1))``: a multivariate t with m - k + 1 degrees of freedom.
    ``t`` (n,) is ``sqrt(chi2(m - k))``.  ``zeta`` (p+1-k, n) and ``z`` (d, min(n,
    k)) are standard normal.  Two scalar-df chi-square calls of n draw ``rho`` and
    then ``t``, and one normal call the rest: per client the k of ``g`` and the
    p + 1 - k of ``zeta``, then ``z``.
    """
    rho, t = np.sqrt([rng.chisquare(m - k + 1, size=n), rng.chisquare(m - k, size=n)])
    normals = rng.standard_normal(n * (p + 1) + d * min(n, k))
    per_client, z = normals[:n * (p + 1)].reshape(-1, n), normals[n * (p + 1):]
    return per_client[:k] / rho, t, per_client[k:], z.reshape(d, -1)


def _overlap(gt, q):
    """``q^T B*`` (p, k), the round's basis against ``B*``; raise unless ``span(q)`` holds ``B*``.

    For an orthonormal ``q`` that holds ``B*``, ``||q^T B*||_F^2 = k``; a
    basis that does not would drop the part of every label outside its span.
    The check allows :data:`ORTHO_TOL` of rounding.
    """
    overlap = q.T @ gt.b_star
    held = float(np.vdot(overlap, overlap))
    if not abs(held - gt.k) <= ORTHO_TOL:
        raise SrpflError(f"round basis does not hold B*: ||q^T B*||_F^2 = {held:.6g}, not k = {gt.k}")
    return overlap


def _signal(gt, overlap, parts):
    """Each client's ``v = q^T B* w*`` (p, n) and ``u = (v[k:], sigma)`` (p+1-k, n), from ``overlap = q^T B*``."""
    v = overlap @ gt.w_star[parts].T
    u = np.empty((len(v) - gt.k + 1, len(parts)))
    u[:-1], u[-1] = v[gt.k:], gt.sigma
    return v, u


def _client_statistics(gt, overlap, parts, draw):
    """What a client's step reads of its batch: head, ``||r||`` and ``A^T r``.

    The rows of the Bartlett factor R of a client's block ``[A z]`` are
    independent.  Its head fits the leading k rows: given ``A_b``, the head's
    error is normal with covariance ``||u||^2 (A_b^T A_b)^{-1}``, and ``A_b^T
    A_b`` is Wishart(m, I_k), so the error is ``||u||`` times a multivariate t
    with m - k + 1 degrees of freedom and scale ``I / (m - k + 1)``.  It reads
    the noise only inside ``col(A_b)``; the residual reads it only outside, on
    the trailing block, the factor of a rotation-invariant Wishart matrix with
    m - k degrees of freedom.  So with ``v = q^T B* w*``, read from ``overlap
    = q^T B*`` (see :func:`_overlap`), ``u = (v[k:], sigma)`` and the draws of
    :func:`_draw_round`, jointly in law: the head is ``w = v[:k] + ||u|| e``,
    ``||r|| = ||u|| t``, and ``A^T r`` is 0 on the first k columns of ``q``
    and ``-||u|| t (t u_hat + (I - u_hat u_hat^T) zeta)`` on the last p - k.
    Returns the heads (n, k) in the frame of ``q[:, :k]``, ``||r||`` (n,) and
    ``-A^T r`` on the last p - k columns (p-k, n).  :func:`_factor_rows` is
    the row form.
    """
    e, t, zeta, _ = draw
    v, u = _signal(gt, overlap, parts)
    size = np.sqrt((u * u).sum(axis=0))  # ||u||, in numpy so that an overflow ends at span_basis
    along = (u * zeta).sum(axis=0) / np.where(size > 0, size, 1.0)  # u_hat^T zeta
    tail = t * ((t - along) * u[:-1] + size * zeta[:-1])
    return (v[:gt.k] + size * e).T, size * t, tail


def _factor_rows(gt, q, parts, draw):
    """The row form of a draw: each client's (k+1)-row factor batch ``(x, y)`` in ``span(q)``.

    The rows ``[[I_k, e u_hat^T], [0, t u_hat + (I - u_hat u_hat^T) zeta]]``
    (``u_hat = u / ||u||``, ``e_1`` when u = 0; the leading triangle is
    ``I_k`` because the head's error ``e`` is drawn whole), as ``x`` (n, k+1,
    p) and labels ``y = R (v, sigma)`` (n, k+1).  The rows stand for the m
    samples the draw was made for: on ``x q^T``, with that m passed,
    :func:`head_update` and :func:`rep_gradient_step` find the heads,
    ``||r||`` and ``A^T r`` of :func:`_client_statistics`.  The self-checks'
    and the tests' reference.
    """
    e, t, zeta, _ = draw
    k, p, n = gt.k, q.shape[1], len(parts)
    v, u = _signal(gt, q.T @ gt.b_star, parts)
    size = np.linalg.norm(u, axis=0)
    u_hat = np.where(size > 0, u / np.where(size > 0, size, 1.0), np.eye(len(u))[:, :1])
    factor = np.zeros((n, k + 1, p + 1))
    factor[:, :k, :k] = np.eye(k)
    factor[:, :k, k:] = e.T[:, :, None] * u_hat.T[:, None, :]
    factor[:, k, k:] = (t * u_hat + zeta - u_hat * (u_hat * zeta).sum(axis=0)).T
    y = np.einsum("nij,jn->ni", factor, np.concatenate([v[:k], u]))
    return factor[..., :p], y


def _summed_move(q, w, resid, tail, z):
    """The summed update ``sum_i X_i^T r_i w_i^T`` in the head frame of ``q``.

    ``w``, ``resid`` and ``tail`` are from :func:`_client_statistics`.
    Inside ``span(q)`` the sum is ``-q[:, k:] tail w``.  Outside it is
    ``(I - q q^T) G^T C`` for an n x d standard Gaussian ``G`` and ``C`` the
    n x k matrix of rows ``||r_i|| w_i``; with ``C = Q_C R_C`` (thin QR),
    ``G^T Q_C`` is a d x min(n, k) standard Gaussian, so ``G^T C`` has the law
    of ``z R_C`` for every ``C``, zero included (``R_C = C`` when n <= k,
    where ``z`` is ``G^T`` itself).  It is the move of the representation
    ``q[:, :k]``; :func:`rep_gradient_step` is the row form of one client's.
    """
    r_c = resid[:, None] * w
    if len(r_c) > z.shape[1]:  # n > k; for n <= k, C itself is a factor
        r_c = np.linalg.qr(r_c, mode="raw")[0].T[:z.shape[1]]  # R_C on and above the diagonal, reflectors below
        for i in range(1, len(r_c)):
            r_c[i, :i] = 0.0
    outside = z @ r_c
    return outside - q @ (q.T @ outside) - q[:, w.shape[1]:] @ (tail @ w)


def fedrep_round(q, gt, participants, m, eta, seed, round_index):
    """Run one communication round from basis ``q``; return the next basis and its distance.

    ``q`` is the round's basis as :func:`span_basis` returns it: orthonormal,
    its first k columns spanning the representation and its span holding
    ``B*``.  ``round_index`` is the 1-based round number.  ``m``, every id
    and then the basis (see :func:`_overlap`) are checked before the first
    draw.  One generator, keyed on ``(seed, round_index)``, draws what every
    participant's step reads (see :func:`_draw_round`), so a participant's
    draws depend on its place in the round while the trace stays a pure
    function of the config.  Each participant solves its head afresh in the
    frame of ``q[:, :k]``; the updates are summed into one d x k move (see
    :func:`_summed_move`), and the round returns ``span_basis(q[:, :k] -
    eta/(m*n) move, B*)``: the next round's basis and the distance of the
    moved representation to ``B*``.
    A round draws no Gram matrix, so no local solve can fail.  Raises when the
    moved representation collapses or is not finite (see :func:`span_basis`);
    an overflow on the way there issues no numpy warning.
    """
    check_batch_size(m, gt.k)
    parts = gt.check_participants(participants)
    overlap = _overlap(gt, q)
    with np.errstate(all="ignore"):  # an overflow ends at span_basis's finiteness check
        draw = _draw_round(parts.size, gt.k, q.shape[1], gt.d, m, substream(seed, TAG_ROUND, round_index))
        move = _summed_move(q, *_client_statistics(gt, overlap, parts, draw), draw[-1])
        step = q[:, :gt.k] - (eta / (m * parts.size)) * move
    return span_basis(step, gt.b_star)
