"""Hidden ground-truth model, substreams and full-row client batches.

Client ``i`` observes pairs ``(x, y)`` with ``x ~ N(0, I_d)`` and
``y = w_i*^T B*^T x + z``, ``z ~ N(0, sigma^2)``.  All randomness is
drawn from counter-based substreams keyed on the seed and a purpose key
(see :func:`substream`), so every draw is a pure function of the config.
Every purpose key starts with one of the ``TAG_*`` constants below.
:func:`sample_batch` keys its stream on ``(seed, client, round)`` and
draws a client's full rows; the warm start and the test oracles use it.
A training round draws its clients' data itself, from one stream per
round (see :mod:`srpfl.fedrep`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SrpflError
from .linalg import thin_qr

# substream tags, the first element of every purpose key; each must be distinct
TAG_GROUND_TRUTH = 0x01
TAG_BATCH = 0x02
TAG_ROUND = 0x03
TAG_FIXED_TIMES = 0x11
TAG_DYNAMIC_TIMES = 0x12
TAG_CLIENT_RATES = 0x13
TAG_ACTIVE_SET = 0x21
TAG_SUBSET_PROBE = 0x22
TAG_RANDOM_INIT = 0x23


def substream(seed, *key):
    """Independent generator for the given purpose key under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class GroundTruthModel:
    """The hidden (B*, W*, sigma) triple that generates all client data.

    ``b_star`` is d x k with orthonormal columns; row ``i`` of ``w_star``
    is the client head ``w_i*`` with Euclidean norm sqrt(k).
    """

    b_star: np.ndarray
    w_star: np.ndarray
    sigma: float
    d: int
    k: int
    n_clients: int


@dataclass(frozen=True)
class Batch:
    """One fresh batch for one client: rows of ``x`` are samples.

    A stacked batch of B clients has ``x`` of shape (B, m, d), ``y`` of
    shape (B, m) and ``client_id`` an array of the B ids.  ``m`` is the
    number of samples the batch stands for, by default the rows of ``x``.
    """

    x: np.ndarray
    y: np.ndarray
    client_id: int | np.ndarray
    m: int | None = None

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", self.x.shape[-2])


def gen_ground_truth(d, k, n_clients, sigma, seed):
    """Draw a ground-truth model, deterministic in ``seed``.

    The representation is the Q factor of a d x k standard Gaussian
    draw; each head is a standard Gaussian k-vector rescaled to norm
    sqrt(k) (resampled in the measure-zero event of an exactly zero
    draw).
    """
    if not 1 <= k <= d:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")
    if n_clients < 1:
        raise ConfigError(f"need at least one client, got {n_clients}")
    if not 0 <= sigma < math.inf:
        raise ConfigError(f"noise std must be finite and >= 0, got {sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = substream(seed, TAG_GROUND_TRUTH)
    b_star, _ = thin_qr(rng.standard_normal((d, k)))
    heads = rng.standard_normal((n_clients, k))
    norms = np.linalg.norm(heads, axis=1)
    while np.any(norms == 0.0):  # degenerate head: resample, never fires in practice
        bad = norms == 0.0
        heads[bad] = rng.standard_normal((int(bad.sum()), k))
        norms = np.linalg.norm(heads, axis=1)
    w_star = heads * (np.sqrt(k) / norms)[:, None]
    return GroundTruthModel(
        b_star=b_star, w_star=w_star, sigma=float(sigma), d=d, k=k, n_clients=n_clients,
    )


def sample_batch(gt, client, m, round_index, seed):
    """Fresh batch of ``m`` samples for ``client`` at the given round.

    The stream is a pure function of ``(seed, client, round_index)``:
    identical triples yield bit-identical batches, distinct rounds yield
    independent ones.
    """
    if not 0 <= client < gt.n_clients:
        raise SrpflError(f"client {client} outside 0..{gt.n_clients - 1}")
    if m < 1:
        raise ConfigError(f"batch size must be >= 1, got {m}")
    rng = substream(seed, TAG_BATCH, client, round_index)
    x = rng.standard_normal((m, gt.d))
    y = x @ (gt.b_star @ gt.w_star[client])
    if gt.sigma > 0:
        y = y + gt.sigma * rng.standard_normal(m)
    return Batch(x=x, y=y, client_id=client)

