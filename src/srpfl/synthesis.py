"""Hidden ground-truth model with the checks of its arguments and of a participant list, substreams and client batches.

Client ``i`` observes pairs ``(x, y)`` with ``x ~ N(0, I_d)`` and
``y = w_i*^T B*^T x + z``, ``z ~ N(0, sigma^2)``.  All randomness is
drawn from counter-based substreams keyed on the seed and a purpose key
(see :func:`substream`), so every draw is a pure function of the config.
Every purpose key starts with one of the ``TAG_*`` constants below.
:func:`sample_batch` keys its stream on ``(seed, client, round)`` and
draws one client's full rows ``(x, y)``; the self-checks and the test oracles use it.
The warm start and a training round draw their clients' data themselves,
from one stream per call (see :mod:`srpfl.fedrep`).
"""

import math
from dataclasses import dataclass
from numbers import Integral

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
TAG_RANDOM_INIT = 0x23
TAG_WARM_START = 0x24


def substream(seed, *key):
    """Independent generator for the given purpose key under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class GroundTruthModel:
    """The hidden (B*, W*, sigma) triple that generates all client data.

    ``b_star`` is d x k with orthonormal columns; row ``i`` of ``w_star``
    is the client head ``w_i*`` with Euclidean norm sqrt(k).  d, k and the
    number of clients M are read from these shapes.
    """

    b_star: np.ndarray
    w_star: np.ndarray
    sigma: float

    @property
    def d(self):
        return self.b_star.shape[0]

    @property
    def k(self):
        return self.b_star.shape[1]

    @property
    def n_clients(self):
        return self.w_star.shape[0]

    @staticmethod
    def check(d, k, n_clients, sigma, seed):
        """Raise :class:`ConfigError` unless 1 <= k <= d, n_clients >= 1, 0 <= sigma < inf and seed >= 0,
        with d, k, n_clients and seed integers (numpy's included)."""
        if not (isinstance(d, Integral) and isinstance(k, Integral) and 1 <= k <= d):
            raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")
        if not (isinstance(n_clients, Integral) and n_clients >= 1):
            raise ConfigError(f"need at least one client, got {n_clients}")
        if not 0 <= sigma < math.inf:
            raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
        if not (isinstance(seed, Integral) and seed >= 0):
            raise ConfigError(f"seed must be >= 0, got {seed}")

    def check_participants(self, participants):
        """The ids of ``participants`` (one id or several) as a 1-D integer array.

        Raises :class:`SrpflError` unless the list is not empty and every id is
        an integer in 0..M-1.  Every draw indexes with this array, so none
        converts the list again.
        """
        ids = np.asarray(participants).reshape(-1)
        if not ids.size:
            raise SrpflError("need at least one participant")
        if not issubclass(ids.dtype.type, np.integer):
            raise SrpflError(f"participant ids must be integers, got {ids.tolist()}")
        inside = (ids >= 0) & (ids < self.n_clients)
        if not inside.all():
            raise SrpflError(f"participant {ids[~inside][0]} outside 0..{self.n_clients - 1}")
        return ids


def gen_ground_truth(d, k, n_clients, sigma, seed):
    """Draw a ground-truth model, deterministic in ``seed``.

    The representation is the Q factor of a d x k standard Gaussian
    draw; each head is a standard Gaussian k-vector rescaled to norm
    sqrt(k) (resampled in the measure-zero event of an exactly zero
    draw).
    """
    GroundTruthModel.check(d, k, n_clients, sigma, seed)
    rng = substream(seed, TAG_GROUND_TRUTH)
    b_star, _ = thin_qr(rng.standard_normal((d, k)))
    heads = rng.standard_normal((n_clients, k))
    norms = np.linalg.norm(heads, axis=1)
    while np.any(norms == 0.0):  # degenerate head: resample, never fires in practice
        bad = norms == 0.0
        heads[bad] = rng.standard_normal((int(bad.sum()), k))
        norms = np.linalg.norm(heads, axis=1)
    w_star = heads * (np.sqrt(k) / norms)[:, None]
    return GroundTruthModel(b_star=b_star, w_star=w_star, sigma=float(sigma))


def check_sample_count(m):
    """Raise :class:`ConfigError` unless a client draws m >= 1 samples, m an integer (numpy's included)."""
    if not (isinstance(m, Integral) and m >= 1):
        raise ConfigError(f"batch size must be >= 1, got {m}")


def sample_batch(gt, client, m, round_index, seed):
    """Fresh batch ``(x, y)`` of ``m`` samples for one ``client`` at the given round.

    ``x`` is (m, d) and ``y`` (m,).  ``client`` is one id, alone or in a
    list.  The stream is a pure function of ``(seed, client, round_index)``:
    identical triples yield bit-identical batches, distinct rounds yield
    independent ones.
    """
    ids = gt.check_participants(client)
    if not ids.size == 1:
        raise SrpflError(f"sample_batch draws one client's batch, got {ids.size} ids")
    check_sample_count(m)
    rng = substream(seed, TAG_BATCH, ids[0], round_index)
    x = rng.standard_normal((m, gt.d))
    y = x @ (gt.b_star @ gt.w_star[ids[0]])
    if gt.sigma > 0:
        y = y + gt.sigma * rng.standard_normal(m)
    return x, y

