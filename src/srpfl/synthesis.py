"""Hidden ground-truth model with the checks of its arguments and of a participant list, substreams and client batches.

Client ``i`` observes pairs ``(x, y)`` with ``x ~ N(0, I_d)`` and
``y = w_i*^T B*^T x + z``, ``z ~ N(0, sigma^2)``.  All randomness is
drawn from counter-based substreams keyed on the seed and a purpose key
(see :func:`substream`), so every draw is a pure function of the config.
Every purpose key starts with one of the ``TAG_*`` constants below.
:func:`substream` returns numpy's ``default_rng(SeedSequence(seed,
spawn_key=key))`` bit for bit without building the ``SeedSequence``: it
runs that class's published entropy hash itself, memoizing the mixed pool
of ``(seed, key[:-1])``, and hashes the PCG64 states of the 64 aligned
values of ``key[-1]`` that share that pool at once, as one array, into a
block table (:func:`_block_states`) that holds a run's live blocks, so a
round's generator only indexes a row.  The hash is written once,
elementwise, for Python ints and uint64 arrays alike, and the tests hold
it to numpy's class as the oracle.
:func:`sample_batch` keys its stream on ``(seed, client, round)`` and
draws one client's full rows ``(x, y)``; the self-checks and the test oracles use it.
The warm start and a training round draw their clients' data themselves,
from one stream per call (see :mod:`srpfl.fedrep`).
"""

import functools
import math
import operator
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


# numpy's SeedSequence hash: entropy words are hashed into a pool of four
# 32-bit words, and the pool is hashed into a bit generator's state words
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix of the entropy words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# the state hash's constants INIT_B * MULT_B**i: PCG64 reads eight 32-bit words, and word i
# is pool[i % 4] xor-ed with constant i and multiplied by constant i + 1
_STATE_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 2**32) & _MASK32 for i in range(9)], dtype=np.uint64)
# substream hashes the PCG64 states of 64 consecutive values of a key's last element at
# once.  The cache holds a block for each of the four key prefixes a run draws from in
# turn (single tags, rounds, active sets, timing draws), not a sweep's blocks: the next
# run's blocks evict them
_BLOCK = 64
_LIVE_BLOCKS = 4


def check_seed(seed):
    """Raise :class:`ConfigError` unless the seed is an integer >= 0 (numpy's included)."""
    if not _is_natural(seed):
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _is_natural(value):
    """True for an integer >= 0, numpy's included."""
    try:
        return operator.index(value) >= 0  # a tenth of the cost of isinstance(value, Integral)
    except TypeError:
        return False


def substream(seed, *key):
    """Independent generator for the given purpose key under a master seed.

    Bit for bit ``np.random.default_rng(np.random.SeedSequence(seed,
    spawn_key=key))``, with no ``SeedSequence`` built: the seed, zero-padded
    to the pool size, and each key element enter SeedSequence's entropy hash
    as 32-bit little-endian words, and the pool's output hash gives PCG64 its
    state.  The state words come from :func:`_block_states`, which hashes
    them for the 64 aligned values of ``key[-1]`` (the round or id that
    changes from call to call) that share ``seed`` and ``key[:-1]`` at once,
    so a run's rounds pay one hash per 64 rounds and a call only indexes a
    row.  Refuses a seed or key element that is not an integer >= 0 (numpy's
    included) before anything is drawn.
    """
    check_seed(seed)
    for part in key:
        if not _is_natural(part):
            raise ConfigError(f"substream key must hold integers >= 0, got {part}")
    seed, key = operator.index(seed), tuple(map(operator.index, key))
    if key:
        state = _block_states(seed, key[:-1], key[-1] // _BLOCK)[key[-1] % _BLOCK]
    else:
        state = _pcg64_state(_prefix_pool(seed, ())[0])
    return np.random.Generator(np.random.PCG64(_state_sequence()(state)))


def _words(n):
    """The 32-bit words of an integer n >= 0, least significant first; 0 is one word."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


# The hash below is elementwise: a word is a Python int or a uint64 array of 32-bit
# values, whose products of two words fit in 64 bits and whose differences wrap
# modulo 2**64, so masking to 32 bits gives both the same result.  No step updates
# its input words in place, since one key word's array is hashed into every pool word.

def _hashmix(value, hash_const):
    """SeedSequence's ``hashmix`` of one word, and the hash constant it leaves."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    """SeedSequence's ``mix`` of two words."""
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _absorb(pool, hash_const, words):
    """SeedSequence's mix of entropy words beyond the pool size into every pool word,
    and the hash constant it leaves."""
    for word in words:
        mixed = []
        for value in pool:
            hashed, hash_const = _hashmix(word, hash_const)
            mixed.append(_mix(value, hashed))
        pool = mixed
    return pool, hash_const


@functools.lru_cache(maxsize=64)
def _prefix_pool(seed, prefix):
    """SeedSequence's pool, as a tuple, and its hash constant after the seed's words,
    zero-padded to the pool size, and the words of each element of ``prefix``."""
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy)) + [word for part in prefix for word in _words(part)]
    pool, hash_const = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):  # every word into every other, so late words reach early ones
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    pool, hash_const = _absorb(pool, hash_const, entropy[_POOL_SIZE:])
    return tuple(pool), hash_const


def _pcg64_state(pool):
    """The pool's state hash as PCG64's four uint64 state words, low word first: a
    4-vector, or one row of four per element for a pool of word arrays."""
    words = np.stack([np.asarray(pool[i % _POOL_SIZE], dtype=np.uint64) for i in range(8)], axis=-1)
    words = (words ^ _STATE_HASH[:8]) * _STATE_HASH[1:] & _MASK32
    words ^= words >> 16
    return words[..., 0::2] | words[..., 1::2] << 32


@functools.lru_cache(maxsize=_LIVE_BLOCKS)
def _block_states(seed, prefix, block):
    """PCG64's state words for the keys ``prefix + (value,)`` with ``value`` in
    ``block * 64 .. block * 64 + 63``, as a read-only C-contiguous 64 x 4 uint64
    array whose row ``value % 64`` is that key's state (PCG64 reads a row's memory
    as it lies, so a strided row would be misread).

    2**32 is a multiple of the block size, so the values of a block share every
    word but the lowest, which is hashed as one array.
    """
    pool, hash_const = _prefix_pool(seed, prefix)
    first = block * _BLOCK
    low = np.arange(first & _MASK32, (first & _MASK32) + _BLOCK, dtype=np.uint64)
    pool, _ = _absorb(pool, hash_const, [low] + _words(first)[1:])
    states = _pcg64_state(pool)
    states.setflags(write=False)
    return states


@functools.cache
def _state_sequence():
    """The seed-sequence type through which PCG64 takes ready state words.

    It subclasses numpy's public ``ISeedSequence``, so defining it loads
    ``numpy.random``; that happens at the first draw, not on import.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateSequence(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if not (n_words == self.state.size and np.dtype(dtype) == self.state.dtype):
                raise SrpflError(f"holds {self.state.size} {self.state.dtype} state words, not {n_words} {dtype}")
            return self.state

    return StateSequence


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
        check_seed(seed)

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

