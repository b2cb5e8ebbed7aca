"""Counter-based random streams.

Every normal or uniform variate consumed anywhere in the package is addressed
by a structured key (seed, namespace, stream class, stream index, date) plus a
point offset within the stream.  Streams are realised with the Philox counter
generator, so any sub-block of a stream can be produced independently of the
rest.  This is what makes estimates reproducible bit for bit regardless of
chunking, thread count, or whether a path is generated alone or inside a
batch.

Addressing scheme
-----------------
Philox takes a 128-bit key.  The first word is the user seed, the second packs
the remaining coordinates:

    key[1] = namespace << 60 | stream_class << 56 | index << 16 | date

Within a stream, point ``k`` owns a fixed block of counter values.  Philox
emits four 64-bit words per counter increment, so a point needing ``width``
variates owns ``ceil(width / 4)`` counter units; ``advance`` then jumps
straight to any point without generating its predecessors.

Trunk streams are keyed per date and addressed by path index.  Subsample
streams come in two layouts that never collide because they use disjoint
date keys: the estimator keys one stream per trunk (class SUB, date key 0)
and addresses point (j - 1) * R + (r - 1) for replication r's date-j draw,
which lets a trunk fetch all its continuation noise in one call; the
single-path StreamKey API keys (class SUB, date key j >= 1) addressed by
replication, independent draws for ad-hoc continuations.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

# Stream classes.  TRUNK streams are indexed by date and addressed by path;
# SUB streams are indexed by (trunk path, date) and addressed by replication.
TRUNK = 0
SUB = 1

# Seed namespaces.  Training draws and testing draws can never collide even
# under an identical user seed because the namespace is baked into the key.
NS_TESTING = 0
NS_TRAINING = 1

_MASK64 = (1 << 64) - 1

# Philox-4x64 emits this many raw words per counter increment.
_WORDS_PER_COUNTER = 4


def derive_seed(seed: int, tag: str) -> int:
    """Derive a stable sub-seed from a base seed and a short label.

    Used to give each arm of an experiment (training, pilot, each estimator
    variant) its own seed without the caller having to invent numbers.  The
    derivation is deterministic across platforms.
    """
    entropy = (int(seed) & _MASK64, zlib.crc32(tag.encode("utf-8")))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _pack_key(seed: int, namespace: int, stream_class: int, index: int, date: int) -> np.ndarray:
    if not 0 <= namespace < 16:
        raise ValueError(f"namespace out of range: {namespace}")
    if not 0 <= stream_class < 16:
        raise ValueError(f"stream class out of range: {stream_class}")
    if not 0 <= index < (1 << 40):
        raise ValueError(f"stream index out of range: {index}")
    if not 0 <= date < (1 << 16):
        raise ValueError(f"date index out of range: {date}")
    packed = (namespace << 60) | (stream_class << 56) | (index << 16) | date
    # dtype must be explicit: a plain int list with a word above 2^63 would
    # be coerced to float64, silently rounding away the low key bits
    return np.array([int(seed) & _MASK64, packed], dtype=np.uint64)


def _counters_per_point(width: int) -> int:
    return -(-width // _WORDS_PER_COUNTER)


_local = threading.local()


def _philox_at(key: np.ndarray, counter: int) -> Philox:
    """This thread's Philox generator, set to (key, counter) with an empty buffer.

    Setting the state of one generator per thread gives the same words as
    building ``Philox(counter=0, key=key)`` and advancing it by ``counter``,
    without the fresh OS-entropy seed sequence every build draws.
    """
    bg = getattr(_local, "philox", None)
    if bg is None:
        bg = _local.philox = Philox(counter=0, key=key)
    bg.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(counter >> s) & _MASK64 for s in (0, 64, 128, 192)], dtype=np.uint64),
            "key": key,
        },
        "buffer": np.zeros(_WORDS_PER_COUNTER, dtype=np.uint64),
        "buffer_pos": _WORDS_PER_COUNTER,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg


def raw_words(
    seed: int,
    namespace: int,
    stream_class: int,
    index: int,
    date: int,
    n_points: int,
    width: int,
    first_point: int = 0,
) -> np.ndarray:
    """Raw 64-bit words for points [first_point, first_point + n_points).

    Returns shape (n_points, width).  Point k always occupies the same
    counter block no matter how the request is split up.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if n_points < 0 or first_point < 0:
        raise ValueError("negative point range")
    cpp = _counters_per_point(width)
    words = cpp * _WORDS_PER_COUNTER
    out = np.empty((n_points, width), dtype=np.uint64)
    if n_points == 0:
        return out
    bg = _philox_at(_pack_key(seed, namespace, stream_class, index, date), first_point * cpp)
    raw = bg.random_raw(n_points * words)
    out[:] = raw.reshape(n_points, words)[:, :width]
    return out


def uniforms(
    seed: int,
    namespace: int,
    stream_class: int,
    index: int,
    date: int,
    n_points: int,
    width: int,
    first_point: int = 0,
) -> np.ndarray:
    """Uniform (0, 1) variates, open at both ends."""
    raw = raw_words(seed, namespace, stream_class, index, date, n_points, width, first_point)
    # 53-bit mantissa plus a half-ulp shift keeps 0 and 1 unattainable.
    return (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54


def normals(
    seed: int,
    namespace: int,
    stream_class: int,
    index: int,
    date: int,
    n_points: int,
    width: int,
    first_point: int = 0,
) -> np.ndarray:
    """Standard normal variates via inverse-CDF, shape (n_points, width)."""
    return ndtri(uniforms(seed, namespace, stream_class, index, date, n_points, width, first_point))


@dataclass(frozen=True, slots=True)
class StreamKey:
    """Addresses the randomness of one path or one continuation.

    ``replication`` 0 denotes the path's own (trunk) stream; replication
    r >= 1 denotes the r-th conditionally independent continuation hanging
    off that path.  Two keys differing in any field index disjoint counter
    blocks, hence independent variates.
    """

    seed: int
    namespace: int = NS_TESTING
    path: int = 0
    replication: int = 0

    def __post_init__(self) -> None:
        if self.path < 0 or self.replication < 0:
            raise ValueError("path and replication must be non-negative")

    def draw_normals(self, date: int, width: int) -> np.ndarray:
        """Normals for this key at one date, shape (width,)."""
        if self.replication == 0:
            block = normals(self.seed, self.namespace, TRUNK, 0, date, 1, width, first_point=self.path)
        else:
            block = normals(
                self.seed, self.namespace, SUB, self.path, date, 1, width, first_point=self.replication - 1
            )
        return block[0]

    def draw_uniforms(self, date: int, width: int) -> np.ndarray:
        """Uniforms for this key at one date, shape (width,)."""
        if self.replication == 0:
            block = uniforms(self.seed, self.namespace, TRUNK, 0, date, 1, width, first_point=self.path)
        else:
            block = uniforms(
                self.seed, self.namespace, SUB, self.path, date, 1, width, first_point=self.replication - 1
            )
        return block[0]
