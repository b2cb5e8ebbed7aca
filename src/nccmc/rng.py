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
streams are keyed one per trunk (class SUB, index the trunk's path, date
key 0) and address point (j - 1) * R + (r - 1) for replication r's date-j
draw, so a trunk's continuation noise from any date on is one point range.

Batched requests
----------------
``raw_words``, ``uniforms`` and ``normals`` take the stream index, point
count and first point either as scalars (one request) or as equal-length
integer arrays (one request per entry, sharing seed, namespace, stream
class and date), and return the requests' rows concatenated in request
order.  Stage two fetches a whole sub-batch of trunks this way in one call:
each call builds one generator, and the per-request loop only re-keys it
and fills one raw buffer.  No generator outlives its call, so threads never
share one.  ``to_uniforms`` and ``to_normals`` convert raw words to
variates in place, in row blocks that bound numpy's cast copy;
``uniforms`` and ``normals`` are those conversions of ``raw_words``.  A
point's words do not depend on how points are grouped, so the engine draws
raw words and converts only the rows of the lanes it steps.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

# Stream classes.  TRUNK streams are keyed by date and addressed by path;
# SUB streams are keyed by trunk path and addressed by (date, replication).
TRUNK = 0
SUB = 1

# Seed namespaces.  Training draws and testing draws can never collide even
# under an identical user seed because the namespace is baked into the key.
NS_TESTING = 0
NS_TRAINING = 1

# Date keys fill the packed key's low 16 bits, so a model has at most this
# many dates (0..DATE_LIMIT - 1).
DATE_LIMIT = 1 << 16

_MASK64 = (1 << 64) - 1

# Philox-4x64 emits this many raw words per counter increment.
_WORDS_PER_COUNTER = 4

# Words per block of to_uniforms' conversion (128 KB).
_CONVERT_WORDS = 2**14


def derive_seed(seed: int, tag: str) -> int:
    """Derive a stable sub-seed from a base seed and a short label.

    Used to give each arm of an experiment (training, pilot, each estimator
    variant) its own seed without the caller having to invent numbers.  The
    derivation is deterministic across platforms.
    """
    entropy = (int(seed) & _MASK64, zlib.crc32(tag.encode("utf-8")))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _integers(x, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise TypeError(f"{what} must be an integer or an integer array")
    return x


def _pack_key(namespace: int, stream_class: int, index, date: int) -> np.ndarray:
    """Philox's packed key word (key[1]) for one index, or one word per index of an array."""
    if not 0 <= namespace < 16:
        raise ValueError(f"namespace out of range: {namespace}")
    if not 0 <= stream_class < 16:
        raise ValueError(f"stream class out of range: {stream_class}")
    if not 0 <= date < DATE_LIMIT:
        raise ValueError(f"date index out of range: {date}")
    index = _integers(index, "stream index")
    bad = (index < 0) | (index >= (1 << 40))
    if bad.any():
        raise ValueError(f"stream index out of range: {index[bad].flat[0]}")
    # dtype must be explicit: a plain int list with a word above 2^63 would
    # be coerced to float64, silently rounding away the low key bits
    fields = np.uint64((namespace << 60) | (stream_class << 56) | date)
    return fields | (index.astype(np.uint64) << np.uint64(16))


def words_per_point(width: int) -> int:
    """Raw words one point of ``width`` variates occupies: whole Philox counters."""
    return -(-width // _WORDS_PER_COUNTER) * _WORDS_PER_COUNTER


def raw_words(seed: int, namespace: int, stream_class: int, index, date: int, n_points, width: int,
              first_point=0) -> np.ndarray:
    """Raw 64-bit words for points [first_point, first_point + n_points) of stream ``index``.

    ``index``, ``n_points`` and ``first_point`` are either scalars (one
    request) or equal-length integer arrays (one request per entry, all of
    one seed, namespace, stream class and date).  Returns shape
    (total points, width): the requests' rows concatenated in request
    order, a view of the whole-counter rows when width is not a multiple of
    4.  Point k always occupies the same counter block no matter how the
    request is split up.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    keys = _pack_key(namespace, stream_class, index, date).ravel()
    counts = _integers(n_points, "n_points").ravel()
    starts = _integers(first_point, "first_point").ravel()
    if not keys.size == counts.size == starts.size:
        raise ValueError("index, n_points and first_point must have one entry per request")
    if np.any(counts < 0) or np.any(starts < 0):
        raise ValueError("negative point range")
    words = words_per_point(width)
    cpp = words // _WORDS_PER_COUNTER
    # a request re-keys this call's generator by assigning a state of plain
    # ints, which the setter converts faster than numpy scalars: the words of
    # Philox(counter=0, key=key) advanced by the counter, without a fresh
    # OS-entropy seed sequence per request.  The buffer stays empty, so each
    # request starts on a whole counter
    bg = Philox(counter=0, key=np.zeros(2, dtype=np.uint64))
    key, counter = [int(seed) & _MASK64, 0], [0, 0, 0, 0]
    state = {**bg.state, "state": {"counter": counter, "key": key}, "buffer": [0, 0, 0, 0]}

    def draw(packed: int, n: int, first: int) -> np.ndarray:
        # first < 2^64 (an integer array entry), so the counter fits its two
        # low words and the high two stay zero
        c = first * cpp
        key[1] = packed
        counter[0] = c & _MASK64
        counter[1] = c >> 64
        bg.state = state
        return bg.random_raw(n * words)

    requests = zip(keys.tolist(), counts.tolist(), starts.tolist())
    if counts.size == 1:
        # one request: Philox's own buffer, no copy
        out = draw(*next(requests))
    else:
        out = np.empty(int(counts.sum()) * words, dtype=np.uint64)
        at = 0
        for packed, n, first in requests:
            if n:
                out[at:at + n * words] = draw(packed, n, first)
                at += n * words
    return out.reshape(-1, words)[:, :width]


def to_uniforms(words: np.ndarray) -> np.ndarray:
    """Uniform (0, 1) variates from raw words, open at both ends, overwriting ``words``."""
    # 53-bit mantissa plus a half-ulp shift keeps 0 and 1 unattainable
    np.right_shift(words, np.uint64(11), out=words)
    u = words.view(np.float64)
    # numpy copies a uint64 input it casts into a float view of itself, so
    # convert in row blocks of about _CONVERT_WORDS words to keep that copy small
    rows = max(1, _CONVERT_WORDS // max(1, math.prod(words.shape[1:])))
    for s in range(0, len(words), rows):
        np.multiply(words[s:s + rows], 2.0**-53, out=u[s:s + rows])
    u += 2.0**-54
    return u


def to_normals(words: np.ndarray) -> np.ndarray:
    """Standard normal variates via inverse-CDF from raw words, overwriting ``words``."""
    u = to_uniforms(words)
    return ndtri(u, out=u)


def uniforms(*request, **kwargs) -> np.ndarray:
    """Uniform (0, 1) variates: ``to_uniforms`` of ``raw_words(*request, **kwargs)``."""
    return to_uniforms(raw_words(*request, **kwargs))


def normals(*request, **kwargs) -> np.ndarray:
    """Standard normal variates: ``to_normals`` of ``raw_words(*request, **kwargs)``."""
    return to_normals(raw_words(*request, **kwargs))
