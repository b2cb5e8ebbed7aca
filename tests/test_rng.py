"""Stream addressing: determinism, block stability, and key separation."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from nccmc import rng


def test_same_key_same_words():
    a = rng.raw_words(7, rng.NS_TESTING, rng.TRUNK, 0, 3, 100, 2)
    b = rng.raw_words(7, rng.NS_TESTING, rng.TRUNK, 0, 3, 100, 2)
    assert np.array_equal(a, b)


def test_point_blocks_independent_of_batching():
    whole = rng.raw_words(7, rng.NS_TESTING, rng.TRUNK, 0, 3, 100, 5)
    head = rng.raw_words(7, rng.NS_TESTING, rng.TRUNK, 0, 3, 40, 5)
    tail = rng.raw_words(7, rng.NS_TESTING, rng.TRUNK, 0, 3, 60, 5, first_point=40)
    assert np.array_equal(whole, np.vstack([head, tail]))


def test_single_point_matches_batch_row():
    batch = rng.normals(11, rng.NS_TESTING, rng.TRUNK, 0, 2, 50, 3)
    one = rng.normals(11, rng.NS_TESTING, rng.TRUNK, 0, 2, 1, 3, first_point=17)
    assert np.array_equal(batch[17], one[0])


@pytest.mark.parametrize(
    "field,a,b",
    [
        ("seed", (1, 0, 0, 0, 1), (2, 0, 0, 0, 1)),
        ("namespace", (1, 0, 0, 0, 1), (1, 1, 0, 0, 1)),
        ("class", (1, 0, 0, 0, 1), (1, 0, 1, 0, 1)),
        ("index", (1, 0, 1, 5, 1), (1, 0, 1, 6, 1)),
        ("date", (1, 0, 0, 0, 1), (1, 0, 0, 0, 2)),
    ],
)
def test_any_key_field_separates_streams(field, a, b):
    ua = rng.uniforms(*a, 64, 1)
    ub = rng.uniforms(*b, 64, 1)
    assert not np.array_equal(ua, ub), f"streams identical across {field}"


def test_large_seed_keeps_dates_distinct():
    # keys above 2^63 once collapsed through an implicit float64 cast,
    # which made different dates return identical draws
    seed = 0x992E7FB4F2FB6743
    u1 = rng.uniforms(seed, rng.NS_TRAINING, rng.TRUNK, 0, 1, 32, 2)
    u5 = rng.uniforms(seed, rng.NS_TRAINING, rng.TRUNK, 0, 5, 32, 2)
    assert not np.array_equal(u1, u5)


def test_pack_key_dtype_is_unsigned():
    key = rng._pack_key(1, 1, 2**40 - 1, 2**16 - 1)
    assert key.dtype == np.uint64
    assert int(key) == 1 << 60 | 1 << 56 | (2**40 - 1) << 16 | 2**16 - 1


def test_key_field_ranges_validated():
    with pytest.raises(ValueError):
        rng._pack_key(16, 0, 0, 0)
    with pytest.raises(ValueError):
        rng._pack_key(0, 16, 0, 0)
    with pytest.raises(ValueError):
        rng._pack_key(0, 0, 1 << 40, 0)
    with pytest.raises(ValueError):
        rng._pack_key(0, 0, 0, 1 << 16)
    with pytest.raises(ValueError):
        rng.raw_words(1, 0, 0, 0, 0, 10, 0)


def test_uniforms_open_interval():
    u = rng.uniforms(3, rng.NS_TESTING, rng.TRUNK, 0, 1, 100_000, 1)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normals_are_inverse_cdf_of_uniforms():
    u = rng.uniforms(3, rng.NS_TESTING, rng.TRUNK, 0, 1, 1000, 2)
    z = rng.normals(3, rng.NS_TESTING, rng.TRUNK, 0, 1, 1000, 2)
    assert np.array_equal(z, ndtri(u))


def test_derive_seed_stable_and_tag_sensitive():
    s1 = rng.derive_seed(123, "pilot")
    assert s1 == rng.derive_seed(123, "pilot")
    assert s1 != rng.derive_seed(123, "main")
    assert s1 != rng.derive_seed(124, "pilot")
    assert 0 <= s1 < 2**64


def test_stream_key_replications_distinct():
    # one trunk's SUB stream: replications 1 and 2 of date 3 are points 2R and 2R + 1
    R = 2
    u = rng.uniforms(42, rng.NS_TESTING, rng.SUB, 5, 0, R, 4, first_point=2 * R)
    assert not np.array_equal(u[0], u[1])
    with pytest.raises(ValueError):
        rng.uniforms(42, rng.NS_TESTING, rng.SUB, -1, 0, 1, 4)


def fresh_words(seed, namespace, stream_class, index, date, n_points, width, first_point):
    """raw_words as a freshly built Philox generator produces them."""
    cpp = -(-width // 4)
    key = np.array([seed, rng._pack_key(namespace, stream_class, index, date)], dtype=np.uint64)
    bg = Philox(counter=0, key=key)
    bg.advance(first_point * cpp)
    return bg.random_raw(n_points * cpp * 4).reshape(n_points, cpp * 4)[:, :width]


REUSE_CASES = [
    (7, rng.NS_TESTING, rng.TRUNK, 0, 3, 0, 1),
    (7, rng.NS_TESTING, rng.TRUNK, 0, 3, 1, 4),
    (2**64 - 1, rng.NS_TRAINING, rng.SUB, 2**40 - 1, 2**16 - 1, 12345, 5),
    (99, rng.NS_TESTING, rng.SUB, 17, 0, 2**50, 9),
]


@pytest.mark.parametrize("case", REUSE_CASES)
def test_reused_generator_matches_fresh_philox(case):
    *key, first_point, width = case
    for n_points in (0, 1, 33):
        got = rng.raw_words(*key, n_points, width, first_point=first_point)
        assert np.array_equal(got, fresh_words(*key, n_points, width, first_point))


def test_reused_generator_is_per_thread():
    # more threads than cores and a short switch interval, so that a
    # generator shared between threads would be reset under another's draw
    def draw_all(_):
        return [rng.raw_words(*key, 200, width, first_point=fp) for *key, fp, width in REUSE_CASES * 25]

    want = [fresh_words(*key, 200, width, fp) for *key, fp, width in REUSE_CASES * 25]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(draw_all, i) for i in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# --- batched requests --------------------------------------------------------------

def random_requests(gen, k):
    """k requests (index, n_points, first_point) with first points up to 2^50 and some empty."""
    index = gen.integers(0, 1 << 40, size=k)
    n_points = gen.integers(0, 40, size=k)
    n_points[gen.random(k) < 0.2] = 0
    first_point = gen.integers(0, 1 << 50, size=k, endpoint=True)
    return index, n_points, first_point


def one_by_one(fn, seed, namespace, stream_class, date, width, index, n_points, first_point):
    rows = [fn(seed, namespace, stream_class, int(i), date, int(n), width, first_point=int(f))
            for i, n, f in zip(index, n_points, first_point)]
    return np.concatenate(rows) if rows else np.empty((0, width))


@pytest.mark.parametrize("fn", [rng.raw_words, rng.uniforms, rng.normals])
@pytest.mark.parametrize("width", range(1, 10))
def test_batched_call_concatenates_one_request_calls(fn, width):
    gen = np.random.default_rng(width)
    for k in (0, 1, 2, 17):
        index, n_points, first_point = random_requests(gen, k)
        got = fn(2**64 - 1, rng.NS_TRAINING, rng.SUB, index, 0, n_points, width, first_point=first_point)
        want = one_by_one(fn, 2**64 - 1, rng.NS_TRAINING, rng.SUB, 0, width, index, n_points, first_point)
        assert got.shape == (n_points.sum(), width)
        assert np.array_equal(got, want)


def reference_uniforms(words):
    """The uniform conversion written out on a copy: 53 bits, scaled, shifted half an ulp."""
    return (words >> np.uint64(11)).astype(float) * 2.0**-53 + 2.0**-54


@pytest.mark.parametrize("width", range(1, 10))
def test_conversions_of_raw_words_are_the_variates(width):
    # batched requests with first points up to 2^50, and one past 2^63 whose
    # counter carries into the second word once a point owns two counters
    index, n_points, first_point = random_requests(np.random.default_rng(100 + width), 17)
    first_point = first_point.astype(np.uint64)
    first_point[0], n_points[0] = (1 << 63) + 3, 5
    key = (9, rng.NS_TESTING, rng.SUB)
    conversions = ((rng.to_uniforms, rng.uniforms, reference_uniforms),
                   (rng.to_normals, rng.normals, lambda w: ndtri(reference_uniforms(w))))
    for convert, public, reference in conversions:
        words = rng.raw_words(*key, index, 0, n_points, width, first_point=first_point)
        got = convert(words)
        assert np.shares_memory(got, words)  # converted in place
        assert np.array_equal(got, public(*key, index, 0, n_points, width, first_point=first_point))
        want = [reference(fresh_words(*key, int(i), 0, int(n), width, int(f)))
                for i, n, f in zip(index, n_points, first_point)]
        assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("width", [1, 3, 4])
def test_conversion_in_place_holds_no_copy_of_its_input(width):
    # 2^21 words (16 MB) in rows of `width`, a strided view unless width is 4;
    # numpy copies a uint64 array it casts into a float view of itself, so a
    # conversion in one pass peaks at the size of its input
    words = rng.raw_words(3, rng.NS_TESTING, rng.TRUNK, 0, 1, 2**21 // width, width)
    want = ndtri(reference_uniforms(words))
    tracemalloc.start()
    try:
        got = rng.to_normals(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(got, words)
    assert np.array_equal(got, want)
    assert peak < 2**21 * 8 / 10, peak


def test_one_request_holds_its_words_once():
    # 16,384 width-5 points own two counters each: one request returns
    # Philox's own buffer of 8 words a point, where a copy would peak at twice that
    n, width = 16384, 5
    tracemalloc.start()
    try:
        one = rng.raw_words(3, rng.NS_TESTING, rng.SUB, 7, 0, n, width, first_point=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * n * rng.words_per_point(width) * 8, peak
    # the same points, taken from a batched call whose second request holds them
    batch = rng.raw_words(3, rng.NS_TESTING, rng.SUB, np.array([2, 7]), 0, np.array([5, n + 20]),
                          width, first_point=np.array([0, 0]))
    assert np.array_equal(one, batch[5 + 11:5 + 11 + n])


def test_counter_past_two_to_the_64_keeps_its_high_words():
    # width 9 owns 3 counters a point, so this first point's counter is about
    # 2^64.6: it carries into the counter's second word
    first = (1 << 63) - 1000
    assert 3 * first >= 1 << 64
    index, n_points, first_point = np.array([3, 3, 4]), np.array([5, 0, 2]), np.array([first, 0, 7])
    got = rng.raw_words(11, rng.NS_TESTING, rng.SUB, index, 0, n_points, 9, first_point=first_point)
    assert np.array_equal(got[:5], fresh_words(11, rng.NS_TESTING, rng.SUB, 3, 0, 5, 9, first))
    assert np.array_equal(got[5:], fresh_words(11, rng.NS_TESTING, rng.SUB, 4, 0, 2, 9, 7))
    # the same stream restarted at counter zero gives other words
    assert not np.array_equal(got[:5], fresh_words(11, rng.NS_TESTING, rng.SUB, 3, 0, 5, 9, 0))


@pytest.mark.parametrize("index,n_points,first_point", [
    ([1, 1 << 40, 2], [3, 3, 3], [0, 0, 0]),     # index out of range mid-batch
    ([1, -1, 2], [3, 3, 3], [0, 0, 0]),
    ([1, 2, 3], [3, -1, 3], [0, 0, 0]),          # negative point range mid-batch
    ([1, 2, 3], [3, 3, 3], [0, -5, 0]),
    ([1, 2, 3], [3, 3], [0, 0, 0]),              # one entry per request
])
def test_every_request_is_checked(index, n_points, first_point):
    with pytest.raises(ValueError):
        rng.normals(1, rng.NS_TESTING, rng.SUB, np.array(index), 0, np.array(n_points), 5,
                    first_point=np.array(first_point))


def test_requests_must_be_integers():
    with pytest.raises(TypeError):
        rng.uniforms(1, rng.NS_TESTING, rng.SUB, np.array([1.0]), 0, np.array([3]), 1)
    with pytest.raises(TypeError):
        rng.uniforms(1, rng.NS_TESTING, rng.SUB, 1, 0, 3, 1, first_point=1.5)


def test_batched_calls_are_per_thread():
    # as test_reused_generator_is_per_thread, with every call a batch of
    # requests switching streams inside one call
    batches = [(width, *random_requests(np.random.default_rng(width), 30)) for width in range(1, 10)]
    want = [one_by_one(rng.normals, 5, rng.NS_TESTING, rng.SUB, 0, width, *req) for width, *req in batches]

    def draw_all(_):
        return [rng.normals(5, rng.NS_TESTING, rng.SUB, index, 0, n_points, width, first_point=first_point)
                for width, index, n_points, first_point in batches * 5]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(draw_all, i) for i in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(np.array_equal(g, w) for g, w in zip(got, want * 5))
