"""Stream addressing: determinism, block stability, and key separation."""

import sys
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
    key = rng._pack_key(2**64 - 1, 1, 1, 2**40 - 1, 2**16 - 1)
    assert key.dtype == np.uint64


def test_key_field_ranges_validated():
    with pytest.raises(ValueError):
        rng._pack_key(1, 16, 0, 0, 0)
    with pytest.raises(ValueError):
        rng._pack_key(1, 0, 16, 0, 0)
    with pytest.raises(ValueError):
        rng._pack_key(1, 0, 0, 1 << 40, 0)
    with pytest.raises(ValueError):
        rng._pack_key(1, 0, 0, 0, 1 << 16)
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


def test_stream_key_trunk_matches_batch_addressing():
    batch = rng.normals(42, rng.NS_TESTING, rng.TRUNK, 0, 4, 20, 3)
    key = rng.StreamKey(seed=42, path=13)
    assert np.array_equal(key.draw_normals(4, 3), batch[13])


def test_stream_key_replications_distinct():
    key0 = rng.StreamKey(seed=42, path=5, replication=1)
    key1 = rng.StreamKey(seed=42, path=5, replication=2)
    assert not np.array_equal(key0.draw_uniforms(3, 4), key1.draw_uniforms(3, 4))
    with pytest.raises(ValueError):
        rng.StreamKey(seed=1, path=-1)


def fresh_words(seed, namespace, stream_class, index, date, n_points, width, first_point):
    """raw_words as a freshly built Philox generator produces them."""
    cpp = -(-width // 4)
    bg = Philox(counter=0, key=rng._pack_key(seed, namespace, stream_class, index, date))
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
