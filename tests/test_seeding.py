import itertools
import tracemalloc

import numpy as np
import pytest

from sirkn import seeding


def test_stream_keeps_its_sequence_across_other_streams():
    want = seeding.stream(11).random(8)
    gen = seeding.stream(11)
    head = gen.random(4)
    seeding.stream(12).random(4)
    np.testing.assert_array_equal(np.concatenate((head, gen.random(4))), want)


def test_stream_is_philox_keyed_by_the_key():
    for key in (0, 7, seeding.derive_key(3, 1), (1 << 63) + 5, seeding.MASK64):
        want = np.random.Generator(np.random.Philox(key=key))
        got = seeding.stream(key)
        np.testing.assert_array_equal(got.random(5), want.random(5))
        np.testing.assert_array_equal(got.integers(0, 1000, size=5),
                                      want.integers(0, 1000, size=5))


@pytest.mark.parametrize("key", [0, 7, (1 << 63) + 5, seeding.MASK64])
def test_child_key_is_the_salted_mix_of_array_callers(key):
    n = 50
    salted = seeding.child_keys(key, np.arange(n))
    assert [seeding.child_key(key, j) for j in range(n)] == [int(h) for h in salted]


def test_child_keys_makes_one_array_and_writes_no_input():
    # The result (8 MB), the caller's indices (8 MB) and one temporary of
    # the in-place mix: a copy of the result would add 8 MB.
    tracemalloc.start()
    try:
        js = np.arange(10**6)
        seeding.child_keys(7, js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24.5e6
    keys = np.arange(5, dtype=np.uint64)
    idx = np.arange(5, dtype=np.uint64)
    seeding.child_keys(keys, idx)
    np.testing.assert_array_equal(keys, np.arange(5))
    np.testing.assert_array_equal(idx, np.arange(5))


def test_derive_key_values_are_pinned():
    # Every stream and environment key is derived from these; a change here
    # changes every sample.
    assert seeding.derive_key() == 0x9E3779B97F4A7C15
    assert seeding.derive_key(0) == 0x9F8C483A1CD5B002
    assert seeding.derive_key(7) == 0xD1E5CB17F70BDA16
    assert seeding.derive_key(3, 1) == 0xCCA908013E42711B
    assert seeding.derive_key(31, 0x454E56, 2, 5) == 0x9B3381DBFA5B534C
    assert seeding.derive_key(-1) == 0xE220A8397B1DCDAF
    assert seeding.derive_key(seeding.MASK64, 1 << 70) == 0x5908D5698A8F5AA3


def test_pair_quantile_inlines_uniform01_of_the_pair_index():
    # The engine's scalar weight: the uniform of the key's child at the pair
    # index lo + 2**32 hi, in either argument order, through the law's quantile.
    vertices = [0, 1, 4, 12_345, (1 << 32) - 1]
    for key in (0, 7, (1 << 63) + 5, seeding.MASK64, seeding.derive_key(9)):
        u = seeding.pair_quantile(key, 0.0, 0.0, 0.0, 1.0)
        cut = seeding.pair_quantile(key, 0.5, 0.25, 0.75, 0.0)
        for lo, hi in itertools.combinations(vertices, 2):
            want = (seeding.child_key(key, lo + (hi << 32)) >> 11) * 2**-53
            assert u(lo, hi) == u(hi, lo) == want
            assert cut(hi, lo) == (0.25 if want < 0.5 else 0.75)
