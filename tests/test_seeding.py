import numpy as np

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
