"""The seeded stream the verify suites draw from, and the projector suite's class check."""

import math
import random

import numpy as np
import pytest

from spinorlab.verify import _SampleStream, _any_class_but

SPLITS = [(0, 0), (0, 5), (1, 1), (1, 2), (2, 1), (3, 3), (3, 4), (5, 7), (16, 3), (1023, 1), (1024, 1025)]


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n, m", SPLITS)
def test_drawing_n_plus_m_normals_equals_drawing_n_then_m(n, m):
    whole = _SampleStream(7).standard_normal(n + m)
    stream = _SampleStream(7)
    parts = np.concatenate([stream.standard_normal(n), stream.standard_normal(m)])
    assert np.array_equal(bits(whole), bits(parts))


@pytest.mark.parametrize("n, m", SPLITS)
def test_a_uniform_between_two_draws_reads_the_same_words_however_the_draws_split(n, m):
    one_call, one_at_a_time = _SampleStream(11), _SampleStream(11)
    first = one_call.standard_normal(n)
    first_singly = [one_at_a_time.standard_normal(1)[0] for _ in range(n)]
    middle = one_call.uniform(0.5, 2.0), one_at_a_time.uniform(0.5, 2.0)
    last = one_call.standard_normal(m)
    last_singly = [one_at_a_time.standard_normal(1)[0] for _ in range(m)]
    assert np.array_equal(bits(first), bits(first_singly))
    assert middle[0] == middle[1]
    assert np.array_equal(bits(last), bits(last_singly))


def test_a_block_draw_is_its_samples_drawn_one_at_a_time_in_c_order():
    block = _SampleStream(3).standard_normal((5, 3, 4))
    stream = _SampleStream(3)
    rows = [[stream.standard_normal(4) for _ in range(3)] for _ in range(5)]
    assert block.shape == (5, 3, 4)
    assert np.array_equal(bits(block), bits(rows))


def test_the_same_seed_gives_the_same_values_and_another_seed_others():
    def draws(seed):
        stream = _SampleStream(seed)
        return [stream.uniform(0, 2 * np.pi), *stream.standard_normal(5), stream.uniform(-1, 1),
                *stream.standard_normal((2, 2)).ravel()]

    assert bits(draws(4)).tolist() == bits(draws(4)).tolist()
    assert not set(draws(4)) & set(draws(5))


def test_the_draws_are_53_bit_uniforms_and_box_muller_pairs_of_the_seeds_bytes():
    source = random.Random(9)
    words = [int.from_bytes(source.randbytes(8), "little") >> 11 for _ in range(7)]
    stream = _SampleStream(9)
    assert stream.uniform(-1.0, 3.0) == -1.0 + 4.0 * (words[0] * 2.0**-53)
    normals = stream.standard_normal(3)  # the pairs of words 1-2 and 3-4, and one spare
    assert stream.uniform(0.0, 1.0) == words[5] * 2.0**-53  # the spare takes no word
    got = [*normals, *stream.standard_normal(1)]
    assert stream.uniform(0.0, 1.0) == words[6] * 2.0**-53
    want = []
    for u1, u2 in (words[1:3], words[3:5]):
        radius = math.sqrt(-2.0 * math.log((2**53 - u1) * 2.0**-53))
        angle = u2 * (2.0**-53 * 2.0 * math.pi)
        want += [radius * math.cos(angle), radius * math.sin(angle)]
    # libm and numpy may round the logarithm and the angles apart by an ulp
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_the_normals_have_the_standard_moments_and_the_uniforms_their_range():
    stream = _SampleStream(0)
    x = stream.standard_normal(200_000)
    assert abs(x.mean()) < 0.01 and abs(x.std() - 1) < 0.01 and abs(np.mean(x**4) - 3) < 0.05
    u = [stream.uniform(0.5, 2.0) for _ in range(2000)]
    assert 0.5 <= min(u) and max(u) < 2.0 and abs(np.mean(u) - 1.25) < 0.03


def test_a_null_column_is_not_of_any_class_and_fails_the_class_check():
    flagpole = np.array([[1.0, 0.0, 0.0, 1j]])  # standard column of a Majorana spinor: class 5
    assert not _any_class_but(flagpole, 5) and _any_class_but(flagpole, 4)
    assert _any_class_but(np.vstack([flagpole, np.zeros((1, 4))]), 5)
    assert _any_class_but(np.zeros((3, 4), dtype=complex), 5)
