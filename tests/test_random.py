"""Keyed random streams: every draw equals a fresh Philox generator keyed
by blake2b(seed|label|counter), whatever draws other streams make."""

import hashlib

import numpy as np
import pytest

from recurfit.errors import ContractError
from recurfit.random import RandomStream


def fresh(seed, label, counter):
    material = f"{seed}|{label}|{counter}".encode()
    key = hashlib.blake2b(material, digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))


DRAWS = [
    ("normal", lambda s: s.normal((3, 2), 0.5, 2.0),
     lambda g: (g.standard_normal((3, 2)) * 2.0 + 0.5).astype(np.float64)),
    ("uniform", lambda s: s.uniform((5,), -1.0, 3.0),
     lambda g: g.uniform(-1.0, 3.0, (5,))),
    ("integers", lambda s: s.integers(0, 1000, (7,)),
     lambda g: g.integers(0, 1000, size=(7,))),
    ("poisson", lambda s: s.poisson(3.7), lambda g: int(g.poisson(3.7))),
    ("permutation", lambda s: s.permutation(9), lambda g: g.permutation(9)),
    ("choice", lambda s: s.choice(4, np.array([0.1, 0.2, 0.3, 0.4])),
     lambda g: int(g.choice(4, p=np.array([0.1, 0.2, 0.3, 0.4])))),
]


@pytest.mark.parametrize("kind,draw,oracle", DRAWS, ids=[d[0] for d in DRAWS])
def test_draw_equals_fresh_generator(kind, draw, oracle):
    for seed in (0, 1, 12345):
        stream = RandomStream(seed, "keys")
        for counter in range(4):
            got = draw(stream)
            want = oracle(fresh(seed, "keys", counter))
            assert np.array_equal(got, want), (kind, seed, counter)


def test_interleaved_streams_do_not_disturb_each_other():
    a, b = RandomStream(3, "a"), RandomStream(3, "b")
    for counter in range(len(DRAWS)):
        for stream, label, shift in ((a, "a", 0), (b, "b", 3)):
            _, draw, oracle = DRAWS[(counter + shift) % len(DRAWS)]
            assert np.array_equal(draw(stream),
                                  oracle(fresh(3, label, counter)))


def test_normal_zero_std_gives_mean():
    draw = RandomStream(0, "x").normal((4, 4), mean=2.5, std=0.0)
    np.testing.assert_array_equal(draw, np.full((4, 4), 2.5))


def test_normal_negative_std_rejected():
    with pytest.raises(ContractError):
        RandomStream(0, "x").normal((2,), 0.0, -1.0)


def test_normal_statistics():
    draw = RandomStream(7, "stats").normal((100_000,), 0.0, 1.0)
    assert abs(draw.mean()) < 4 / np.sqrt(100_000)
    assert abs(draw.std() - 1.0) < 0.02


def test_normal_deterministic():
    a = RandomStream(3, "lbl").normal((16,), 0.0, 1.0)
    b = RandomStream(3, "lbl").normal((16,), 0.0, 1.0)
    np.testing.assert_array_equal(a, b)
