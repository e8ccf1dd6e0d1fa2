"""The stream contract of ``substream``: sample k of the sweep seeded by
seed is the Philox stream keyed by [seed mod 2^64, k mod 2^64]."""
import numpy as np
import pytest

from pshmodels import sampling, substream

MASK64 = (1 << 64) - 1


def _philox(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, -1, -(2 ** 63), 2 ** 64 - 1,
                                  2 ** 64 + 5])
def test_substream_is_the_keyed_philox_stream(seed):
    for j in range(3):
        got, want = substream(seed, 10 ** 6 + j), _philox(seed, 10 ** 6 + j)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert got.random(5).tolist() == want.random(5).tolist()
        assert got.normal(size=5).tolist() == want.normal(size=5).tolist()
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)


def test_keyed_seed_refuses_any_other_request():
    seq = sampling._keyed_seed()([3, 2 ** 64 - 1])
    assert seq.generate_state(2, np.uint64).tolist() == [3, 2 ** 64 - 1]
    for n_words, dtype in ((2, np.uint32), (4, np.uint32), (1, np.uint64),
                           (4, np.uint64)):
        with pytest.raises(RuntimeError):
            seq.generate_state(n_words, dtype)
    # a generator seeded any other way than Philox's key fails loudly
    with pytest.raises(RuntimeError):
        np.random.PCG64(seq)
