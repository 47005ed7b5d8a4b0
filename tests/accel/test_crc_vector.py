"""The numpy CRC-32C vector fold against the pure reference.

The equivalence suite caps CRC inputs at a few KiB, well below the
numpy kernel's size threshold and far below its gather block, so these
cases cover what it cannot reach at the real threshold: lengths across
the threshold, odd chunk counts at every combine level, lengths that
are not a multiple of the 64-byte chunk, and the 64 KiB edge where the
chunk fold moves to its second 1024-chunk gather block.  Nonzero
initial CRCs and chained calls cover the initial-register fold.
"""

# The vector kernel is reached directly, at its real threshold.
# repro-lint: disable=B804

import random

import pytest

from repro import accel
from repro.accel import pure

pytestmark = pytest.mark.skipif(not accel.numpy_available(),
                                reason="numpy backend not installed")

_KIB = 1024
LENGTHS = [
    16 * _KIB - 1, 16 * _KIB, 16 * _KIB + 1,  # across the threshold
    64 * 257, 64 * 259 + 5, 64 * 1023, 64 * 1025,  # odd chunk counts
    20_000 + 7,
    64 * _KIB - 64, 64 * _KIB - 1, 64 * _KIB, 64 * _KIB + 1,
    64 * _KIB + 64,
    132_812,  # one FDRI blob of an average Fig. 5 cell
    3 * 64 * _KIB + 3,
]
INITIAL = [0, 0xFFFFFFFF, 0x1EDC6F41]


@pytest.fixture(scope="module")
def numpy_backend():
    from repro.accel import numpy_backend
    return numpy_backend


def _data(length, kind):
    if kind == "zeros":
        return bytes(length)
    return random.Random(length).randbytes(length)


@pytest.mark.parametrize("kind", ["random", "zeros"])
@pytest.mark.parametrize("length", LENGTHS)
def test_vector_fold_matches_pure(numpy_backend, length, kind):
    data = _data(length, kind)
    for crc in INITIAL:
        assert numpy_backend.crc32c(data, crc) == pure.crc32c(data, crc)


@pytest.mark.parametrize("length", [64 * _KIB + 1, 132_812])
def test_vector_fold_chains_like_pure(numpy_backend, length):
    data = _data(length, "random")
    rng = random.Random(~length)
    cuts = sorted(rng.sample(range(1, length), 3))
    initial = rng.getrandbits(32)
    crc_np = crc_py = initial
    for begin, end in zip([0] + cuts, cuts + [length]):
        crc_np = numpy_backend.crc32c(data[begin:end], crc_np)
        crc_py = pure.crc32c(data[begin:end], crc_py)
        assert crc_np == crc_py
    assert crc_np == numpy_backend.crc32c(data, initial)
