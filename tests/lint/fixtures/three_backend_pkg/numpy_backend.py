"""Clean vectorised backend: a strict subset of the pure kernels.

Shaped like the real numpy backend: it defines only the kernels it
accelerates, each with the pure signature exactly, and leaves the
rest (``pack_words``, ``stream_decode``) to the pure reference.
Present so the fixture has the real package shape (pure + numpy +
native) and so the tests prove B801 judges each implementation
independently — all the seeded drift lives in ``native_backend``.
"""

from three_backend_pkg import pure


def crc_fold(data, crc=0):
    if len(data) < 64:
        return pure.crc_fold(data, crc)
    return crc ^ len(data)


def scan_runs(data, count):
    return [count] * len(data)
