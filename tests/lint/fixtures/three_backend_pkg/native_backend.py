"""Drifted compiled-kernel backend, shaped like the cffi wrappers."""


def pack_words(words, order):
    # B801: extra parameter drifts from the pure reference.
    return bytes(words)


def crc_fold(data, crc=0):
    return crc ^ len(data)


def scan_runs(data, count):
    return [count for _ in data]


def turbo_kernel(x):
    # B801: no pure reference implementation exists.
    return x


# stream_decode is left out on purpose: an impl backend may define a
# strict subset of the pure kernels.
