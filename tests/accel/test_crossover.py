"""Crossover sentinels: impl backends delegate exactly as measured.

Every kernel a numpy/native backend defines carries a size threshold
below which the pure implementation wins.  Kernels whose fixed
per-call overhead (list/bytes -> ndarray conversion for numpy, FFI
argument shaping for native) never pays for itself are not defined at
all, and the dispatch layer's fallback rule serves them from the next
available backend.  These tests pin both decisions:

* below its crossover a kernel hands the call to pure,
* at/above the crossover it takes the accelerated path (pure
  untouched),
* each backend's kernel table (:func:`repro.accel.active`) takes a
  kernel from the backend when it defines it and otherwise from the
  next available backend in native -> numpy -> pure order — the
  regression this file exists to prevent is a backend being selected
  at a size where it loses.

Each backend's section skips cleanly when that backend is not
installed.
"""

# The sentinel wrappers must patch the pure module directly, and the
# dispatch decisions under test live in the backend modules.
# repro-lint: disable=B804

from inspect import isfunction
from types import SimpleNamespace

import pytest

from repro import accel
from repro.accel import pure
from repro.accel.plan import SynthesisPlan

requires_numpy = pytest.mark.skipif(not accel.numpy_available(),
                                    reason="numpy backend not installed")
requires_native = pytest.mark.skipif(
    not accel.native_available(),
    reason="native extension not built")


@pytest.fixture
def numpy_backend():
    if not accel.numpy_available():
        pytest.skip("numpy backend not installed")
    from repro.accel import numpy_backend
    return numpy_backend


@pytest.fixture
def native_backend():
    if not accel.native_available():
        pytest.skip("native extension not built")
    from repro.accel import native_backend
    return native_backend


def _sentinel(monkeypatch, name):
    """Wrap ``pure.<name>`` so calls are recorded but still answered."""
    original = getattr(pure, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pure, name, wrapper)
    return calls


def _plan(words):
    plan = SynthesisPlan(41)
    remaining = words
    index = 0
    while remaining:
        take = min(41, remaining)
        plan.fill(0xDEAD0000 | index, take)
        remaining -= take
        index += 1
    return plan


_BIG_DATA = bytes(range(256)) * 72      # 18432 bytes / 4608 words
_HUFF_CODES, _HUFF_LENGTHS = pure.huffman_code_table(
    [1 if symbol < 8 else 0 for symbol in range(256)])

# Well-formed streams for the decoder cases (built once from the pure
# encoders; the above-crossover output is checked against pure).
_XM_WORDS = b"\xAB\xCD\xEF\x01\x00\x00\x00\x00" * 64   # 128 words
_XM_BODY = pure.bitpack(*pure.xmatch_tokens(_XM_WORDS, 128, 8))
_LZ_DATA = bytes(range(64)) * 16                       # 1024 bytes
_LZ_BODY = pure.bitpack(*pure.lz77_tokens(_LZ_DATA, 10, 4, 3, 8))
_HUF_DATA = bytes(value & 7 for value in range(2048))
_HUF_BODY = pure.huffman_pack(_HUF_DATA, _HUFF_CODES, _HUFF_LENGTHS)
_HUF_TABLE = bytes(_HUFF_LENGTHS)
# Literal-heavy on purpose: distinct words keep the record stream
# longer than the native decode threshold (run records collapse to a
# few bytes and would sit below every cutover).
_RLE_DATA = bytes(range(256)) * 2
_RLE_RECORDS = pure.rle_records(_RLE_DATA, 128)

# (pure kernel name, below-crossover args, at/above-crossover args):
# args are passed identically to the impl kernel and to the pure
# reference, so the above-crossover result can be checked against
# pure without trusting the recorder.
_NUMPY_CASES = [
    ("crc32c",
     (b"\x5a" * 100, 0),
     (_BIG_DATA, 0)),
    ("bytes_to_words",
     (b"\x5a" * 100,),
     (_BIG_DATA,)),
    ("synthesize_payload",
     (_plan(41),),
     (_plan(4920),)),
    ("equal_word_runs",
     (b"\x11" * 64, 16),
     (_BIG_DATA, 4608)),
    ("zero_word_runs",
     (b"\x00" * 64, 16),
     (_BIG_DATA, 4608)),
    ("bitpack",
     ([1] * 8, [8] * 8),
     (list(range(64)), [8] * 64)),
    ("xmatch_tokens",
     (b"\xab\xcd\xef\x01" * 16, 16, 8),
     (_BIG_DATA, 4608, 8)),
    ("lz77_tokens",
     (b"\x42" * 100, 8, 4, 3, 8),
     (_BIG_DATA, 8, 4, 3, 8)),
    ("huffman_pack",
     (bytes(value & 7 for value in range(100)),
      _HUFF_CODES, _HUFF_LENGTHS),
     (bytes(value & 7 for value in range(2048)),
      _HUFF_CODES, _HUFF_LENGTHS)),
    ("rle_records",
     (b"\x11\x22\x33\x44" * 16, 16),
     (_BIG_DATA, 4608)),
]

# The native FFI call costs well under a microsecond, so its cutovers
# sit far below numpy's — the below-crossover inputs here are tiny.
_NATIVE_CASES = [
    ("crc32c",
     (b"\x5a" * 2, 0),
     (b"\x5a" * 100, 0)),
    ("bitpack",
     ([1] * 4, [8] * 4),
     (list(range(64)), [8] * 64)),
    ("xmatch_tokens",
     (b"\xab\xcd\xef\x01", 1, 8),
     (b"\xab\xcd\xef\x01" * 16, 16, 8)),
    ("huffman_pack",
     (bytes(value & 7 for value in range(100)),
      _HUFF_CODES, _HUFF_LENGTHS),
     (bytes(value & 7 for value in range(2048)),
      _HUFF_CODES, _HUFF_LENGTHS)),
    ("xmatch_decode",
     (_XM_BODY[:4], 0, 8),
     (_XM_BODY, 512, 8)),
    ("lz77_decode",
     (_LZ_BODY[:4], 0, 10, 4, 3),
     (_LZ_BODY, 1024, 10, 4, 3)),
    ("huffman_decode",
     (_HUF_BODY[:4], 0, _HUF_TABLE),
     (_HUF_BODY, 2048, _HUF_TABLE)),
    ("rle_decode",
     (_RLE_RECORDS[:8], 0),
     (_RLE_RECORDS, 512)),
]


def _check_crossover(backend, monkeypatch, name, below_args, above_args):
    reference = getattr(pure, name)
    want_above = reference(*above_args)
    kernel = getattr(backend, name)
    calls = _sentinel(monkeypatch, name)

    kernel(*below_args)
    assert calls, f"{name} must delegate to pure below its crossover"

    calls.clear()
    got_above = kernel(*above_args)
    assert not calls, \
        f"{name} must take the accelerated path at/above its crossover"
    # The accelerated path still has to agree with the reference.
    assert got_above == want_above


@pytest.mark.parametrize("name,below_args,above_args", _NUMPY_CASES,
                         ids=[case[0] for case in _NUMPY_CASES])
def test_numpy_kernel_crossover(numpy_backend, monkeypatch,
                                name, below_args, above_args):
    _check_crossover(numpy_backend, monkeypatch, name, below_args,
                     above_args)


@pytest.mark.parametrize("name,below_args,above_args", _NATIVE_CASES,
                         ids=[case[0] for case in _NATIVE_CASES])
def test_native_kernel_crossover(native_backend, monkeypatch,
                                 name, below_args, above_args):
    _check_crossover(native_backend, monkeypatch, name, below_args,
                     above_args)


# lz77_tokens needs a sentinel variant of its own for native: the
# below-threshold input must be non-trivial enough that the pure path
# is observable, and the kernel also hands back wide-layout requests.


@requires_native
def test_native_lz77_crossover(native_backend, monkeypatch):
    _check_crossover(native_backend, monkeypatch, "lz77_tokens",
                     (b"\x42" * 8, 8, 4, 3, 8),
                     (_BIG_DATA, 8, 4, 3, 8))


def test_numpy_lz77_wide_match_window_delegates(numpy_backend,
                                                monkeypatch):
    # min_match > 8 exceeds the vectorised prefix-hash width, so the
    # kernel must hand even large payloads back to pure.
    calls = _sentinel(monkeypatch, "lz77_tokens")
    numpy_backend.lz77_tokens(_BIG_DATA, 8, 6, 9, 8)
    assert calls


@requires_native
def test_native_guard_delegations(native_backend, monkeypatch):
    # Layouts outside the C kernels' fixed-width assumptions must fall
    # back to the arbitrary-precision pure forms, whatever the size.
    calls = _sentinel(monkeypatch, "lz77_tokens")
    native_backend.lz77_tokens(_BIG_DATA, 8, 6, 9, 8)  # min_match > 8
    assert calls

    calls = _sentinel(monkeypatch, "lz77_decode")
    native_backend.lz77_decode(_LZ_BODY, 0, 40, 10, 3)  # > 48-bit token
    assert calls

    calls = _sentinel(monkeypatch, "bitpack")
    # A width above 64 bits only fits the bigint accumulator.
    assert native_backend.bitpack([1 << 70, 1], [71, 1]) == \
        pure.bitpack([1 << 70, 1], [71, 1])
    assert calls


_KERNELS = [name for name, value in vars(pure).items()
            if isfunction(value) and not name.startswith("_")
            and value.__module__ == pure.__name__]


def _table(name):
    with accel.using(name):
        return accel.active()


def test_kernel_list_covers_every_dispatch_function():
    assert len(_KERNELS) == 18
    assert all(callable(getattr(accel, kernel)) for kernel in _KERNELS)


#: The kernels no vector or FFI form wins at any measured size
#: (list -> ndarray conversion, a 256-bin heap, the early-limit break):
#: neither impl defines them, so pure serves them on every backend.
_PURE_ONLY = ("chunk_words", "words_to_bytes", "huffman_code_table",
              "match_lengths")


@pytest.mark.parametrize(
    "name,kernel",
    [(name, kernel) for name in ("pure", "numpy", "native")
     for kernel in _KERNELS],
    ids=[f"{name}-{kernel}" for name in ("pure", "numpy", "native")
         for kernel in _KERNELS])
def test_active_table_follows_the_fallback_rule(name, kernel):
    available = accel.available_backends()
    if name not in available:
        pytest.skip(f"{name} backend not installed")
    order = ["native", "numpy", "pure"]
    chain = [accel._load(fallback)
             for fallback in order[order.index(name):]
             if fallback in available]
    table = _table(name)
    assert table.name == name
    # The backend's own function when it defines the kernel, else the
    # next available backend's.
    owner = next(module for module in chain if hasattr(module, kernel))
    assert getattr(table, kernel) is getattr(owner, kernel)
    if kernel in _PURE_ONLY:
        assert getattr(table, kernel) is getattr(pure, kernel)


def _dispatch_under_numpy(kernel, *args):
    """Call ``accel.<kernel>`` with the numpy backend selected.

    The kernel table is built inside the selection, after any
    ``_sentinel`` wrapper is installed, so the recorder sees exactly
    what dispatch hands to pure.
    """
    with accel.using("numpy"):
        return getattr(accel, kernel)(*args)


@pytest.mark.parametrize("size", [0, 3, 16, 256, 4096])
def test_chunk_words_delegates_at_every_size(numpy_backend,
                                             monkeypatch, size):
    # Regression sentinel: vectorised chunking lost to the pure
    # implementation at every measured size (the list -> ndarray
    # conversion dominates), so selecting numpy must never pick a
    # vector path for this kernel.
    block = list(range(size))
    calls = _sentinel(monkeypatch, "chunk_words")
    result = _dispatch_under_numpy("chunk_words", block, 0, 41)
    assert calls, f"chunk_words must delegate to pure at size {size}"
    assert result == pure.chunk_words(block, 0, 41)


@pytest.mark.parametrize("size", [0, 8, 512, 8192])
def test_words_to_bytes_delegates_at_every_size(numpy_backend,
                                                monkeypatch, size):
    words = [0x01020304] * size
    calls = _sentinel(monkeypatch, "words_to_bytes")
    result = _dispatch_under_numpy("words_to_bytes", words)
    assert calls, f"words_to_bytes must delegate to pure at size {size}"
    assert result == b"\x01\x02\x03\x04" * size


def test_huffman_code_table_always_delegates(numpy_backend, monkeypatch):
    # The input is a fixed 256-bin histogram; the heap build is too
    # small for vectorisation to ever pay.
    histogram = [0] * 256
    histogram[0] = 90
    histogram[7] = 10
    calls = _sentinel(monkeypatch, "huffman_code_table")
    result = _dispatch_under_numpy("huffman_code_table", histogram)
    assert calls
    assert result == pure.huffman_code_table(histogram)


@pytest.mark.parametrize("work", [(3, 8), (64, 512)],
                         ids=["small", "large"])
def test_match_lengths_always_delegates(numpy_backend, monkeypatch,
                                        work):
    # Pure-only since the native backend landed: the pure form's
    # early-limit break beats the full candidate matrix on
    # chain-shaped inputs at every measured size (0.07-0.16x for the
    # vector form), so the one-time 1.08x best case no longer earns a
    # threshold.
    count, limit = work
    args = (_BIG_DATA, list(range(count)), 8192, limit)
    calls = _sentinel(monkeypatch, "match_lengths")
    result = _dispatch_under_numpy("match_lengths", *args)
    assert calls, "match_lengths must delegate to pure at every size"
    assert result == pure.match_lengths(*args)


def _stub_native(monkeypatch, numpy_installed):
    """Select a stand-in native backend that defines only crc32c."""
    def crc32c(data, crc=0):
        return pure.crc32c(data, crc)

    stub = SimpleNamespace(name="native", crc32c=crc32c)
    load = accel._load
    monkeypatch.setattr(accel, "_load", lambda name: stub
                        if name == "native" else load(name))
    monkeypatch.setattr(accel, "native_available", lambda: True)
    monkeypatch.setattr(accel, "numpy_available", lambda: numpy_installed)
    return stub


def test_native_table_skips_numpy_when_unavailable(monkeypatch):
    stub = _stub_native(monkeypatch, numpy_installed=False)
    table = _table("native")
    assert table.name == "native"
    assert table.crc32c is stub.crc32c
    for kernel in _KERNELS:
        if kernel != "crc32c":
            assert getattr(table, kernel) is getattr(pure, kernel), kernel


@requires_numpy
def test_native_table_takes_numpy_kernels_when_available(monkeypatch):
    from repro.accel import numpy_backend

    stub = _stub_native(monkeypatch, numpy_installed=True)
    table = _table("native")
    assert table.crc32c is stub.crc32c
    assert table.bytes_to_words is numpy_backend.bytes_to_words
    assert table.synthesize_payload is numpy_backend.synthesize_payload
    assert table.xmatch_decode is pure.xmatch_decode
