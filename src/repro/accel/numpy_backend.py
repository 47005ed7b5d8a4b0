"""Vectorised numpy backend for the datapath kernels.

Byte-identical to :mod:`repro.accel.pure` by construction — both
backends compute the same functions; this one replaces Python-level
loops with array ops.  It defines only the kernels it accelerates;
:func:`repro.accel.active` serves every other kernel from pure.  Each
kernel here keeps an internal size threshold below which it calls the
pure implementation: numpy's per-call overhead makes it *slower* than
the tuned stdlib forms on small inputs, and the pure form is
output-identical so the switch is invisible.

Kernel notes:

* ``crc32c`` folds 64-byte chunks in parallel: entry
  ``column * 256 + b`` of ``_COLUMN_TABLE`` is the CRC contribution
  of byte ``b`` at ``column`` of a chunk, so one flattened table
  gather plus an XOR reduction along each chunk yields every chunk's
  raw CRC at once (gathered 1024 chunks at a time to keep the
  temporaries small).  Chunk CRCs are then combined pairwise in a
  log-depth tree; each level's "advance by 64 * 2**j zero bytes" map
  is linear, so it is applied as four 256-entry byte-table lookups
  built once from its GF(2) matrix.  The initial register is folded
  by XORing its four little-endian bytes into the first real data
  bytes.  Raw CRC from state 0 ignores leading zeros, so the input is
  front-padded to whole chunks and a level with an odd chunk count
  gets one zero chunk in front, both for free.
* ``synthesize_payload`` views the plan's typed arrays zero-copy,
  expands ops with ``np.repeat``, and resolves copy-from-previous-
  frame references by peeling chains on the copy-owned subset: each
  pass steps every still-unresolved source back one frame, and the
  working set shrinks as chains bottom out on filled words.
* ``xmatch_tokens`` keeps the sequential move-to-front scan shared
  with pure; from 64 words up it adds a vector zero-run pre-scan and
  a bulk word decode in front of it.

Kernels left out, so dispatch serves them from pure:

* ``words_to_bytes`` and ``chunk_words`` take a Python ``list`` of
  ints, and converting it into an ndarray costs more than the vector
  op saves.
* ``match_lengths``: the pure form's early-limit break ends the scan
  at the first candidate reaching ``limit``, which on the LZ chain
  walk's same-prefix candidate lists is usually the *first* one; the
  vector form pays for the full candidates x limit matrix up front
  (0.07-0.16x on chain-shaped inputs, ~1.08x at best on
  adversarially break-free ones).
* ``huffman_code_table`` runs at most 255 heap merges over a 256-bin
  histogram; the sequential heap dominates.
* The four bit-serial decoders: every token's position depends on
  every previous token (carried bit cursor, move-to-front
  dictionary, the growing output window), so there is no vector
  formulation — these loops are what the native backend exists for.

numpy may only be imported inside ``repro.accel`` (lint rule A601);
every other module reaches these kernels through the dispatch
functions in :mod:`repro.accel`.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

import numpy as np

from repro.accel import pure
from repro.accel.plan import COPY, SynthesisPlan

name = "numpy"

# Below these sizes the pure kernels win; outputs are identical either
# way, so the cutovers only affect speed.  Chosen from the measured
# crossovers on CPython 3.12 / numpy 2.x.
_CRC_MIN_BYTES = 16384
_SYNTH_MIN_WORDS = 4096
_SCAN_MIN_WORDS = 64
_XMATCH_MIN_WORDS = 64
_BITPACK_MIN_TOKENS = 64
_LZ77_MIN_BYTES = 4096
_HUFF_MIN_BYTES = 1024
_RLE_MIN_WORDS = 64

_CHUNK = 64  # bytes folded per vector CRC step
# Chunks per table gather: the uint16 index block (128 KiB) and the
# gathered uint32 block (256 KiB) stay well under 1 MiB.
_GATHER_BLOCK = 1024

_T0 = np.array(pure.CRC_TABLE, dtype=np.uint32)
_BYTE = np.uint32(0xFF)


def _build_chunk_tables(chunk: int) -> "np.ndarray":
    """``tabs[d][b]``: CRC of byte ``b`` followed by ``d`` zero bytes."""
    tabs = np.empty((chunk, 256), dtype=np.uint32)
    cur = _T0.copy()
    tabs[0] = cur
    for distance in range(1, chunk):
        cur = (cur >> np.uint32(8)) ^ _T0[cur & np.uint32(0xFF)]
        tabs[distance] = cur
    return tabs


# Entry ``column * 256 + b``: the contribution of byte ``b`` at
# ``column`` of a chunk, i.e. followed by ``_CHUNK - 1 - column`` zeros.
_COLUMN_TABLE = np.ascontiguousarray(
    _build_chunk_tables(_CHUNK)[::-1]).reshape(-1)
_COLUMN_BASE = np.arange(_CHUNK, dtype=np.uint16) * np.uint16(256)


def _shift_basis(n_bytes: int) -> "np.ndarray":
    """Columns of the "advance register by ``n_bytes`` zeros" matrix."""
    basis = (np.uint32(1) << np.arange(32, dtype=np.uint32)).astype(np.uint32)
    for _ in range(n_bytes):
        basis = (basis >> np.uint32(8)) ^ _T0[basis & np.uint32(0xFF)]
    return basis


def _apply(cols: "np.ndarray", vec: "np.ndarray") -> "np.ndarray":
    """GF(2) matrix–vector product, vectorised over ``vec`` entries."""
    out = np.zeros_like(vec)
    for bit in range(32):
        out ^= cols[bit] * ((vec >> np.uint32(bit)) & np.uint32(1))
    return out

_LEVELS: List["np.ndarray"] = []  # [j]: shift by _CHUNK * 2**j bytes
_LEVEL_TABLES: List["np.ndarray"] = []  # [j]: byte tables of _LEVELS[j]


def _level(j: int) -> "np.ndarray":
    while len(_LEVELS) <= j:
        if not _LEVELS:
            _LEVELS.append(_shift_basis(_CHUNK))
        else:
            prev = _LEVELS[-1]
            _LEVELS.append(_apply(prev, prev))
    return _LEVELS[j]


def _level_tables(j: int) -> "np.ndarray":
    """``tables[k][b]``: level ``j``'s shift applied to ``b << 8k``.

    The shift is linear, so it maps a register to the XOR of its four
    bytes' table entries.
    """
    while len(_LEVEL_TABLES) <= j:
        cols = _level(len(_LEVEL_TABLES))
        byte_values = np.arange(256, dtype=np.uint32)
        _LEVEL_TABLES.append(np.stack([
            _apply(cols, byte_values << np.uint32(8 * k))
            for k in range(4)]))
    return _LEVEL_TABLES[j]


def crc32c(data: bytes, crc: int = 0) -> int:
    length = len(data)
    # The init-register fold below needs four real data bytes.
    if length < 4 or length < _CRC_MIN_BYTES:
        return pure.crc32c(data, crc)
    state = (crc ^ 0xFFFFFFFF) & 0xFFFFFFFF
    chunk_count = -(-length // _CHUNK)
    pad = chunk_count * _CHUNK - length
    buf = np.zeros(chunk_count * _CHUNK, dtype=np.uint8)
    buf[pad:] = np.frombuffer(data, dtype=np.uint8)
    # Fold the initial register into the first four real bytes (the
    # reflected CRC register maps to little-endian byte order).
    buf[pad:pad + 4] ^= np.frombuffer(state.to_bytes(4, "little"),
                                      dtype=np.uint8)
    chunks = buf.reshape(chunk_count, _CHUNK)
    acc = np.empty(chunk_count, dtype=np.uint32)
    for begin in range(0, chunk_count, _GATHER_BLOCK):
        block = chunks[begin:begin + _GATHER_BLOCK]
        np.bitwise_xor.reduce(_COLUMN_TABLE[block + _COLUMN_BASE], axis=1,
                              out=acc[begin:begin + len(block)])
    j = 0
    while len(acc) > 1:
        if len(acc) & 1:
            # A zero chunk in front leaves the raw CRC unchanged.
            acc = np.concatenate((np.zeros(1, dtype=np.uint32), acc))
        tables = _level_tables(j)
        head = acc[0::2]
        acc = (tables[0][head & _BYTE]
               ^ tables[1][(head >> np.uint32(8)) & _BYTE]
               ^ tables[2][(head >> np.uint32(16)) & _BYTE]
               ^ tables[3][head >> np.uint32(24)]
               ^ acc[1::2])
        j += 1
    return int(acc[0]) ^ 0xFFFFFFFF


def bytes_to_words(data: bytes) -> List[int]:
    if len(data) < 1024:
        return pure.bytes_to_words(data)
    if len(data) % 4:
        return pure.bytes_to_words(data)  # raises the formatting error
    return np.frombuffer(data, dtype=">u4").tolist()


def synthesize_payload(plan: SynthesisPlan) -> bytes:
    if plan.total_words < _SYNTH_MIN_WORDS:
        return pure.synthesize_payload(plan)
    kinds = np.frombuffer(plan.kinds, dtype=np.uint8)
    values = np.frombuffer(
        plan.values, dtype=np.dtype("u%d" % plan.values.itemsize))
    lengths = np.frombuffer(
        plan.lengths, dtype=np.dtype("u%d" % plan.lengths.itemsize))
    op_of_word = np.repeat(np.arange(len(kinds), dtype=np.intp), lengths)
    out = values[op_of_word]  # fresh array — safe to patch in place
    is_copy = (kinds == COPY)[op_of_word]
    active = np.flatnonzero(is_copy)
    if active.size:
        # A COPY-owned word at position p sources p - frame_words
        # (previous frame, same intra-frame offset).  Peel chains on
        # the copy subset only: step each still-unresolved source back
        # one frame per pass until it lands on a FILL-owned position.
        # Pass count equals the deepest copy-of-copy chain, and the
        # working set shrinks as chains bottom out.
        src = active - plan.frame_words
        deeper = is_copy[src]
        while bool(deeper.any()):
            src[deeper] -= plan.frame_words
            deeper[deeper] = is_copy[src[deeper]]
        out[active] = out[src]
    return out.astype(">u4").tobytes()


def equal_word_runs(data: bytes, word_count: int) -> List[int]:
    if word_count <= 0 or word_count < _SCAN_MIN_WORDS:
        return pure.equal_word_runs(data, word_count)
    words = np.frombuffer(data, dtype=">u4", count=word_count)
    boundaries = np.flatnonzero(words[1:] != words[:-1])
    return np.diff(
        np.concatenate(((-1,), boundaries, (word_count - 1,)))).tolist()


def zero_word_runs(data: bytes,
                   word_count: int) -> Tuple[List[int], List[int]]:
    if word_count < _SCAN_MIN_WORDS:
        return pure.zero_word_runs(data, word_count)
    words = np.frombuffer(data, dtype=">u4", count=word_count)
    flags = np.concatenate((
        (False,), words == 0, (False,))).astype(np.int8)
    edges = np.flatnonzero(np.diff(flags))
    starts = edges[0::2]
    return starts.tolist(), (edges[1::2] - starts).tolist()


def bitpack(values: Sequence[int], widths: Sequence[int]) -> bytes:
    if len(values) < _BITPACK_MIN_TOKENS:
        return pure.bitpack(values, widths)
    try:
        value_array = np.asarray(values, dtype=np.uint64)
        width_array = np.asarray(widths, dtype=np.uint8)
    except OverflowError:
        # Values beyond 64 bits: only the bigint pure form packs them
        # (no kernel emits such tokens; property tests do).
        return pure.bitpack(values, widths)
    return _bitpack_arrays(value_array, width_array)


def _bitpack_arrays(values: "np.ndarray",
                    widths: "np.ndarray") -> bytes:
    """Vectorised MSB-first bit packing of ``(value, width)`` tokens.

    Explodes the stream into one entry per *output bit* (O(total
    bits), insensitive to width skew): global bit ``g`` inside token
    ``t`` sits ``ends[t] - 1 - g`` positions from the value's LSB,
    where ``ends`` is the cumulative bit offset — so a single gather
    and shift yields every bit in stream order, and ``np.packbits``
    folds them into bytes (zero-padding the final byte exactly like
    ``BitWriter.getvalue()``).
    """
    spans = widths.astype(np.int64)
    total = int(spans.sum())
    if total == 0:
        return b""
    token_of_bit = np.repeat(
        np.arange(len(spans), dtype=np.intp), spans)
    ends = np.cumsum(spans)
    shift = (ends[token_of_bit] - 1
             - np.arange(total, dtype=np.int64)).astype(np.uint64)
    bits = ((values[token_of_bit] >> shift) & np.uint64(1))
    return np.packbits(bits.astype(np.uint8)).tobytes()


def xmatch_tokens(data: bytes, word_count: int,
                  capacity: int) -> "pure.TokenStream":
    if word_count < _XMATCH_MIN_WORDS:
        return pure.xmatch_tokens(data, word_count, capacity)
    # The move-to-front dictionary makes every token depend on the
    # full history, so the scan itself stays sequential (the shared
    # SWAR loop in pure); the vector win is the zero-run pre-scan and
    # the bulk word decode.
    words = np.frombuffer(data, dtype=">u4", count=word_count).tolist()
    starts, lengths = zero_word_runs(data, word_count)
    return pure._xmatch_scan(words, dict(zip(starts, lengths)), capacity)


def lz77_tokens(data: bytes, window_bits: int, length_bits: int,
                min_match: int, max_chain: int) -> "pure.TokenStream":
    length = len(data)
    # ``min_match > 8``: the prefix key must fit a uint64.
    # ``length < min_match``: no match is possible, and the prefix
    # array below would be empty (guards the zero-threshold test mode).
    if length < _LZ77_MIN_BYTES or min_match > 8 or length < min_match:
        return pure.lz77_tokens(data, window_bits, length_bits,
                                min_match, max_chain)
    window = 1 << window_bits
    max_match = min_match + (1 << length_bits) - 1
    raw = np.frombuffer(data, dtype=np.uint8)
    prefix_count = length - min_match + 1
    # The hash-chain candidate set is position-determined: the pure
    # coder indexes *every* covered position, so at any position p the
    # chain holds exactly the previous occurrences of p's prefix —
    # independent of how earlier bytes were tokenised.  That lets the
    # whole search run for all positions at once: stable-argsort the
    # min_match-byte prefix keys (ties keep position order), and the
    # j-th most recent occurrence of position order[s] is order[s-j]
    # whenever both slots share a key group.
    key = np.zeros(prefix_count, dtype=np.uint64)
    for byte_index in range(min_match):
        key = (key << np.uint64(8)) | raw[
            byte_index:byte_index + prefix_count].astype(np.uint64)
    order = np.argsort(key, kind="stable").astype(np.int64)
    sorted_key = key[order]
    # depth[s]: how many earlier occurrences slot s's prefix has —
    # slot s has a candidate at chain distance j iff depth[s] >= j.
    new_group = np.empty(prefix_count, dtype=bool)
    new_group[0] = True
    if prefix_count > 1:
        np.not_equal(sorted_key[1:], sorted_key[:-1],
                     out=new_group[1:])
    slot_index = np.arange(prefix_count, dtype=np.int64)
    depth = slot_index - np.maximum.accumulate(
        np.where(new_group, slot_index, 0))
    padded = np.concatenate(
        (raw, np.zeros(max_match, dtype=np.uint8)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, max_match)  # zero-copy; rows gathered per chain step
    limits = np.minimum(max_match,
                        length - np.arange(prefix_count, dtype=np.int64))
    best_run = np.zeros(prefix_count, dtype=np.int64)
    best_source = np.zeros(prefix_count, dtype=np.int64)
    live = np.flatnonzero(depth >= 1)
    for j in range(1, max_chain + 1):
        if j > 1:
            # Shrink the working set: a slot leaves when its chain is
            # exhausted or its position already matched to its cap
            # (the update is strict, so it cannot improve) — this
            # collapses the dominant all-zero-prefix groups after the
            # first step.
            positions = order[live]
            live = live[(depth[live] >= j)
                        & (best_run[positions] < limits[positions])]
        if not live.size:
            break
        positions = order[live]
        sources = order[live - j]
        # Sources only age as j grows, so out-of-window slots are
        # done for good.
        in_window = sources >= positions - window
        if not bool(in_window.all()):
            live = live[in_window]
            positions = positions[in_window]
            sources = sources[in_window]
        if not positions.size:
            continue
        equal = windows[positions] == windows[sources]
        runs = np.where(equal.all(axis=1), max_match,
                        equal.argmin(axis=1))
        runs = np.minimum(runs, limits[positions])
        # j ascends most-recent-first and the update is strict, so the
        # most recent candidate reaching the best length wins — the
        # pure coder's tie-break exactly.
        improved = runs > best_run[positions]
        positions = positions[improved]
        best_run[positions] = runs[improved]
        best_source[positions] = sources[improved]
    run_list = best_run.tolist()
    source_list = best_source.tolist()
    values = array("Q")
    widths = array("B")
    append_value = values.append
    append_width = widths.append
    match_flag = 1 << (window_bits + length_bits)
    match_width = 1 + window_bits + length_bits
    position = 0
    while position < length:
        run = run_list[position] if position < prefix_count else 0
        if run >= min_match:
            append_value(match_flag
                         | ((position - source_list[position] - 1)
                            << length_bits)
                         | (run - min_match))
            append_width(match_width)
            position += run
        else:
            append_value(data[position])
            append_width(9)
            position += 1
    return values, widths


def huffman_pack(data: bytes, codes: Sequence[int],
                 lengths: Sequence[int]) -> bytes:
    if len(data) < _HUFF_MIN_BYTES:
        return pure.huffman_pack(data, codes, lengths)
    try:
        code_array = np.asarray(codes, dtype=np.uint64)
        length_array = np.asarray(lengths, dtype=np.uint8)
    except OverflowError:
        # Codes past 64 bits (degenerate, near-Fibonacci histograms).
        return pure.huffman_pack(data, codes, lengths)
    raw = np.frombuffer(data, dtype=np.uint8)
    return _bitpack_arrays(code_array[raw], length_array[raw])


def rle_records(data: bytes, word_count: int) -> bytes:
    if word_count < _RLE_MIN_WORDS:
        return pure.rle_records(data, word_count)
    # Vectorised run scan; the record emission is a short per-run loop
    # shared with the pure reference.
    return pure._rle_emit(data, equal_word_runs(data, word_count))
