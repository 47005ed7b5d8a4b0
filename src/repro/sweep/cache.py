"""Content-addressed on-disk artifact cache for the sweep engine.

Every artifact is stored under the SHA-256 of its *parameters* — the
canonical JSON of everything that determines the bytes (artifact kind,
format version, generator spec, codec name, controller/frequency).
Identical parameters always hash to the same key, so

* a second sweep over the same grid reads generated bitstreams,
  compressed payloads and finished run records straight from disk, and
* any parameter change (a different seed, a retuned generator mixture,
  a new format version) lands on a fresh key — stale entries are never
  *read*, they are simply orphaned (``clear()`` reclaims the space).

Layout::

    <root>/objects/<key[:2]>/<key[2:]>

two-level fan-out keeps directories small.  Writes go through a
temporary file in the same directory followed by ``os.replace``, so a
crashed or concurrent writer can never leave a half-written artifact
behind — concurrent workers racing on the same key both write the same
bytes and the atomic rename picks a winner.

Each file is the SHA-256 digest of its payload followed by the
payload.  A file that is too short or whose digest does not match (a
truncated copy, a flipped bit on disk) is treated as a miss: the
artifact is rebuilt and the file overwritten, and the damage is
counted in :attr:`CacheStats.corrupt`.  A damaged blob therefore never
reaches a decoder, and never yields a silently wrong number.

Cached bitstreams are stored as a JSON metadata header (header fields
and frame bookkeeping) followed by the raw configuration words, so a
hit reconstructs the full :class:`PartialBitstream` without re-running
the generator *or* re-deriving the configuration CRC.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.bitstream.format import bytes_to_words
from repro.bitstream.generator import (
    BitstreamSpec,
    PartialBitstream,
    generate_bitstream,
)
from repro.bitstream.header import BitstreamHeader
from repro.compress.base import CompressionResult
from repro.compress.registry import codec_by_name

#: Bump when any serialised artifact layout changes; every key embeds
#: it, so old cache directories are silently orphaned, never misread.
CACHE_FORMAT_VERSION = 2

#: Length of the SHA-256 digest that frames every stored payload.
_DIGEST_BYTES = 32


def artifact_key(params: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of ``params``."""
    canonical = json.dumps(params, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def bitstream_params(spec: BitstreamSpec) -> Dict[str, Any]:
    """Everything that determines a generated bitstream's bytes."""
    return {
        "kind": "bitstream",
        "version": CACHE_FORMAT_VERSION,
        "device": spec.device.name,
        "size_bytes": spec.size.bytes,
        "origin": spec.origin.pack(),
        "utilization": spec.utilization,
        "motif_pool": spec.motif_pool,
        "zero_run_weight": spec.zero_run_weight,
        "zero_run_mean": spec.zero_run_mean,
        "motif_run_weight": spec.motif_run_weight,
        "motif_run_mean": spec.motif_run_mean,
        "copy_weight": spec.copy_weight,
        "copy_run_mean": spec.copy_run_mean,
        "sparse_weight": spec.sparse_weight,
        "dense_weight": spec.dense_weight,
        "seed": spec.seed,
        "design_name": spec.design_name,
    }


@dataclass
class CacheStats:
    """Hit/miss and byte-traffic counters one engine run accumulates.

    ``bytes_read`` counts blob bytes served from the cache (hits);
    ``bytes_written`` counts blob bytes stored on misses.  Both refer
    to artifact payloads, not filesystem overhead or the integrity
    digest.  ``corrupt`` counts stored blobs that failed their
    integrity check and were treated as misses.
    """

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    corrupt: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.corrupt += other.corrupt


class ArtifactCache:
    """Content-addressed blob store rooted at a directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._objects = os.path.join(root, "objects")

    def _path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key[2:])

    def get(self, key: str,
            stats: Optional[CacheStats] = None) -> Optional[bytes]:
        """The stored blob, or ``None`` on a miss.

        A stored file that fails its integrity check is a miss too;
        it is counted in ``stats.corrupt`` when ``stats`` is given.
        """
        try:
            with open(self._path(key), "rb") as handle:
                framed = handle.read()
        except FileNotFoundError:
            return None
        blob = framed[_DIGEST_BYTES:]
        if (len(framed) < _DIGEST_BYTES
                or hashlib.sha256(blob).digest() != framed[:_DIGEST_BYTES]):
            if stats is not None:
                stats.corrupt += 1
            return None
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Store ``blob`` under ``key`` atomically (tmp + rename).

        The file holds the SHA-256 digest of ``blob`` followed by
        ``blob``; :meth:`get` checks it.
        """
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        descriptor, tmp_path = tempfile.mkstemp(dir=directory,
                                                prefix=".tmp-")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(hashlib.sha256(blob).digest())
                handle.write(blob)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except FileNotFoundError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def clear(self) -> None:
        """Delete every cached artifact."""
        shutil.rmtree(self._objects, ignore_errors=True)

    # -- bitstreams ---------------------------------------------------

    def load_bitstream(self, spec: BitstreamSpec,
                       stats: Optional[CacheStats] = None,
                       ) -> PartialBitstream:
        """The bitstream for ``spec`` — from cache, or generated.

        A miss generates, stores and returns; a hit reconstructs the
        exact :class:`PartialBitstream` (same ``raw_bytes``, header
        and frame bookkeeping) without running the generator.
        """
        key = artifact_key(bitstream_params(spec))
        blob = self.get(key, stats)
        if blob is not None:
            if stats is not None:
                stats.hits += 1
                stats.bytes_read += len(blob)
            return _decode_bitstream(spec, blob)
        if stats is not None:
            stats.misses += 1
        bitstream = generate_bitstream(spec)
        encoded = _encode_bitstream(bitstream)
        self.put(key, encoded)
        if stats is not None:
            stats.bytes_written += len(encoded)
        return bitstream

    # -- compressed payloads ------------------------------------------

    def load_compressed(self, spec: BitstreamSpec, codec_name: str,
                        stats: Optional[CacheStats] = None,
                        ) -> CompressionResult:
        """Compression result of ``codec_name`` over ``spec``'s bytes.

        The compressed payload itself is the cached artifact; the
        result record is derived from its length, so hits skip both
        the generator and the compressor.
        """
        params = bitstream_params(spec)
        params["kind"] = "compressed"
        params["codec"] = codec_name
        key = artifact_key(params)
        blob = self.get(key, stats)
        if blob is not None:
            if stats is not None:
                stats.hits += 1
                stats.bytes_read += len(blob)
            (original_size,) = struct.unpack_from(">I", blob, 0)
            return CompressionResult(codec_name=codec_name,
                                     original_size=original_size,
                                     compressed_size=len(blob) - 4)
        if stats is not None:
            stats.misses += 1
        raw = self.load_bitstream(spec).raw_bytes
        compressed = codec_by_name(codec_name).compress(raw)
        encoded = struct.pack(">I", len(raw)) + compressed
        self.put(key, encoded)
        if stats is not None:
            stats.bytes_written += len(encoded)
        return CompressionResult(codec_name=codec_name,
                                 original_size=len(raw),
                                 compressed_size=len(compressed))

    # -- run records --------------------------------------------------

    def load_record(self, params: Dict[str, Any],
                    stats: Optional[CacheStats] = None,
                    ) -> Optional[Dict[str, Any]]:
        """A finished run record for ``params``, or ``None``.

        Hit/miss accounting stays with the caller (the engine counts a
        record miss only once per cell); ``stats`` only accumulates
        the byte traffic and integrity failures.
        """
        blob = self.get(artifact_key(params), stats)
        if blob is None:
            return None
        if stats is not None:
            stats.bytes_read += len(blob)
        return json.loads(blob.decode("utf-8"))

    def store_record(self, params: Dict[str, Any],
                     record: Dict[str, Any],
                     stats: Optional[CacheStats] = None) -> None:
        """Store a run record (floats survive the JSON round trip
        exactly — ``repr`` is shortest-roundtrip in Python 3)."""
        blob = json.dumps(record, sort_keys=True).encode("utf-8")
        self.put(artifact_key(params), blob)
        if stats is not None:
            stats.bytes_written += len(blob)


def _encode_bitstream(bitstream: PartialBitstream) -> bytes:
    header = bitstream.header
    meta = json.dumps({
        "design_name": header.design_name,
        "part_name": header.part_name,
        "date": header.date,
        "time": header.time,
        "payload_length": header.payload_length,
        "frame_count": bitstream.frame_count,
        "frame_payload_offset": bitstream.frame_payload_offset,
        "frame_payload_words": bitstream.frame_payload_words,
    }, sort_keys=True).encode("utf-8")
    return struct.pack(">I", len(meta)) + meta + bitstream.raw_bytes


def _decode_bitstream(spec: BitstreamSpec,
                      blob: bytes) -> PartialBitstream:
    (meta_length,) = struct.unpack_from(">I", blob, 0)
    meta = json.loads(blob[4:4 + meta_length].decode("utf-8"))
    raw = blob[4 + meta_length:]
    header = BitstreamHeader(
        design_name=meta["design_name"],
        part_name=meta["part_name"],
        date=meta["date"],
        time=meta["time"],
        payload_length=meta["payload_length"],
    )
    # The blob already holds the serialized stream; only the thin
    # shell around the FDRI payload is decoded into words — the
    # payload stays bytes, exactly as generated, so a cache hit skips
    # the word-level decode entirely.
    start = meta["frame_payload_offset"] * 4
    stop = start + meta["frame_payload_words"] * 4
    return PartialBitstream(
        spec=spec,
        header=header,
        shell_prologue=bytes_to_words(raw[:start]),
        shell_epilogue=bytes_to_words(raw[stop:]),
        payload_data=raw[start:stop],
        frame_count=meta["frame_count"],
    )
