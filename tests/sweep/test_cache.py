"""Content-addressed artifact cache: keys, blobs, reconstruction."""

# These tests exercise the raw artifact_key() helper with ad-hoc
# params dicts; version pinning is the caller's job (bitstream_params)
# and is covered by test_key_changes_with_any_parameter.
# repro-lint: disable=C503

import os

import pytest

from repro.bitstream.generator import BitstreamSpec, generate_bitstream
from repro.sweep import ArtifactCache, CacheStats, artifact_key
from repro.sweep.cache import bitstream_params
from repro.units import DataSize


def _cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"))


def test_blob_roundtrip(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "test", "value": 1})
    assert cache.get(key) is None
    cache.put(key, b"payload bytes")
    assert cache.get(key) == b"payload bytes"
    assert cache.contains(key)


def test_key_is_canonical_json_order_independent():
    assert (artifact_key({"a": 1, "b": 2.5})
            == artifact_key({"b": 2.5, "a": 1}))


def test_key_changes_with_any_parameter():
    base = bitstream_params(BitstreamSpec(size=DataSize.from_kb(6.5),
                                          seed=2012))
    reseeded = dict(base)
    reseeded["seed"] = 2013
    resized = dict(base)
    resized["size_bytes"] = base["size_bytes"] + 4
    keys = {artifact_key(base), artifact_key(reseeded),
            artifact_key(resized)}
    assert len(keys) == 3


def test_two_level_fanout_layout(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "layout"})
    cache.put(key, b"x")
    assert os.path.exists(os.path.join(cache.root, "objects",
                                       key[:2], key[2:]))


def test_no_temp_files_left_behind(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "tmp-check"})
    cache.put(key, b"x" * 4096)
    leftovers = [name for _, _, names in os.walk(cache.root)
                 for name in names if name.startswith(".tmp-")]
    assert leftovers == []


def test_bitstream_cache_reconstructs_exactly(tmp_path):
    cache = _cache(tmp_path)
    spec = BitstreamSpec(size=DataSize.from_kb(6.5), seed=77)
    stats = CacheStats()
    first = cache.load_bitstream(spec, stats)
    assert (stats.hits, stats.misses) == (0, 1)
    second = cache.load_bitstream(spec, stats)
    assert (stats.hits, stats.misses) == (1, 1)

    reference = generate_bitstream(spec)
    for bitstream in (first, second):
        assert bitstream.raw_bytes == reference.raw_bytes
        assert bitstream.file_bytes == reference.file_bytes
        assert bitstream.frame_payload == reference.frame_payload
        assert bitstream.frame_count == reference.frame_count
        assert (bitstream.frame_payload_offset
                == reference.frame_payload_offset)
        assert (bitstream.frame_payload_words
                == reference.frame_payload_words)
        assert bitstream.header == reference.header


def test_compressed_payload_cache_matches_direct_measure(tmp_path):
    from repro.compress import codec_by_name
    cache = _cache(tmp_path)
    spec = BitstreamSpec(size=DataSize.from_kb(6.5), seed=77)
    stats = CacheStats()
    cold = cache.load_compressed(spec, "RLE", stats)
    warm = cache.load_compressed(spec, "RLE", stats)
    assert cold == warm
    direct = codec_by_name("RLE").measure(
        generate_bitstream(spec).raw_bytes)
    assert cold == direct


def test_record_roundtrip_preserves_floats_exactly(tmp_path):
    cache = _cache(tmp_path)
    params = {"kind": "run-record", "cell": 1}
    record = {"effective_mbps": 1147.7340271238381,
              "duration_ps": 5799253, "verified": True}
    cache.store_record(params, record)
    assert cache.load_record(params) == record


def test_clear_empties_the_store(tmp_path):
    cache = _cache(tmp_path)
    key = artifact_key({"kind": "clear-me"})
    cache.put(key, b"x")
    cache.clear()
    assert cache.get(key) is None


# -- integrity: a damaged blob is a counted miss, never a wrong value ----

def _damage(cache, key, how):
    """Damage the stored file of ``key`` in place."""
    path = os.path.join(cache.root, "objects", key[:2], key[2:])
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if how == "truncate":
        data = data[:len(data) // 2]
    elif how == "short":
        data = data[:2]
    else:
        data[len(data) // 2] ^= 0x5A
    with open(path, "wb") as handle:
        handle.write(bytes(data))


def test_truncated_compressed_entry_is_rebuilt(tmp_path):
    from repro.compress import codec_by_name
    cache = _cache(tmp_path)
    spec = BitstreamSpec(size=DataSize.from_kb(6.5), seed=77)
    cache.load_compressed(spec, "RLE")
    params = bitstream_params(spec)
    params.update(kind="compressed", codec="RLE")
    _damage(cache, artifact_key(params), "truncate")

    stats = CacheStats()
    rebuilt = cache.load_compressed(spec, "RLE", stats)
    assert rebuilt == codec_by_name("RLE").measure(
        generate_bitstream(spec).raw_bytes)
    assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)
    # The rebuilt entry overwrote the damaged one.
    assert cache.load_compressed(spec, "RLE", stats) == rebuilt
    assert (stats.hits, stats.misses, stats.corrupt) == (1, 1, 1)


@pytest.mark.parametrize("how", ["short", "flip"])
def test_damaged_bitstream_entry_is_rebuilt(tmp_path, how):
    cache = _cache(tmp_path)
    spec = BitstreamSpec(size=DataSize.from_kb(6.5), seed=77)
    cache.load_bitstream(spec)
    _damage(cache, artifact_key(bitstream_params(spec)), how)

    stats = CacheStats()
    rebuilt = cache.load_bitstream(spec, stats)
    assert rebuilt.raw_bytes == generate_bitstream(spec).raw_bytes
    assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)
    assert cache.load_bitstream(spec, stats).raw_bytes == rebuilt.raw_bytes
    assert (stats.hits, stats.corrupt) == (1, 1)


def test_damaged_run_record_is_a_counted_miss(tmp_path):
    from repro.sweep import SMOKE_GRID
    from repro.sweep.engine import _execute_cell, _record_params
    cache_root = str(tmp_path / "cache")
    spec = SMOKE_GRID.expand()[0]
    first, _, _, _ = _execute_cell(spec, cache_root=cache_root)
    _damage(ArtifactCache(cache_root),
            artifact_key(_record_params(spec)), "truncate")

    again, stats, snapshot, _ = _execute_cell(
        spec, cache_root=cache_root, collect_metrics=True)
    assert again == first
    assert (stats.hits, stats.corrupt) == (1, 1)
    assert snapshot["counters"]["sweep.cache.corrupt"] == 1
    # The record was rewritten: the next read is a clean hit.
    _, stats, _, _ = _execute_cell(spec, cache_root=cache_root)
    assert (stats.hits, stats.misses, stats.corrupt) == (1, 0, 0)
