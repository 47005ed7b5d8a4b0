"""BIT-file preamble encode/decode."""

import pytest

from repro.bitstream.header import BitstreamHeader
from repro.errors import BitstreamFormatError


def make_header(**overrides):
    fields = dict(
        design_name="module.ncd",
        part_name="xc5vsx50t",
        date="2012/03/12",
        time="14:00:00",
        payload_length=1024,
    )
    fields.update(overrides)
    return BitstreamHeader(**fields)


def test_roundtrip():
    header = make_header()
    decoded, offset = BitstreamHeader.decode(header.encode())
    assert decoded == header
    assert offset == len(header.encode())


def test_decode_reports_payload_offset():
    header = make_header(payload_length=8)
    blob = header.encode() + b"\xAA" * 8
    decoded, offset = BitstreamHeader.decode(blob)
    assert blob[offset:] == b"\xAA" * 8


def test_missing_magic_rejected():
    with pytest.raises(BitstreamFormatError):
        BitstreamHeader.decode(b"\x00\x01not-a-bit-file")


def test_truncated_field_rejected():
    blob = make_header().encode()[:20]
    with pytest.raises(BitstreamFormatError):
        BitstreamHeader.decode(blob)


def test_corrupt_field_tag_rejected():
    blob = bytearray(make_header().encode())
    blob[13] = ord("z")  # first field tag should be 'a'
    with pytest.raises(BitstreamFormatError):
        BitstreamHeader.decode(bytes(blob))


def test_missing_length_field_rejected():
    blob = make_header().encode()
    # Chop the 'e' field (1 tag + 4 length bytes).
    with pytest.raises(BitstreamFormatError):
        BitstreamHeader.decode(blob[:-5] + b"x" * 0)


def test_non_ascii_field_rejected():
    blob = make_header().encode()
    blob = blob.replace(b"module.ncd", b"m\xf6dule.ncd")
    with pytest.raises(BitstreamFormatError, match="not ASCII"):
        BitstreamHeader.decode(blob)


def test_long_names_supported():
    header = make_header(design_name="a" * 200)
    decoded, _ = BitstreamHeader.decode(header.encode())
    assert decoded.design_name == "a" * 200
