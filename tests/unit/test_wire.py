"""The shared HTTP head reader (``repro.server.wire.read_head``)."""

from __future__ import annotations

import io

import pytest

from repro.server.wire import MAX_FIELDS, MAX_LINE, HeadError, read_head


def test_fields_are_keyed_by_lowercased_name_and_the_body_stays_unread():
    stream = io.BytesIO(b"Content-Length: 7\r\nX-Repro-Cache:  hit \r\n"
                        b"no colon here\r\n\r\n{body}\r\n")
    assert read_head(stream) == {"content-length": "7", "x-repro-cache": "hit"}
    assert stream.read() == b"{body}\r\n"


def test_end_of_input_ends_the_head():
    assert read_head(io.BytesIO(b"Host: a\n")) == {"host": "a"}


def test_field_count_limit():
    fields = b"".join(b"X-%d: v\r\n" % i for i in range(MAX_FIELDS))
    assert len(read_head(io.BytesIO(fields + b"\r\n"))) == MAX_FIELDS
    with pytest.raises(HeadError, match="Too many headers"):
        read_head(io.BytesIO(fields + b"X-Last: v\r\n\r\n"))


def test_line_length_limit():
    def line(length: int) -> bytes:
        return b"X: " + b"a" * (length - 5) + b"\r\n"

    assert read_head(io.BytesIO(line(MAX_LINE) + b"\r\n"))["x"] == \
        "a" * (MAX_LINE - 5)
    with pytest.raises(HeadError, match="Line too long"):
        read_head(io.BytesIO(line(MAX_LINE + 1) + b"\r\n"))
