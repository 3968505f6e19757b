"""The HTTP/1.1 head, as both ends of the scenario server read it.

:func:`read_head` stands in for the stdlib's ``email``-based parser,
which ``http.client`` and ``http.server`` run on every message.
"""

from __future__ import annotations

from typing import BinaryIO, Dict

#: The stdlib's limits on a head; past either, a server answers 431.
MAX_LINE = 65536
MAX_FIELDS = 100


class HeadError(ValueError):
    """A head past the limits, or a reply the client cannot read."""


def read_head(rfile: BinaryIO) -> Dict[str, str]:
    """The ``Name: value`` lines up to a blank line (or the end of
    input), keyed by lowercased name; a repeated name keeps its last
    value, and a line without a colon is skipped."""
    fields: Dict[str, str] = {}
    for _ in range(MAX_FIELDS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadError("Line too long")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if colon:
            fields[name.strip().lower()] = value.strip()
    raise HeadError(f"Too many headers: more than {MAX_FIELDS}")


__all__ = ["HeadError", "MAX_FIELDS", "MAX_LINE", "read_head"]
