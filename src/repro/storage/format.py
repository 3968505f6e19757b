"""On-disk checkpoint image format (the FileBackend's wire format).

A checkpoint image is a *slot file* holding a fixed header followed by a
sequence of named sections.  Each section carries the CRC32 of its raw
(uncompressed) payload so corruption -- torn writes, bit flips, stale
sectors -- is detected at load time, section by section.  Section payloads
are pickled Python values (the same values the in-memory model stores),
optionally zlib-compressed.

Under incremental checkpointing the bulky sections are not stored inline:
they are written as content-addressed *segment* files next to the slot and
the slot stores only a reference (key + CRC + length).  A segment whose
content did not change since the previous checkpoint already exists on
disk and is not rewritten -- the bytes physically written shrink to the
delta, which is exactly what :attr:`CheckpointPolicy.incremental` models.

Layout of a slot file::

    +-----------------------------------------------------------+
    | magic "DSCK" | version u16 | flags u16                    |
    | pid u32 | seq u64 | taken_at f64                          |
    | size u64 | full_size u64 | n_sections u32 | header crc32  |
    +-----------------------------------------------------------+
    | section: name_len u16 | name | mode u8 | comp u8          |
    |          raw_len u64 | stored_len u64 | crc32 u32         |
    |          payload (stored_len bytes)                       |
    +-----------------------------------------------------------+
    | ... more sections ...                                     |

``mode`` is 0 for an inline payload, 1 for a segment reference (the
payload is then the segment key, ASCII).  ``comp`` is 0 for raw pickle,
1 for zlib.  All integers are little-endian.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import CheckpointCorruptError

MAGIC = b"DSCK"
SEGMENT_MAGIC = b"DSEG"
#: Version 2: a replay record in the ``threads`` section is a plain
#: ``(kind, value)`` tuple (version 1 pickled a record class).
FORMAT_VERSION = 2

#: Sections of a checkpoint image, in write order.  ``meta`` holds the
#: small per-checkpoint scalars (thread_lts and accounting) and is always
#: inline; the other four map one-to-one onto the paper's section-4.2
#: checkpoint contents (see DESIGN.md "On-disk checkpoint format").
SECTION_NAMES = ("meta", "threads", "objects", "log", "dummies")

#: Sections eligible for segment (delta) storage under incremental mode.
DELTA_SECTIONS = ("threads", "objects", "log", "dummies")

_HEADER = struct.Struct("<4sHHIQdQQI")
_HEADER_CRC = struct.Struct("<I")
#: Bytes of an image's fixed, CRC-guarded header.
HEADER_BYTES = _HEADER.size + _HEADER_CRC.size
_SECTION = struct.Struct("<HBBQQI")
_SEGMENT_HEADER = struct.Struct("<4sBIQ")

MODE_INLINE = 0
MODE_SEGMENT = 1

COMP_NONE = 0
COMP_ZLIB = 1


@dataclass
class Section:
    """One named, individually checksummed part of a checkpoint image."""

    name: str
    raw_len: int
    crc32: int
    mode: int = MODE_INLINE
    comp: int = COMP_NONE
    #: Inline: the stored (possibly compressed) payload bytes.
    stored: bytes = b""
    #: Segment reference: the content-addressed key.
    segment_key: str = ""

    @property
    def stored_len(self) -> int:
        return len(self.stored) if self.mode == MODE_INLINE else len(self.segment_key)


@dataclass
class ImageHeader:
    """Decoded fixed header of a slot file."""

    pid: int
    seq: int
    taken_at: float
    size: int
    full_size: int
    n_sections: int
    flags: int = 0
    version: int = FORMAT_VERSION


@dataclass
class DecodedImage:
    """A parsed (but not necessarily verified) checkpoint image."""

    header: ImageHeader
    sections: dict[str, Section] = field(default_factory=dict)


def encode_payload(value: Any, compress: bool) -> tuple[bytes, bytes, int]:
    """Pickle ``value``; return ``(raw, stored, comp)``.

    Compression is skipped when it does not help (tiny or incompressible
    payloads), so ``comp`` reports what was actually stored.
    """
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    if compress:
        packed = zlib.compress(raw, level=6)
        if len(packed) < len(raw):
            return raw, packed, COMP_ZLIB
    return raw, raw, COMP_NONE


def decode_payload(stored: bytes, comp: int, raw_len: int, crc: int,
                   context: str) -> Any:
    """Decompress, CRC-verify and unpickle one section payload."""
    if comp == COMP_ZLIB:
        try:
            raw = zlib.decompress(stored)
        except zlib.error as exc:
            raise CheckpointCorruptError(
                f"{context}: zlib payload corrupt ({exc})"
            ) from exc
    elif comp == COMP_NONE:
        raw = stored
    else:
        raise CheckpointCorruptError(f"{context}: unknown compression {comp}")
    if len(raw) != raw_len:
        raise CheckpointCorruptError(
            f"{context}: payload length {len(raw)} != recorded {raw_len}"
        )
    actual = zlib.crc32(raw) & 0xFFFFFFFF
    if actual != crc:
        raise CheckpointCorruptError(
            f"{context}: CRC mismatch (stored {crc:#010x}, actual {actual:#010x})"
        )
    try:
        return pickle.loads(raw)
    except (pickle.UnpicklingError, AttributeError, ImportError, EOFError,
            TypeError, ValueError, IndexError, KeyError) as exc:
        # CRC-valid bytes this build cannot load (a global that no
        # longer exists, a schema from another format version): the
        # slot is unusable, and the caller falls back to the other one.
        raise CheckpointCorruptError(
            f"{context}: payload does not unpickle ({exc!r})"
        ) from exc


def make_section(name: str, value: Any, compress: bool,
                 mode: int = MODE_INLINE) -> tuple[Section, bytes]:
    """Build a section for ``value``; returns the section plus its raw
    pickled bytes (the segment payload when ``mode`` is MODE_SEGMENT)."""
    raw, stored, comp = encode_payload(value, compress)
    section = Section(
        name=name,
        raw_len=len(raw),
        crc32=zlib.crc32(raw) & 0xFFFFFFFF,
        mode=mode,
        comp=comp,
        stored=stored if mode == MODE_INLINE else b"",
    )
    if mode == MODE_SEGMENT:
        section.segment_key = segment_key(section.crc32, section.raw_len)
    return section, stored


def segment_key(crc: int, raw_len: int) -> str:
    """Content address of a section payload (CRC32 + length)."""
    return f"{crc:08x}-{raw_len}"


def encode_image(header: ImageHeader, sections: list[Section]) -> bytes:
    """Serialize a full slot file."""
    head = _HEADER.pack(
        MAGIC, header.version, header.flags, header.pid, header.seq,
        header.taken_at, header.size, header.full_size, len(sections),
    )
    parts = [head, _HEADER_CRC.pack(zlib.crc32(head) & 0xFFFFFFFF)]
    for section in sections:
        name = section.name.encode()
        payload = (
            section.stored if section.mode == MODE_INLINE
            else section.segment_key.encode()
        )
        parts.append(_SECTION.pack(
            len(name), section.mode, section.comp,
            section.raw_len, len(payload), section.crc32,
        ))
        parts.append(name)
        parts.append(payload)
    return b"".join(parts)


def decode_image(blob: bytes, context: str) -> DecodedImage:
    """Parse a slot file, verifying the header CRC and structure.

    Section *payload* CRCs are verified lazily by :func:`decode_payload`
    so that `inspect` can list a partially corrupt image.
    """
    if len(blob) < HEADER_BYTES:
        raise CheckpointCorruptError(
            f"{context}: truncated header ({len(blob)} bytes)"
        )
    head = blob[:_HEADER.size]
    (magic, version, flags, pid, seq, taken_at,
     size, full_size, n_sections) = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CheckpointCorruptError(f"{context}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointCorruptError(
            f"{context}: unsupported format version {version}"
        )
    (stored_crc,) = _HEADER_CRC.unpack(blob[_HEADER.size:HEADER_BYTES])
    actual_crc = zlib.crc32(head) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointCorruptError(f"{context}: header CRC mismatch")

    image = DecodedImage(header=ImageHeader(
        pid=pid, seq=seq, taken_at=taken_at, size=size,
        full_size=full_size, n_sections=n_sections,
        flags=flags, version=version,
    ))
    offset = HEADER_BYTES
    for _ in range(n_sections):
        if offset + _SECTION.size > len(blob):
            raise CheckpointCorruptError(f"{context}: truncated section table")
        (name_len, mode, comp, raw_len,
         stored_len, crc) = _SECTION.unpack(blob[offset:offset + _SECTION.size])
        offset += _SECTION.size
        if offset + name_len + stored_len > len(blob):
            raise CheckpointCorruptError(f"{context}: truncated section payload")
        name = blob[offset:offset + name_len].decode()
        offset += name_len
        payload = blob[offset:offset + stored_len]
        offset += stored_len
        section = Section(name=name, raw_len=raw_len, crc32=crc,
                          mode=mode, comp=comp)
        if mode == MODE_INLINE:
            section.stored = payload
        elif mode == MODE_SEGMENT:
            section.segment_key = payload.decode()
        else:
            raise CheckpointCorruptError(
                f"{context}: unknown section mode {mode}"
            )
        image.sections[name] = section
    return image


def encode_segment(raw_crc: int, comp: int, raw_len: int, stored: bytes) -> bytes:
    """Serialize one content-addressed segment file."""
    return _SEGMENT_HEADER.pack(SEGMENT_MAGIC, comp, raw_crc, raw_len) + stored


def decode_segment(blob: bytes, context: str) -> tuple[int, int, int, bytes]:
    """Parse a segment file; returns ``(comp, crc, raw_len, stored)``."""
    if len(blob) < _SEGMENT_HEADER.size:
        raise CheckpointCorruptError(f"{context}: truncated segment")
    magic, comp, crc, raw_len = _SEGMENT_HEADER.unpack(
        blob[:_SEGMENT_HEADER.size]
    )
    if magic != SEGMENT_MAGIC:
        raise CheckpointCorruptError(f"{context}: bad segment magic {magic!r}")
    return comp, crc, raw_len, blob[_SEGMENT_HEADER.size:]


def peek_header(blob: bytes, context: str) -> Optional[ImageHeader]:
    """Header of a slot file if its fixed part is intact, else None.

    Only the first :data:`HEADER_BYTES` of ``blob`` are read (magic and
    header CRC checked), so a caller may pass just that prefix.
    """
    if len(blob) < HEADER_BYTES:
        return None
    head = blob[:_HEADER.size]
    (magic, version, flags, pid, seq, taken_at,
     size, full_size, n_sections) = _HEADER.unpack(head)
    (stored_crc,) = _HEADER_CRC.unpack(blob[_HEADER.size:HEADER_BYTES])
    if magic != MAGIC or stored_crc != (zlib.crc32(head) & 0xFFFFFFFF):
        return None
    return ImageHeader(pid=pid, seq=seq, taken_at=taken_at, size=size,
                       full_size=full_size, n_sections=n_sections,
                       flags=flags, version=version)
