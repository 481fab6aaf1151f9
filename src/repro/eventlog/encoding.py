"""Binary encoding of trace entries (the payload inside each log chunk).

Entries are the pickle-friendly tuples of :mod:`repro.analyses.record`:

* ``("access", tid, addr, is_write, instr_uid)``
* ``("acquire"|"release", tid, lock_id)``
* ``("fork"|"join", parent_tid, child_tid)``
* ``("barrier", barrier_id, tids)``

Each entry starts with a one-byte kind tag; every integer field is an
unsigned LEB128 varint. Access entries — the overwhelming bulk of any
trace — are delta-coded against the previous access in the same chunk
(zigzag-signed deltas for tid, addr and instr_uid), which collapses the
common stride-1 / same-thread patterns to one or two bytes per field.
The delta state resets per ``encode_entries`` call, so chunks decode
independently and the log stays seekable.

The encoding is canonical (minimal varints, fixed field order), so
``encode_entries(decode_entries(buf)) == buf`` for any buffer the
decoder accepts — the byte-stability property the oracle checks.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import EventLogError

TraceEntry = Tuple

# Kind tags. Read/write accesses get distinct tags so the flag costs no
# payload byte; sync kinds follow.
_ACCESS_READ = 0
_ACCESS_WRITE = 1
_ACQUIRE = 2
_RELEASE = 3
_FORK = 4
_JOIN = 5
_BARRIER = 6

_SYNC_NAMES = {_ACQUIRE: "acquire", _RELEASE: "release",
               _FORK: "fork", _JOIN: "join"}
_SYNC_TAGS = {name: tag for tag, name in _SYNC_NAMES.items()}


def _zigzag(n: int) -> int:
    return n * 2 if n >= 0 else -n * 2 - 1


#: Bytes an access entry's three varints can span: _get_varint reads at
#: most 10 per field. An access whose fields start at least this far
#: from the end of the buffer decodes its fields without bounds checks.
_ACCESS_MAX = 30


def _put_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise EventLogError(f"eventlog: cannot encode negative varint "
                            f"{value} (zigzag signed fields first)")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _get_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(buf):
            raise EventLogError(
                f"eventlog: truncated varint at byte {start}")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and shift:
                # A continuation chain ending in 0x00 encodes the same
                # value in more bytes — reject to keep encoding canonical.
                raise EventLogError(
                    f"eventlog: non-minimal varint at byte {start}")
            return result, pos
        shift += 7
        if shift > 63:
            raise EventLogError(
                f"eventlog: varint at byte {start} exceeds 64 bits")


def encode_entries(entries) -> bytes:
    """Encode a sequence of trace entries into one chunk payload."""
    out = bytearray()
    prev_tid = prev_addr = prev_uid = 0
    for entry in entries:
        kind = entry[0]
        if kind == "access":
            _, tid, addr, is_write, uid = entry
            out.append(_ACCESS_WRITE if is_write else _ACCESS_READ)
            _put_varint(out, _zigzag(tid - prev_tid))
            _put_varint(out, _zigzag(addr - prev_addr))
            _put_varint(out, _zigzag(uid - prev_uid))
            prev_tid, prev_addr, prev_uid = tid, addr, uid
        elif kind in _SYNC_TAGS:
            _, first, second = entry
            out.append(_SYNC_TAGS[kind])
            _put_varint(out, first)
            _put_varint(out, second)
        elif kind == "barrier":
            _, barrier_id, tids = entry
            out.append(_BARRIER)
            _put_varint(out, barrier_id)
            _put_varint(out, len(tids))
            for tid in tids:
                _put_varint(out, tid)
        else:
            raise EventLogError(
                f"eventlog: cannot encode unknown entry kind {kind!r}")
    return bytes(out)


def decode_entries(buf: bytes) -> List[TraceEntry]:
    """Decode one chunk payload back into trace entries.

    Raises :class:`EventLogError` on an unknown tag, a truncated or
    non-minimal varint, or trailing garbage — never returns a prefix.

    Access fields decode one- and two-byte varints inline, with zigzag
    as ``(z >> 1) ^ -(z & 1)``. A two-byte varint qualifies only when its
    second byte is 0x01..0x7F, which makes it minimal; anything else,
    and every access that starts within :data:`_ACCESS_MAX` bytes of the
    end, goes through :func:`_get_varint`, so a malformed buffer fails
    with the same error either way.
    """
    entries: List[TraceEntry] = []
    append = entries.append
    get_varint = _get_varint
    pos = 0
    tid = addr = uid = 0
    size = len(buf)
    fast_end = size - _ACCESS_MAX
    while pos < size:
        tag = buf[pos]
        pos += 1
        if tag <= _ACCESS_WRITE:
            if pos <= fast_end:
                z = buf[pos]
                if z < 0x80:
                    pos += 1
                elif 0 < buf[pos + 1] < 0x80:
                    z = z & 0x7F | buf[pos + 1] << 7
                    pos += 2
                else:
                    z, pos = get_varint(buf, pos)
                tid += (z >> 1) ^ -(z & 1)
                z = buf[pos]
                if z < 0x80:
                    pos += 1
                elif 0 < buf[pos + 1] < 0x80:
                    z = z & 0x7F | buf[pos + 1] << 7
                    pos += 2
                else:
                    z, pos = get_varint(buf, pos)
                addr += (z >> 1) ^ -(z & 1)
                z = buf[pos]
                if z < 0x80:
                    pos += 1
                elif 0 < buf[pos + 1] < 0x80:
                    z = z & 0x7F | buf[pos + 1] << 7
                    pos += 2
                else:
                    z, pos = get_varint(buf, pos)
                uid += (z >> 1) ^ -(z & 1)
            else:
                z, pos = get_varint(buf, pos)
                tid += (z >> 1) ^ -(z & 1)
                z, pos = get_varint(buf, pos)
                addr += (z >> 1) ^ -(z & 1)
                z, pos = get_varint(buf, pos)
                uid += (z >> 1) ^ -(z & 1)
            append(("access", tid, addr, tag == _ACCESS_WRITE, uid))
        elif tag in _SYNC_NAMES:
            first, pos = get_varint(buf, pos)
            second, pos = get_varint(buf, pos)
            append((_SYNC_NAMES[tag], first, second))
        elif tag == _BARRIER:
            barrier_id, pos = get_varint(buf, pos)
            count, pos = get_varint(buf, pos)
            tids = []
            for _ in range(count):
                member, pos = get_varint(buf, pos)
                tids.append(member)
            append(("barrier", barrier_id, tuple(tids)))
        else:
            raise EventLogError(
                f"eventlog: unknown entry tag {tag} at byte {pos - 1}")
    return entries
