"""Chunked on-disk framing for recorded event logs.

File layout::

    [file header]  magic "AIKLOG\\x01" + reserved byte
    [chunk]*       "CHNK" + event_count + byte_length + crc32(payload)
                   + payload (encoding.encode_entries of the entries)
    [trailer]      "ENDL" + total_events + total_chunks
                   + crc32(header..last chunk)

Chunks delta-code independently (the encoder resets per chunk), so a
reader can skip to any chunk and decode it in isolation — the property
parallel replay needs to hand chunks to workers. The trailer is written
only by :meth:`EventLogWriter.close`; its CRC covers every preceding
byte, so a torn file (killed writer, short copy) is detected and
*rejected* rather than replayed as a silently shortened trace.

Durability follows the WAL idiom used elsewhere in the repo: the writer
appends to a temp file in the destination directory and atomically
``os.replace``\\ s it into place after fsync, so a crashed recording
never leaves a half-written log under the final name.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import EventLogError
from repro.eventlog.encoding import TraceEntry, decode_entries, encode_entries

FILE_MAGIC = b"AIKLOG\x01\x00"
_CHUNK_MAGIC = b"CHNK"
_TRAILER_MAGIC = b"ENDL"
_CHUNK_HEADER = struct.Struct("<4sIII")     # magic, events, length, crc
_TRAILER = struct.Struct("<4sQII")          # magic, events, chunks, crc

DEFAULT_CHUNK_EVENTS = 2048


class EventLogWriter:
    """Append-only event log writer with atomic finalize.

    Entries accumulate in memory until ``chunk_events`` are pending, then
    flush as one framed chunk. :meth:`close` flushes the final partial
    chunk, writes the trailer, fsyncs, and atomically renames the temp
    file to ``path``. Until then ``path`` does not exist (or keeps its
    previous content), so readers never observe a torn log. Usable as a
    context manager: exceptions abort the recording and unlink the temp
    file.
    """

    def __init__(self, path: str, *, chunk_events: int = DEFAULT_CHUNK_EVENTS,
                 counters=None):
        if chunk_events < 1:
            raise EventLogError(
                f"eventlog: chunk_events must be >= 1, got {chunk_events}")
        self.path = str(path)
        self.chunk_events = chunk_events
        self.counters = counters
        self.events = 0
        self.chunks = 0
        self.bytes_written = 0
        self._pending: List[TraceEntry] = []
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, self._tmp_path = tempfile.mkstemp(
            prefix=".aiklog-", dir=directory)
        self._fh = os.fdopen(fd, "wb")
        self._crc = 0
        self._write(FILE_MAGIC)

    def _write(self, data: bytes) -> None:
        self._fh.write(data)
        self._crc = zlib.crc32(data, self._crc)
        self.bytes_written += len(data)

    def append(self, entry: TraceEntry) -> None:
        self._pending.append(entry)
        self.events += 1
        if self.counters is not None:
            self.counters.bump("events_recorded")
        if len(self._pending) >= self.chunk_events:
            self._flush_chunk()

    def extend(self, entries) -> None:
        for entry in entries:
            self.append(entry)

    def _flush_chunk(self) -> None:
        if not self._pending:
            return
        payload = encode_entries(self._pending)
        header = _CHUNK_HEADER.pack(_CHUNK_MAGIC, len(self._pending),
                                    len(payload), zlib.crc32(payload))
        self._write(header)
        self._write(payload)
        self.chunks += 1
        if self.counters is not None:
            self.counters.bump("chunks_written")
        self._pending.clear()

    def close(self) -> None:
        """Flush, write the trailer, fsync and atomically publish."""
        if self._fh is None:
            return
        self._flush_chunk()
        trailer = _TRAILER.pack(_TRAILER_MAGIC, self.events, self.chunks,
                                self._crc)
        self._write(trailer)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        os.replace(self._tmp_path, self.path)
        if self.counters is not None:
            self.counters.bump("logs_finalized")
            self.counters.bump("bytes_written", self.bytes_written)

    def abort(self) -> None:
        """Discard the recording; the destination path is untouched."""
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None
        os.unlink(self._tmp_path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.abort()
        return False


class EventLogReader:
    """Lazy, validating reader over a finalized event log.

    ``iter_chunks`` decodes one chunk at a time — memory stays bounded
    by the chunk size regardless of log length — and verifies each
    chunk's CRC before yielding it. The constructor checks only the file
    magic; structural validation (trailer present, totals consistent)
    happens as iteration reaches the end, and any violation raises
    :class:`EventLogError` instead of yielding a partial trace.
    """

    def __init__(self, path: str):
        self.path = str(path)
        with open(self.path, "rb") as fh:
            magic = fh.read(len(FILE_MAGIC))
        if magic != FILE_MAGIC:
            raise EventLogError(
                f"eventlog: {self.path} is not an event log "
                f"(bad magic {magic!r})")

    def iter_chunks(self) -> Iterator[Tuple[int, List[TraceEntry]]]:
        """Yield ``(chunk_index, entries)`` pairs, validating as it goes."""
        with open(self.path, "rb") as fh:
            crc = zlib.crc32(fh.read(len(FILE_MAGIC)))
            index = 0
            events_seen = 0
            while True:
                header = fh.read(_CHUNK_HEADER.size)
                if len(header) >= 4 and header[:4] == _TRAILER_MAGIC:
                    trailer = header + fh.read(
                        _TRAILER.size - len(header))
                    self._check_trailer(trailer, crc, events_seen, index)
                    if fh.read(1):
                        raise EventLogError(
                            f"eventlog: {self.path} has trailing bytes "
                            f"after the trailer")
                    return
                if len(header) < _CHUNK_HEADER.size:
                    raise EventLogError(
                        f"eventlog: {self.path} is torn — ended after "
                        f"{index} chunk(s) with no trailer")
                magic, count, length, payload_crc = _CHUNK_HEADER.unpack(
                    header)
                if magic != _CHUNK_MAGIC:
                    raise EventLogError(
                        f"eventlog: {self.path} chunk {index} has bad "
                        f"magic {magic!r}")
                payload = fh.read(length)
                if len(payload) < length:
                    raise EventLogError(
                        f"eventlog: {self.path} is torn — chunk {index} "
                        f"payload truncated "
                        f"({len(payload)}/{length} bytes)")
                if zlib.crc32(payload) != payload_crc:
                    raise EventLogError(
                        f"eventlog: {self.path} chunk {index} CRC "
                        f"mismatch — payload corrupt")
                crc = zlib.crc32(payload, zlib.crc32(header, crc))
                entries = decode_entries(payload)
                if len(entries) != count:
                    raise EventLogError(
                        f"eventlog: {self.path} chunk {index} header "
                        f"claims {count} events, payload decodes to "
                        f"{len(entries)}")
                events_seen += count
                yield index, entries
                index += 1

    def _check_trailer(self, trailer: bytes, crc: int, events_seen: int,
                       chunks_seen: int) -> None:
        if len(trailer) < _TRAILER.size:
            raise EventLogError(
                f"eventlog: {self.path} is torn — truncated trailer")
        magic, total_events, total_chunks, body_crc = _TRAILER.unpack(
            trailer)
        if magic != _TRAILER_MAGIC:
            raise EventLogError(
                f"eventlog: {self.path} has a corrupt trailer "
                f"(magic {magic!r})")
        if body_crc != crc:
            raise EventLogError(
                f"eventlog: {self.path} body CRC mismatch "
                f"(trailer {body_crc:#x}, computed {crc:#x})")
        if (total_events, total_chunks) != (events_seen, chunks_seen):
            raise EventLogError(
                f"eventlog: {self.path} trailer claims "
                f"{total_events} events / {total_chunks} chunks, file "
                f"holds {events_seen} / {chunks_seen}")

    def __iter__(self) -> Iterator[TraceEntry]:
        for _, entries in self.iter_chunks():
            yield from entries

    def read_all(self) -> List[TraceEntry]:
        """Decode the whole log into one list (tests, small logs)."""
        return list(self)

    def stat(self, sink: Optional[Callable[[List[TraceEntry]], None]] = None
             ) -> dict:
        """Summary from a full validating pass (events, chunks, bytes).

        ``sink``, if given, receives each chunk's entries as the pass
        decodes them, so a consumer validates and reads the log in one
        pass. The summary is returned only once the trailer checks out.
        """
        events = 0
        chunks = 0
        for _, entries in self.iter_chunks():
            if sink is not None:
                sink(entries)
            events += len(entries)
            chunks += 1
        return {"path": self.path, "events": events, "chunks": chunks,
                "bytes": os.path.getsize(self.path)}
