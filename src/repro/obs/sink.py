"""Durable sinks: crash-tolerant rotating JSONL files for flight-recorder
events and other JSON records.

The flight recorder (:mod:`repro.obs.events`) is a ring buffer — the right
shape for a live endpoint, the wrong one for history: a long-lived process
evicts its oldest decisions and a crashed run loses everything.  A
:class:`RotatingSink` gives the recorder a disk half:

* **Write-ahead.**  An :class:`~repro.obs.events.EventLog` with an
  :class:`EventSink` attached (``log.attach_sink(sink)``) writes every event
  to disk *at emission time*, before the ring ever evicts it — the disk-side
  history is complete even when ``repro_events_dropped_total`` counts ring
  overflow.  Folded logs go through the receiving log's ``emit`` (see
  :meth:`EventLog.merge_payload`), so they spill through the same sink in
  the same deterministic order.
* **Rotation.**  The active segment rolls over on size (``max_bytes``) or
  age (``max_age_seconds``); rotated segments are finalized with an atomic
  :func:`os.replace` and optionally gzipped.  Segment names carry a
  monotonic index, so rotation order is recoverable from the directory
  alone.
* **Crash tolerance.**  The active segment is written as ``*.jsonl.open``;
  a crash leaves at worst a truncated trailing line, which replay tolerates
  (the complete prefix is recovered, nothing raises).  Leftover ``.open``
  segments from a previous process are finalized on the next sink's
  construction.  Write failures are swallowed and counted
  (:attr:`RotatingSink.write_errors`) — a sink that cannot persist degrades
  to the in-memory ring, mirroring the artifact store's contract.
* **Scrape-safe.**  Replay takes the sink lock only to flush; reading races
  rotation and gzip finalization without errors (a segment renamed between
  listing and open is re-resolved by index), which is what lets a live
  ``/events.jsonl`` scrape serve full history mid-run.

Layout, for ``prefix="events"``::

    <directory>/events-00000000.jsonl       # finalized segment
    <directory>/events-00000001.jsonl.gz    # finalized + compressed
    <directory>/events-00000002.jsonl.open  # active (crash leaves this)

Every segment starts with a header line carrying :data:`SINK_SCHEMA`; a
segment written by an incompatible version is refused loudly, never
half-read — the same stance the event log's own JSONL format takes.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from .events import EVENT_SCHEMA, Event, EventLog

#: Version of the segment format (header line + one JSON record a line).
#: Bump on incompatible changes so replay never mis-reads old segments.
SINK_SCHEMA = 1

#: Default rotation threshold: segments stay small enough to gzip and ship
#: as CI artifacts while a benchmark run still fits in a handful of them.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

_SEGMENT_NAME = re.compile(
    r"^(?P<prefix>[A-Za-z0-9_.-]+)-(?P<index>\d{8})\.jsonl"
    r"(?P<suffix>\.gz|\.open)?$")


def _segment_indices(directory: Path, prefix: str) -> Dict[int, str]:
    """``index -> suffix`` for every segment of ``prefix`` on disk.

    When one index exists in several states (e.g. a plain segment plus a
    finished gzip of it), the *finalized plain* file wins, then the gzip,
    then the active ``.open`` file — matching finalization order, so replay
    never prefers a file that may still be mid-write.
    """
    preference = {"": 0, ".gz": 1, ".open": 2}
    found: Dict[int, str] = {}
    try:
        names = os.listdir(directory)
    except OSError:
        return {}
    for name in names:
        match = _SEGMENT_NAME.match(name)
        if match is None or match.group("prefix") != prefix:
            continue
        index = int(match.group("index"))
        suffix = match.group("suffix") or ""
        if index not in found or preference[suffix] < preference[found[index]]:
            found[index] = suffix
    return found


class RotatingSink:
    """A rotating, crash-tolerant JSONL sink over one directory.

    ``append`` takes one JSON-safe dict per call and never raises on I/O
    failure (failures count on :attr:`write_errors`).  ``flush_every``
    controls how often the line buffer reaches the OS: the default of 1
    makes every appended record durable against a process crash up to OS
    buffering; raise it for hotter loops — replay tolerates the truncated
    tail either way.
    """

    def __init__(self, directory: Union[str, Path], prefix: str = "records",
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 max_age_seconds: Optional[float] = None,
                 compress: bool = False, flush_every: int = 1) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if not _SEGMENT_NAME.match(f"{prefix}-00000000.jsonl"):
            raise ValueError(f"invalid sink prefix {prefix!r}")
        self.directory = Path(directory)
        self.prefix = prefix
        self.max_bytes = max_bytes
        self.max_age_seconds = max_age_seconds
        self.compress = compress
        self.flush_every = max(1, int(flush_every))
        #: Records appended over the sink's lifetime (this instance).
        self.lines_written = 0
        #: Segments finalized by rotation (this instance).
        self.rotations = 0
        #: Appends or finalizations that failed on I/O (sink kept going).
        self.write_errors = 0
        self._lock = threading.RLock()
        self._active: Optional[io.TextIOWrapper] = None
        self._active_bytes = 0
        self._active_opened = 0.0
        self._unflushed = 0
        self._closed = False
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.write_errors += 1
        existing = _segment_indices(self.directory, prefix)
        # Crash recovery: a previous process's active segment is finalized
        # as-is (its truncated tail, if any, is replay's job to tolerate).
        for index, suffix in sorted(existing.items()):
            if suffix == ".open":
                try:
                    os.replace(self._path(index, ".open"), self._path(index))
                except OSError:
                    self.write_errors += 1
        self._index = max(existing) + 1 if existing else 0

    # ---------------------------------------------------------------- layout
    def _path(self, index: int, suffix: str = "") -> Path:
        return self.directory / f"{self.prefix}-{index:08d}.jsonl{suffix}"

    @property
    def active_index(self) -> int:
        """The index the next appended record lands in."""
        return self._index

    # --------------------------------------------------------------- writing
    def _open_active(self) -> None:
        path = self._path(self._index, ".open")
        handle = open(path, "a", encoding="utf-8")
        header = json.dumps({"repro_sink_schema": SINK_SCHEMA,
                             "prefix": self.prefix,
                             "segment": self._index}, sort_keys=True)
        handle.write(header + "\n")
        self._active = handle
        self._active_bytes = len(header) + 1
        self._active_opened = time.monotonic()
        self._unflushed = 0

    def append(self, record: Dict[str, Any]) -> bool:
        """Write one record; ``False`` when the write failed (and counted)."""
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError):
            with self._lock:
                self.write_errors += 1
            return False
        with self._lock:
            if self._closed:
                self.write_errors += 1
                return False
            try:
                if self._active is not None and (
                        self._active_bytes + len(line) + 1 > self.max_bytes
                        or (self.max_age_seconds is not None
                            and time.monotonic() - self._active_opened
                            > self.max_age_seconds)):
                    self._finalize_active()
                if self._active is None:
                    self._open_active()
                self._active.write(line + "\n")
                self._active_bytes += len(line) + 1
                self._unflushed += 1
                if self._unflushed >= self.flush_every:
                    self._active.flush()
                    self._unflushed = 0
            except (OSError, TypeError, ValueError):
                self.write_errors += 1
                return False
            self.lines_written += 1
            return True

    def _finalize_active(self) -> None:
        """Close and atomically publish the active segment (then gzip it)."""
        handle, index = self._active, self._index
        self._active = None
        self._index += 1
        self.rotations += 1
        handle.flush()
        handle.close()
        final = self._path(index)
        os.replace(self._path(index, ".open"), final)
        if not self.compress:
            return
        # Compression is an optimisation over an already-finalized segment:
        # the .gz is built under a temporary name, published atomically, and
        # only then is the plain segment removed — a crash at any point
        # leaves at least one complete copy (replay prefers the plain one).
        try:
            temporary = final.with_name(final.name + f".gz.{os.getpid()}.tmp")
            with open(final, "rb") as plain, \
                    gzip.open(temporary, "wb") as compressed:
                compressed.writelines(plain)
            os.replace(temporary, final.with_name(final.name + ".gz"))
            final.unlink()
        except OSError:
            self.write_errors += 1
            try:
                temporary.unlink()
            except OSError:
                pass

    def flush(self) -> None:
        """Push buffered lines to the OS (used before a concurrent replay)."""
        with self._lock:
            if self._active is not None:
                try:
                    self._active.flush()
                    self._unflushed = 0
                except OSError:
                    self.write_errors += 1

    def rotate(self) -> None:
        """Force-finalize the active segment (next append opens a new one)."""
        with self._lock:
            if self._active is not None:
                try:
                    self._finalize_active()
                except OSError:
                    self.write_errors += 1

    def close(self) -> None:
        """Finalize the active segment and refuse further appends."""
        with self._lock:
            self.rotate()
            self._closed = True

    def __enter__(self) -> "RotatingSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _open_segment(directory: Path, prefix: str,
                  index: int) -> Optional[io.TextIOBase]:
    """Open segment ``index`` in whatever state it currently exists.

    Resolution happens at open time, not listing time, so a replay racing a
    rotation (``.open`` renamed to ``.jsonl``) or a gzip finalization
    (``.jsonl`` replaced by ``.jsonl.gz``) finds the segment under its new
    name instead of erroring.
    """
    base = directory / f"{prefix}-{index:08d}.jsonl"
    for _ in range(2):  # second try covers a rename mid-probe
        for path, opener in ((base, lambda p: open(p, "r", encoding="utf-8",
                                                   errors="replace")),
                             (base.with_name(base.name + ".open"),
                              lambda p: open(p, "r", encoding="utf-8",
                                             errors="replace")),
                             (base.with_name(base.name + ".gz"),
                              lambda p: gzip.open(p, "rt", encoding="utf-8",
                                                  errors="replace"))):
            try:
                return opener(path)
            except OSError:
                continue
    return None


def replay_records(directory: Union[str, Path],
                   prefix: str = "records") -> Iterator[Dict[str, Any]]:
    """Yield every record under ``directory`` in rotation order.

    Tolerant exactly where crash tolerance demands it: a truncated trailing
    line (or a partial segment left by a crashed rotation) silently ends
    that segment's replay; an unreadable segment is skipped.  A *parsable*
    header with the wrong schema version still raises — an incompatible
    format must never be half-read.
    """
    directory = Path(directory)
    for index in sorted(_segment_indices(directory, prefix)):
        handle = _open_segment(directory, prefix, index)
        if handle is None:
            continue
        with handle:
            header_seen = False
            while True:
                try:
                    line = handle.readline()
                except (OSError, EOFError):
                    break  # truncated gzip stream: complete prefix only
                if not line:
                    break
                if not line.endswith("\n"):
                    break  # truncated trailing line: still being written
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    break  # corrupt tail: everything before it is good
                if not isinstance(record, dict):
                    break
                if not header_seen:
                    header_seen = True
                    if "repro_sink_schema" in record:
                        if record["repro_sink_schema"] != SINK_SCHEMA:
                            raise ValueError(
                                f"unsupported sink schema "
                                f"{record['repro_sink_schema']!r} in segment "
                                f"{index} (expected {SINK_SCHEMA})")
                        continue
                yield record


class EventSink(RotatingSink):
    """A rotating sink of flight-recorder events (``prefix="events"``).

    Attach to a log with :meth:`EventLog.attach_sink`; every emitted event
    (including events folded by ``merge_payload``) is written
    through before the ring can evict it.
    """

    def __init__(self, directory: Union[str, Path], prefix: str = "events",
                 **options: Any) -> None:
        super().__init__(directory, prefix=prefix, **options)

    def append_event(self, event: Event) -> bool:
        return self.append(event.as_dict())

    def replay_events(self) -> Iterator[Event]:
        self.flush()
        return iter_sink_events(self.directory, self.prefix)


def iter_sink_events(directory: Union[str, Path],
                     prefix: str = "events") -> Iterator[Event]:
    """Replay a sink directory as :class:`Event` objects, rotation order."""
    for record in replay_records(directory, prefix):
        try:
            yield Event.from_dict(record)
        except (KeyError, TypeError, ValueError):
            continue  # a foreign record in the stream is not an event
    return


def read_sink_events(directory: Union[str, Path], prefix: str = "events",
                     capacity: Optional[int] = None) -> EventLog:
    """An :class:`EventLog` reconstructed from a sink directory.

    The disk history is complete by the write-ahead contract, so the
    returned log reports ``dropped == 0`` — ring overflow in the writing
    process never loses disk-side events.  Recorded ``seq`` ids are
    preserved; numbering continues after the highest recorded id.
    """
    events = list(iter_sink_events(directory, prefix))
    log = EventLog(capacity=capacity if capacity is not None
                   else max(len(events), 1))
    for event in events:
        log._events.append(event)
        log.next_seq = max(log.next_seq, event.seq + 1)
    return log


def sink_history_jsonl(directory: Union[str, Path],
                       prefix: str = "events") -> str:
    """A sink directory rendered in the event log's JSONL wire format.

    What ``/events.jsonl`` serves when the ring has dropped: the header's
    ``dropped`` is 0 because the disk-side history is complete.
    """
    lines = [json.dumps({"repro_events_schema": EVENT_SCHEMA, "dropped": 0,
                         "next_seq": 0}, sort_keys=True)]
    next_seq = 0
    for event in iter_sink_events(directory, prefix):
        lines.append(json.dumps(event.as_dict(), sort_keys=True))
        next_seq = max(next_seq, event.seq + 1)
    lines[0] = json.dumps({"repro_events_schema": EVENT_SCHEMA, "dropped": 0,
                           "next_seq": next_seq}, sort_keys=True)
    return "\n".join(lines) + "\n"


def load_events_path(path: Union[str, Path],
                     prefix: str = "events") -> EventLog:
    """Load events from either a single JSONL file or a sink directory.

    The dispatch every CLI surface uses (``repro-explain``, ``repro-runs
    diff``): a directory replays rotated segments (gzipped or not) in
    rotation order; anything else parses as one ``events.jsonl`` file.
    """
    if os.path.isdir(path):
        return read_sink_events(path, prefix)
    return EventLog.read_jsonl(str(path))
