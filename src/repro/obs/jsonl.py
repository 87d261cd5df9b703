"""JSONL (one JSON object per line) trace export and import.

The format is the flat :meth:`ObsEvent.to_dict` form, so traces are
greppable and ``jq``-able::

    {"kind": "phase_start", "t": 0.0, "pid": 0, "phase": 0}
    {"kind": "fault", "t": 0.73, "pid": 3, "detectable": true}
    {"kind": "phase_end", "t": 1.06, "pid": 0, "phase": 0, "success": false}

Round trip is exact for JSON-representable payloads (the only payloads
the engines emit: ints, floats, bools, strings, None).

Non-finite floats (``inf`` recovery latencies from runs that never
converged, ``nan`` placeholders) are *not* JSON-representable; bare
``Infinity``/``NaN`` tokens would make the output unreadable to strict
parsers (``jq``, browsers, other languages).  They are therefore written
as the string sentinels ``"Infinity"`` / ``"-Infinity"`` / ``"NaN"`` and
decoded back to floats on read -- which reserves those three exact
strings; engine payloads never legitimately contain them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Union

from repro.obs.events import ObsEvent

PathOrFile = Union[str, Path, IO[str]]

#: String sentinels standing in for non-finite floats in the files.
NONFINITE_SENTINELS = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def _encode_value(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, str) and value in NONFINITE_SENTINELS:
        return NONFINITE_SENTINELS[value]
    return value


def _opened(path_or_file: PathOrFile, mode: str):
    """(file, needs_close) for a path or an already-open text file."""
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


def write_jsonl(events: Iterable[ObsEvent], path_or_file: PathOrFile) -> int:
    """Write ``events`` one JSON object per line; returns the count."""
    fh, close = _opened(path_or_file, "w")
    try:
        count = 0
        for event in events:
            record = {k: _encode_value(v) for k, v in event.to_dict().items()}
            # allow_nan=False: any non-finite float that slipped past the
            # sentinel encoding is a bug, not a bare Infinity in the file.
            fh.write(json.dumps(record, separators=(",", ":"), allow_nan=False))
            fh.write("\n")
            count += 1
        return count
    finally:
        if close:
            fh.close()


def iter_jsonl(path_or_file: PathOrFile) -> Iterator[ObsEvent]:
    """Lazily yield events from a JSONL trace (blank lines ignored)."""
    fh, close = _opened(path_or_file, "r")
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record: Any = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                event = ObsEvent.from_dict(
                    {k: _decode_value(v) for k, v in record.items()}
                )
            except KeyError as exc:
                raise ValueError(
                    f"bad JSONL at line {lineno}: missing key {exc}"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad JSONL at line {lineno}: {exc}") from exc
            yield event
    finally:
        if close:
            fh.close()


def read_jsonl(path_or_file: PathOrFile) -> list[ObsEvent]:
    """Read a whole JSONL trace into a list."""
    return list(iter_jsonl(path_or_file))
