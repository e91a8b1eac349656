"""Reference reader of the written CSV form that splits the text row by row.

``meterfill.series._parse_written`` splits the whole text into cells in one
pass.  This is the earlier body: it splits the rows, checks that each has
one comma, and joins them again before splitting the cells.  The tests
require the two to accept the same texts with the same values and to turn
away the same texts.
"""

import math
from datetime import datetime, timedelta

import numpy as np

from meterfill.series import _HEADER, _NAN_TOKENS, _timestamps


def parse_written(text):
    header = ",".join(_HEADER) + "\n"
    if not text.startswith(header) or not text.endswith("\n") or '"' in text or "\r" in text:
        return None
    comma = text.find(",", len(header))
    first = text[len(header) : comma] if comma > 0 else ""
    try:
        start = datetime.fromisoformat(first)
    except ValueError:
        return None
    if first != start.isoformat(sep=" "):
        return None
    rows = text[len(header) : -1].split("\n")
    if len(rows) < 2 or {row.count(",") for row in rows} != {1}:
        return None
    cells = ",".join(rows).split(",")
    stamps, fields = cells[0::2], cells[1::2]
    try:
        resolution = datetime.fromisoformat(stamps[1]) - start
        if (
            resolution <= timedelta(0)
            or stamps[-1] != (start + (len(rows) - 1) * resolution).isoformat(sep=" ")
            or stamps != list(_timestamps(start, resolution, len(rows)))
        ):
            return None
        values = np.array([float(f) if f else math.nan for f in fields])
    except (ValueError, TypeError, OverflowError):
        return None
    bad = np.flatnonzero(~np.isfinite(values))
    if any(fields[i] and fields[i].lower() not in _NAN_TOKENS for i in bad):
        return None
    return start, resolution, values
