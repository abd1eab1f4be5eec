"""Deterministic CSV output: fixed 17-significant-digit float formatting."""

from __future__ import annotations

import os

import numpy as np

CHUNK_ROWS = 4096   # rows per format call and write: bounds the text in memory


def fmt(value) -> str:
    """Render one tag or note value at 17 significant digits."""
    return format(float(value), ".17g")


def write_csv(path, header, blocks, trailing_comments=()) -> None:
    """Write a header line, every ``(tags, columns)`` block and ``# ``
    comment lines, each ending in '\\n'.  A block's tags, formatted with
    ``fmt``, prefix its lines; its columns share one line format, ``%.17g``
    (``%s`` for text).  Each chunk of lines goes to a temporary file beside
    ``path`` as soon as it is formatted; the file replaces ``path`` once
    every block is written, so a block that raises leaves neither file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for tags, columns in blocks:
                columns = [np.asarray(c) for c in columns]
                line = ",".join([fmt(t) for t in tags] + [
                    "%s" if c.dtype.kind in "US" else "%.17g"
                    for c in columns])
                for start in range(0, len(columns[0]), CHUNK_ROWS):
                    chunk = np.column_stack(
                        [c[start:start + CHUNK_ROWS].astype(object)
                         for c in columns])
                    fh.write((line + "\n") * len(chunk)
                             % tuple(chunk.ravel().tolist()))
            fh.writelines(f"# {comment}\n" for comment in trailing_comments)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
