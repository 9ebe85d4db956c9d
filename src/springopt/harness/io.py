"""On-disk formats: dense matrices, grayscale images, trace CSVs.

Matrices travel either as plain CSV (one row per line, comma-separated
decimals) or as SPMX: the magic bytes ``SPMX``, two little-endian uint32
(rows, cols), then row-major little-endian float64 payload.  Images are PGM,
binary P5 or ASCII P2, 8-bit with maxval 255, scaled to [0, 1] on load.
Every CSV the harness writes (traces and run summaries) goes through
``write_csv``: one header line, then one line per row, floats printed with
17 significant digits so float64 values round-trip exactly.  A trace CSV's
columns are ``TraceRow``'s fields, in order, and its reader converts each cell
with that field's type.
"""

from __future__ import annotations

import math
import struct
import typing
from pathlib import Path

import numpy as np

from ..solver import Trace, TraceRow

SPMX_MAGIC = b"SPMX"
TRACE_HEADER = ",".join(TraceRow._fields)
_TRACE_TYPES = tuple(typing.get_type_hints(TraceRow).values())


class FormatError(ValueError):
    """Malformed input file."""


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def save_matrix_spmx(path: str | Path, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype=float)))
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", SPMX_MAGIC, rows, cols))
        fh.write(m.astype("<f8").tobytes(order="C"))


def save_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _load_spmx(raw: bytes, path) -> np.ndarray:
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated SPMX header ({len(raw)} bytes, need 12)")
    _magic, rows, cols = struct.unpack_from("<4sII", raw, 0)
    expected = 12 + 8 * rows * cols
    if len(raw) != expected:
        raise FormatError(
            f"{path}: SPMX payload is {len(raw) - 12} bytes at offset 12, expected {expected - 12} "
            f"for {rows}x{cols}"
        )
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=12)
    if not np.all(np.isfinite(data)):
        bad = int(np.flatnonzero(~np.isfinite(data))[0])
        raise FormatError(f"{path}: non-finite entry at element {bad} (offset {12 + 8 * bad})")
    return data.reshape(rows, cols).copy()


def _load_csv_matrix(text: str, path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(f"{path}: line {lineno}: ragged row ({len(values)} cells, expected {width})")
        if not all(math.isfinite(v) for v in values):
            raise FormatError(f"{path}: line {lineno}: non-finite entry")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no matrix rows found")
    return np.asarray(rows, dtype=float)


def load_matrix(path: str | Path) -> np.ndarray:
    """Load a dense matrix, sniffing SPMX by magic and falling back to CSV."""
    raw = Path(path).read_bytes()
    if raw[:4] == SPMX_MAGIC:
        return _load_spmx(raw, path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: neither SPMX nor text CSV ({exc})") from None
    return _load_csv_matrix(text, path)


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def _pgm_tokens(raw: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    while pos < len(raw):
        ch = raw[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl < 0 else nl + 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            yield raw[pos:end], end
            pos = end


def load_image(path: str | Path) -> np.ndarray:
    """Load a P5/P2 PGM (maxval 255) as a float matrix in [0, 1]."""
    raw = Path(path).read_bytes()
    tokens = _pgm_tokens(raw)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise FormatError(f"{path}: empty image file") from None
    if magic not in (b"P5", b"P2"):
        raise FormatError(f"{path}: unsupported magic {magic!r}, expected P5 or P2")
    try:
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, header_end = next(tokens)
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError):
        raise FormatError(f"{path}: malformed PGM header") from None
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}, expected 255")
    count = width * height
    if magic == b"P5":
        start = header_end + 1  # exactly one whitespace byte after maxval
        pixels = np.frombuffer(raw, dtype=np.uint8, count=-1, offset=start)
        if pixels.size < count:
            raise FormatError(f"{path}: P5 payload has {pixels.size} bytes, expected {count}")
        pixels = pixels[:count]
    else:
        values = []
        for tok, _ in tokens:
            values.append(int(tok))
        if len(values) != count:
            raise FormatError(f"{path}: P2 payload has {len(values)} samples, expected {count}")
        pixels = np.asarray(values)
        if pixels.size and (pixels.min() < 0 or pixels.max() > 255):
            raise FormatError(f"{path}: P2 sample out of range [0, 255]")
    return pixels.reshape(height, width).astype(float) / 255.0


def save_image_pgm(path: str | Path, image: np.ndarray, binary: bool = True) -> None:
    """Write a [0, 1] matrix as an 8-bit PGM (P5 when binary, else P2)."""
    img = np.clip(np.asarray(image, dtype=float), 0.0, 1.0)
    pixels = np.rint(img * 255.0).astype(np.uint8)
    h, w = pixels.shape
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode())
            fh.write(pixels.tobytes(order="C"))
    else:
        with open(path, "w") as fh:
            fh.write(f"P2\n{w} {h}\n255\n")
            for row in pixels:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Trace and summary CSVs
# ---------------------------------------------------------------------------


def write_csv(path: str | Path, header, rows, comment: str | None = None) -> None:
    """Write ``rows`` under the column names ``header``: floats with 17
    significant digits, everything else with ``str``; ``comment`` becomes a
    leading ``# comment`` line."""
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) + "\n")


def write_trace_csv(path: str | Path, trace: Trace) -> None:
    # The solver's gradient map is always taken in Gauss-Seidel order.
    write_csv(path, TraceRow._fields, trace.rows, comment="grad_map_mode=gauss-seidel")


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace CSV; leading ``#`` comment lines are skipped."""
    lines = Path(path).read_text().splitlines()
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        idx += 1
    if idx >= len(lines) or lines[idx] != TRACE_HEADER:
        raise FormatError(f"{path}: missing trace header {TRACE_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[idx + 1 :], start=idx + 2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(_TRACE_TYPES):
            raise FormatError(f"{path}: line {lineno}: expected {len(_TRACE_TYPES)} columns, got {len(cells)}")
        try:
            rows.append(TraceRow(*(typ(cell) for typ, cell in zip(_TRACE_TYPES, cells))))
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
    return Trace(rows=rows)
