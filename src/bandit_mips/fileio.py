"""Dataset, query, and results file formats.

Binary dataset layout (little-endian throughout): magic ``MEB1``, u32 row
count, u32 dimension, then rows of float32 values in row-major order.  A
query file is the same format with one row.  CSV datasets (one row per
line, comma-separated) are accepted as an interchange path; binary
round-trips are bit-identical, CSV round-trips are good to 1e-6 per entry.
CSV holds any finite float64; binary entries must fit in float32.

A binary file is read in one pass: the header and the file size are
checked before anything of the data's size is allocated, then the rows go
through one reused float32 buffer of ``arms.row_block`` rows (256 kB, or
one longer row) into the float64 matrix, a block at a time, each block
bounded and checked for non-finite entries as it lands.  The read holds
the float64 matrix and one block, never the file's bytes.

Results are JSON Lines, one run per line; comparison curves are CSV with a
fixed header.  Writers emit keys in a fixed order so identical runs produce
identical bytes.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from .arms import row_block
from .mips import Query, VectorSet

__all__ = [
    "DatasetFormatError",
    "MAGIC",
    "RESULT_FIELDS",
    "CURVE_FIELDS",
    "read_dataset",
    "write_dataset",
    "read_query",
    "write_results",
    "write_curve",
]

MAGIC = b"MEB1"
_HEADER = struct.Struct("<4sII")

RESULT_FIELDS = (
    "method",
    "params",
    "k",
    "epsilon",
    "delta",
    "seed",
    "precision",
    "suboptimality",
    "pulls_total",
    "ops_naive",
    "wall_ms",
)
CURVE_FIELDS = ("method", "knob", "precision", "speedup_ops", "speedup_wall")


class DatasetFormatError(ValueError):
    """Malformed dataset/query file: bad magic, truncation, bad shape, or non-finite entries."""


def write_dataset(path: str | Path, vectors: VectorSet) -> None:
    """Write binary by default; a ``.csv`` suffix selects CSV text."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        np.savetxt(path, vectors.data, fmt="%.10g", delimiter=",")
        return
    with np.errstate(over="ignore"):
        as_f32 = vectors.data.astype("<f4")
    if not np.isfinite(as_f32).all():
        raise ValueError("entries overflow float32; cannot serialize")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, vectors.n, vectors.dim))
        as_f32.tofile(fh)


def read_dataset(path: str | Path) -> VectorSet:
    """Load a dataset: binary when the magic matches, CSV for ``.csv`` files."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if head[:4] == MAGIC:
                return _read_binary(fh, head, path)
            if path.suffix.lower() != ".csv":
                raise DatasetFormatError(
                    f"{path}: bad magic {head[:4]!r} (expected {MAGIC!r}; "
                    "text data needs a .csv suffix)"
                )
            blank = not head.strip() and not any(line.strip() for line in fh)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    if blank:
        raise DatasetFormatError(f"{path}: empty CSV file")
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise DatasetFormatError(f"{path}: malformed CSV: {exc}") from exc
    try:
        return VectorSet(data)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _read_binary(fh: BinaryIO, head: bytes, path: Path) -> VectorSet:
    """The set of the open MEB1 file ``fh``, read past its header ``head``."""
    if len(head) < _HEADER.size:
        raise DatasetFormatError(f"{path}: truncated header")
    _, n, dim = _HEADER.unpack(head)
    if n < 1 or dim < 1:
        raise DatasetFormatError(f"{path}: invalid shape {n}x{dim}")
    size, expected = os.fstat(fh.fileno()).st_size, _HEADER.size + 4 * n * dim
    if size != expected:
        raise DatasetFormatError(
            f"{path}: payload is {size} bytes, expected {expected} for {n}x{dim}"
        )
    block = np.empty((min(row_block(dim), n), dim), dtype="<f4")

    def fill(rows: np.ndarray, a: int) -> np.ndarray:
        chunk = block[: len(rows)]
        if fh.readinto(chunk) != chunk.nbytes:
            raise ValueError(f"file ended before row {a + len(rows)} of {n}")
        rows[...] = chunk
        return chunk  # float64 holds float32 exactly: the same bound, half the bytes

    try:
        return VectorSet._from_rows((n, dim), fill)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def read_query(path: str | Path) -> Query:
    vs = read_dataset(path)
    if vs.n != 1:
        raise DatasetFormatError(f"{path}: query file must hold exactly 1 row, found {vs.n}")
    return Query(vs.data[0])


def write_results(path: str | Path, rows: Iterable[dict]) -> None:
    """JSON Lines, fixed key order, one run per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            missing = [key for key in RESULT_FIELDS if key not in row]
            if missing:
                raise ValueError(f"result row missing fields: {missing}")
            ordered = {key: row[key] for key in RESULT_FIELDS}
            fh.write(json.dumps(ordered, separators=(",", ":")) + "\n")


def write_curve(path: str | Path, rows: Iterable[dict]) -> None:
    """Comparison-curve CSV with the fixed header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CURVE_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row[key] for key in CURVE_FIELDS})
