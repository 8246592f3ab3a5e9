"""Dataset, query, and results file formats.

Binary dataset layout (little-endian throughout): magic ``MEB1``, u32 row
count, u32 dimension, then rows of float32 values in row-major order.  A
query file is the same format with one row.  CSV datasets (one row per
line, comma-separated) are accepted as an interchange path; binary
round-trips are bit-identical, CSV round-trips are good to 1e-6 per entry.
CSV holds any finite float64; binary entries must fit in float32.

Results are JSON Lines, one run per line; comparison curves are CSV with a
fixed header.  Writers emit keys in a fixed order so identical runs produce
identical bytes.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .mips import Query, VectorSet

__all__ = [
    "DatasetFormatError",
    "MAGIC",
    "RESULT_FIELDS",
    "CURVE_FIELDS",
    "read_dataset",
    "write_dataset",
    "read_query",
    "write_query",
    "write_results",
    "read_results",
    "write_curve",
    "read_curve",
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
        fh.write(as_f32.tobytes(order="C"))


def read_dataset(path: str | Path) -> VectorSet:
    """Load a dataset: binary when the magic matches, CSV for ``.csv`` files."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    if raw[:4] == MAGIC:
        data = _parse_binary(raw, path)
    elif path.suffix.lower() != ".csv":
        raise DatasetFormatError(
            f"{path}: bad magic {raw[:4]!r} (expected {MAGIC!r}; text data needs a .csv suffix)"
        )
    elif not raw.strip():
        raise DatasetFormatError(f"{path}: empty CSV file")
    else:
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except (ValueError, OSError) as exc:
            raise DatasetFormatError(f"{path}: malformed CSV: {exc}") from exc
    try:
        return VectorSet(data)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _parse_binary(raw: bytes, path: Path) -> np.ndarray:
    if len(raw) < _HEADER.size:
        raise DatasetFormatError(f"{path}: truncated header")
    magic, n, dim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r}")
    if n < 1 or dim < 1:
        raise DatasetFormatError(f"{path}: invalid shape {n}x{dim}")
    expected = _HEADER.size + 4 * n * dim
    if len(raw) != expected:
        raise DatasetFormatError(
            f"{path}: payload is {len(raw)} bytes, expected {expected} for {n}x{dim}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    return data.reshape(n, dim)


def write_query(path: str | Path, query: Query) -> None:
    write_dataset(path, VectorSet(query.vector[None, :]))


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


def read_results(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_curve(path: str | Path, rows: Iterable[dict]) -> None:
    """Comparison-curve CSV with the fixed header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CURVE_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row[key] for key in CURVE_FIELDS})


def read_curve(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    numeric = [key for key in CURVE_FIELDS if key not in ("method", "knob")]
    for row in rows:
        for key in numeric:
            row[key] = float(row[key])
    return rows
