"""Binary and CSV dataset formats, results JSONL, curve CSV."""

import csv
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from bandit_mips.fileio import (
    CURVE_FIELDS,
    DatasetFormatError,
    MAGIC,
    RESULT_FIELDS,
    read_dataset,
    read_query,
    write_curve,
    write_dataset,
    write_results,
)
from bandit_mips.arms import row_block
from bandit_mips.mips import Query, VectorSet

# a narrow set: three 4096-row blocks of 16 entries and a partial one
NARROW = (3 * 4096 + 5, 16)


@pytest.mark.parametrize("shape", [(6, 9), NARROW])
def test_binary_round_trip_bit_identical(tmp_path, shape):
    rng = np.random.default_rng(51)
    vs = VectorSet(rng.standard_normal(shape).astype(np.float32).astype(np.float64))
    p = tmp_path / "d.bin"
    write_dataset(p, vs)
    back = read_dataset(p)
    # values chosen representable in float32, so the trip is exact
    assert np.array_equal(back.data, vs.data)
    # and the file itself is stable: write again, same bytes
    p2 = tmp_path / "d2.bin"
    write_dataset(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_binary_header_fields(tmp_path):
    # magic, u32 n, u32 dim, then little-endian f32 row-major
    vs = VectorSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    p = tmp_path / "d.bin"
    write_dataset(p, vs)
    raw = p.read_bytes()
    magic, n, dim = struct.unpack("<4sII", raw[:12])
    assert magic == MAGIC == b"MEB1"
    assert (n, dim) == (2, 2)
    assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_csv_single_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,3\n")
    vs = read_dataset(p)
    assert vs.data.shape == (1, 3)
    assert vs.data.tolist() == [[1.0, 2.0, 3.0]]


def test_csv_round_trip_tolerance(tmp_path):
    rng = np.random.default_rng(52)
    vs = VectorSet(rng.standard_normal((4, 5)))
    p = tmp_path / "d.csv"
    write_dataset(p, vs)
    back = read_dataset(p)
    assert np.max(np.abs(back.data - vs.data)) < 1e-6


def test_wrong_magic_rejected(tmp_path):
    p = tmp_path / "d.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(DatasetFormatError):
        read_dataset(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "d.bin"
    write_dataset(p, VectorSet(np.ones((2, 3))))
    raw = p.read_bytes()
    p.write_bytes(raw[:-4])
    with pytest.raises(DatasetFormatError):
        read_dataset(p)


def test_truncated_header_rejected(tmp_path):
    p = tmp_path / "d.bin"
    p.write_bytes(b"ME")
    with pytest.raises(DatasetFormatError):
        read_dataset(p)


def test_truncated_header_after_the_magic_rejected(tmp_path):
    p = tmp_path / "d.bin"
    p.write_bytes(MAGIC + b"\x02\x00\x00")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{p}: truncated header") + "$"):
        read_dataset(p)


@pytest.mark.parametrize("n, dim", [(0, 3), (2, 0)])
def test_empty_shape_in_header_rejected(tmp_path, n, dim):
    p = tmp_path / "d.bin"
    p.write_bytes(struct.pack("<4sII", MAGIC, n, dim))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{p}: invalid shape {n}x{dim}") + "$"):
        read_dataset(p)


def test_malformed_csv_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,zebra\n")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{p}: malformed CSV: ")):
        read_dataset(p)


def test_nonfinite_payload_rejected(tmp_path):
    p = tmp_path / "d.bin"
    header = struct.pack("<4sII", MAGIC, 1, 2)
    for bad in (np.inf, np.nan):
        p.write_bytes(header + np.array([bad, 1.0], dtype="<f4").tobytes())
        with pytest.raises(DatasetFormatError, match=re.escape(str(p))):
            read_dataset(p)


def _traced_peak(fn):
    """Peak bytes traced (numpy buffers included) while ``fn()`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, dim", [(300, 8192), NARROW])
def test_binary_read_holds_only_the_float64_matrix(tmp_path, n, dim):
    # the rows go through one float32 block buffer into the float64 matrix;
    # holding the file's bytes beside the matrix would take 12 n N bytes
    rng = np.random.default_rng(53)
    vs = VectorSet(rng.standard_normal((n, dim)).astype(np.float32))
    p = tmp_path / "d.bin"
    write_dataset(p, vs)
    peak, back = _traced_peak(lambda: read_dataset(p))
    assert np.array_equal(back.data, vs.data)
    assert back.coord_bound == vs.coord_bound
    assert peak <= 8 * n * dim + 2 * (row_block(dim) * dim * 4) + 256 * 1024


def _payload_cases():
    full = struct.pack("<4sII", MAGIC, 300, 4000) + bytes(4 * 300 * 4000)
    return {
        # a hostile header may not make the reader allocate what it claims
        "huge-header": (struct.pack("<4sII", MAGIC, 2**31 - 1, 2**31 - 1) + bytes(16),
                        2**31 - 1, 2**31 - 1),
        "4-bytes-short": (full[:-4], 300, 4000),
        "4-bytes-long": (full + bytes(4), 300, 4000),
    }


@pytest.mark.parametrize("case", ["huge-header", "4-bytes-short", "4-bytes-long"])
def test_payload_size_checked_before_allocation(tmp_path, case):
    raw, n, dim = _payload_cases()[case]
    p = tmp_path / "d.bin"
    p.write_bytes(raw)
    want = f"{p}: payload is {len(raw)} bytes, expected {12 + 4 * n * dim} for {n}x{dim}"

    def read():
        with pytest.raises(DatasetFormatError, match=re.escape(want) + "$"):
            read_dataset(p)

    peak, _ = _traced_peak(read)
    assert peak < 256 * 1024


@pytest.mark.parametrize("dim", [8192, NARROW[1]])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_in_last_partial_row_block_rejected(tmp_path, bad, dim):
    n = 3 * row_block(dim) + 3
    data = np.ones((n, dim), dtype="<f4")
    data[-1, 2] = bad
    p = tmp_path / "d.bin"
    p.write_bytes(struct.pack("<4sII", MAGIC, n, dim) + data.tobytes())
    with pytest.raises(DatasetFormatError, match=re.escape(f"{p}: data entries must be finite")):
        read_dataset(p)


@pytest.mark.filterwarnings("error")  # no numpy warning on the way to the error
@pytest.mark.parametrize("text", ["1,nan\n", ""])
def test_csv_nonfinite_or_empty_rejected(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(DatasetFormatError, match=re.escape(str(p))):
        read_dataset(p)


@pytest.mark.parametrize("text", ["\n \n\t\n" * 5, "\n" * 20 + "1,2\n"])
def test_csv_blank_check_reads_past_the_header(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    if text.strip():
        assert read_dataset(p).data.tolist() == [[1.0, 2.0]]
    else:
        with pytest.raises(DatasetFormatError, match=re.escape(f"{p}: empty CSV file")):
            read_dataset(p)


def test_csv_read_holds_no_copy_of_the_file(tmp_path):
    # the blank check reads line by line; the parse is numpy's alone
    x = np.random.default_rng(3).standard_normal((400, 500))
    p = tmp_path / "d.csv"
    np.savetxt(p, x, delimiter=",")
    peak, back = _traced_peak(lambda: read_dataset(p))
    assert np.allclose(back.data, x, rtol=1e-6)
    assert peak < p.stat().st_size


def test_float32_overflow_limits_binary_writes_only(tmp_path):
    vs = VectorSet(np.array([[1e300, 2.0]]))
    p = tmp_path / "d.csv"
    write_dataset(p, vs)
    assert read_dataset(p).data.tolist() == [[1e300, 2.0]]
    with pytest.raises(ValueError, match="overflow float32"):
        write_dataset(tmp_path / "d.bin", vs)


def test_query_round_trip(tmp_path):
    q = Query(np.array([0.25, -1.5, 3.0]))
    p = tmp_path / "q.bin"
    write_dataset(p, VectorSet(q.vector[None, :]))
    back = read_query(p)
    assert back.vector.tolist() == q.vector.tolist()


def test_query_multi_row_rejected(tmp_path):
    p = tmp_path / "q.bin"
    write_dataset(p, VectorSet(np.ones((2, 3))))
    with pytest.raises(DatasetFormatError):
        read_query(p)


def test_results_jsonl_field_order(tmp_path):
    row = {
        "method": "naive", "params": {"x": 1}, "k": 5, "epsilon": 0.1,
        "delta": 0.1, "seed": 0, "precision": 1.0, "suboptimality": 0.0,
        "pulls_total": 10, "ops_naive": 10, "wall_ms": 0.0,
    }
    p = tmp_path / "r.jsonl"
    write_results(p, [row])
    line = p.read_text().strip()
    assert list(json.loads(line).keys()) == list(RESULT_FIELDS)
    assert [json.loads(line) for line in p.read_text().splitlines()] == [row]


def test_results_reject_missing_field(tmp_path):
    with pytest.raises(ValueError):
        write_results(tmp_path / "r.jsonl", [{"method": "naive"}])


def test_curve_round_trip(tmp_path):
    rows = [
        {"method": "lsh", "knob": "a=4,b=1", "precision": 0.5,
         "speedup_ops": 10.0, "speedup_wall": 2.0},
        {"method": "naive", "knob": "exhaustive", "precision": 1.0,
         "speedup_ops": 1.0, "speedup_wall": 1.0},
    ]
    p = tmp_path / "c.csv"
    write_curve(p, rows)
    header = p.read_text().splitlines()[0]
    assert header == ",".join(CURVE_FIELDS)
    with open(p, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert [r["method"] for r in back] == ["lsh", "naive"]
    assert float(back[0]["precision"]) == pytest.approx(0.5)
    assert float(back[0]["speedup_ops"]) == pytest.approx(10.0)
    assert float(back[0]["speedup_wall"]) == pytest.approx(2.0)
