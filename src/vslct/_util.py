"""Small shared helpers: the record store of arrays, atomic writes and number checks.

Every file the package writes with an array in it (sweep rows, their
labels files and checkpoints) is a record: one line of compact JSON, a
newline, then one array's little-endian bytes, which the JSON line
describes by dtype and shape, so the array round-trips bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
import os

import numpy as np

__all__ = ["RECORD_FORMAT", "write_record", "read_record", "record_array", "checked_int", "checked_real", "atomic_write_bytes", "write_json"]

# Version of the record layout.  Files without a "format" field are format
# 1, which stored each float as its own float.hex() token; formats 2 and 3
# stored each array as the hex of its bytes inside JSON.
RECORD_FORMAT = 4

# Stored dtype -> the native dtype decoding returns; all are 8 bytes wide.
_DTYPES = {"<f8": np.float64, "<i8": np.int64}


def write_record(path, header: dict, key: str, values) -> None:
    """Store header, led by "format": RECORD_FORMAT and with header[key] set to the {"dtype", "shape"} of values, as one line of compact JSON, then a newline and the bytes of values.

    Floating arrays are stored as <f8 and integer arrays as <i8,
    little-endian.  A non-finite float in header raises ValueError, since
    strict JSON has no token for it.
    """
    a = np.asarray(values)
    if a.dtype.kind == "f":
        dtype = "<f8"
    elif a.dtype.kind in "iu":
        dtype = "<i8"
    else:
        raise ValueError(f"cannot encode an array of dtype {a.dtype}")
    line = json.dumps({"format": RECORD_FORMAT, **header, key: {"dtype": dtype, "shape": list(a.shape)}}, separators=(",", ":"), allow_nan=False)
    atomic_write_bytes(path, line.encode() + b"\n" + a.astype(dtype, copy=False).tobytes())


def read_record(path) -> tuple[dict, bytes]:
    """The header and the array bytes of the record stored at path in format RECORD_FORMAT; decode them with record_array.

    Raises OSError, ValueError (a header that is not JSON, or no newline
    after it) or TypeError.  The format is checked before the newline, so
    a one-line JSON file of an older format fails naming its format.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    line, newline, body = data.partition(b"\n")
    header = json.loads(line)
    if not isinstance(header, dict):
        raise TypeError(f"expected a JSON object, got {type(header).__name__}")
    version = header.get("format", 1)
    if version != RECORD_FORMAT:
        raise ValueError(f"stored in format {version}, this version reads format {RECORD_FORMAT} only; recompute it")
    if not newline:
        raise ValueError("no newline after the record's JSON header")
    return header, body


def record_array(meta: dict, raw) -> np.ndarray:
    """The array of meta's dtype and shape whose bytes are raw: a fresh, writable native array; a malformed meta or length raises ValueError."""
    dtype, shape = meta["dtype"], meta["shape"]
    if dtype not in _DTYPES:
        raise ValueError(f"array dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    if not isinstance(shape, list) or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise ValueError(f"array shape must be a list of sizes >= 0, got {shape!r}")
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"array of {len(raw)} bytes does not hold shape {shape} of 8-byte {dtype}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(_DTYPES[dtype])


def checked_int(name: str, value, least: int = 1) -> int:
    """value as an int, if it is an integer >= least (numpy integers included, bools not); otherwise ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def checked_real(name: str, value) -> float:
    """value as a float, if it is a real number (numpy scalars included, bools not); otherwise ValueError naming `name`."""
    if type(value) is float:  # the common case, without the slower numbers.Real check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a same-directory temp file + rename; readers never see partial files.

    Missing parent directories are created here, at write time, so a
    command that fails before writing leaves none behind.  The temp file
    is created under a random name with O_EXCL (a clash fails instead of
    overwriting) and mode 0o666, as open() does, so the file gets the
    permissions the process umask allows.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}-{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    """payload as strict JSON indented by 2, with a final newline, written atomically; a non-finite float raises ValueError and writes nothing."""
    atomic_write_bytes(path, (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode())
