"""Small shared helpers: the bit-exact array codec, the file format versions, versioned reads, atomic writes and number checks."""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile

import numpy as np

__all__ = ["ROW_FORMAT", "CHECKPOINT_FORMAT", "read_versioned_json", "checked_int", "checked_real", "encode_array", "decode_array", "atomic_write_text"]

# Versions of the JSON files the package writes with encoded arrays.  Files
# without a "format" field are format 1, which stored each float as its own
# float.hex() token.  Sweep rows (with their labels files) and checkpoints
# are versioned apart, so a new layout of one leaves files of the other
# readable.
ROW_FORMAT = 3
CHECKPOINT_FORMAT = 2

# Stored dtype -> the native dtype decoding returns; all are 8 bytes wide.
_DTYPES = {"<f8": np.float64, "<i8": np.int64}


def read_versioned_json(path, expected: int) -> dict:
    """The JSON object stored at path in format `expected`; raises OSError, ValueError (invalid JSON included) or TypeError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    version = payload.get("format", 1)
    if version != expected:
        raise ValueError(f"stored in format {version}, this version reads format {expected} only; recompute it")
    return payload


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


def encode_array(values) -> dict:
    """{"dtype", "shape", "hex"}: the array's little-endian bytes in hex, so JSON round trips are bit-exact.

    Floating arrays are stored as <f8 and integer arrays as <i8.
    """
    a = np.asarray(values)
    if a.dtype.kind == "f":
        dtype = "<f8"
    elif a.dtype.kind in "iu":
        dtype = "<i8"
    else:
        raise ValueError(f"cannot encode an array of dtype {a.dtype}")
    return {"dtype": dtype, "shape": list(a.shape), "hex": a.astype(dtype, copy=False).tobytes().hex()}


def decode_array(obj: dict) -> np.ndarray:
    """Inverse of encode_array: a fresh, writable native array; a malformed payload raises ValueError."""
    dtype, shape = obj["dtype"], obj["shape"]
    if dtype not in _DTYPES:
        raise ValueError(f"array dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    if not isinstance(shape, list) or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise ValueError(f"array shape must be a list of sizes >= 0, got {shape!r}")
    raw = bytes.fromhex(obj["hex"])
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"array of {len(raw)} bytes does not hold shape {shape} of 8-byte {dtype}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(_DTYPES[dtype])


def atomic_write_text(path, text: str) -> None:
    """Write via a same-directory temp file + rename; readers never see partial files.

    Missing parent directories are created here, at write time, so a
    command that fails before writing leaves none behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
