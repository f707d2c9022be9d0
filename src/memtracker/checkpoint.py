"""Checkpoint and config-file serialization.

Checkpoint layout (little-endian throughout): magic "MEMTK1\\0\\0", u32
tensor count, then per tensor: u16 name length, name bytes, u8 dtype
(0 = f32, 1 = f64), u8 rank, rank u32 dims, raw row-major values. Tensor
order is preserved, so identical parameter dicts serialize byte-identically.

Config files are line-based "key = value" text; blank lines and '#' comments
are ignored.
"""

from __future__ import annotations

import struct

import numpy as np

from .autodiff import Tensor

MAGIC = b"MEMTK1\x00\x00"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class CheckpointError(Exception):
    """Malformed or truncated checkpoint data."""


def save_checkpoint(path, params):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
            code = _DTYPE_CODES.get(data.dtype)
            if code is None:
                raise CheckpointError(f"tensor {name!r} has unsupported dtype {data.dtype}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", code, data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(data, dtype=_DTYPES[code]).tobytes())


def _read_exact(fh, n):
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint")
    return buf


def load_checkpoint(path):
    params = {}
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            code, rank = struct.unpack("<BB", _read_exact(fh, 2))
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code}")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank)) if rank else ()
            n_values = int(np.prod(dims)) if dims else 1
            raw = _read_exact(fh, n_values * _DTYPES[code].itemsize)
            arr = np.frombuffer(raw, dtype=_DTYPES[code]).reshape(dims).copy()
            params[name] = Tensor(arr)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return params


def save_config(path, entries):
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def load_config(path):
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries
