"""Versioned binary checkpoint format.

Layout: 4-byte magic ``RFCK``, u32 format version, u64 header length,
UTF-8 JSON header, then a raw little-endian payload. The header carries
run metadata plus a tensor directory of (shape, dtype, offset, nbytes)
entries with offsets relative to the payload start. Round trips are
bit-exact. A save writes a temp file beside the target, syncs it to
disk, renames it over the target and syncs the directory, so the path
names either the previous complete file or the new one, also after a
crash or power loss.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, NonFiniteError

MAGIC = b"RFCK"
FORMAT_VERSION = 1
PREAMBLE_BYTES = 16  # magic, u32 version, u64 header length


def checked_float(what: str, data, shape: tuple) -> np.ndarray:
    """`data` as an array, if it is a finite float32/64 one of `shape`;
    else a FormatError (a NonFiniteError for NaN/Inf) naming `what`."""
    data = np.asarray(data)
    if data.dtype.kind != "f" or data.dtype.itemsize not in (4, 8):
        raise FormatError(f"{what} has dtype {data.dtype}, not float32/64")
    if data.shape != shape:
        raise FormatError(f"{what} has shape {data.shape}, not {shape}")
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{what} is not finite")
    return data


@dataclass
class Checkpoint:
    metadata: dict
    tensors: dict = field(default_factory=dict)  # name -> np.ndarray

    def save(self, path) -> None:
        directory = {}
        chunks = []
        offset = 0
        for name in sorted(self.tensors):
            arr = np.ascontiguousarray(self.tensors[name])
            le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            raw = le.tobytes()
            directory[name] = {"shape": list(arr.shape),
                               "dtype": arr.dtype.newbyteorder("<").str,
                               "offset": offset, "nbytes": len(raw)}
            chunks.append(raw)
            offset += len(raw)
        header = json.dumps({"format_version": FORMAT_VERSION,
                             "metadata": self.metadata,
                             "tensors": directory},
                            sort_keys=True).encode()
        preamble = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header))
        tmp = Path(f"{path}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.writelines([preamble, header, *chunks])
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
            directory = os.open(tmp.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError as exc:  # missing, a directory, unreadable
            raise FormatError(f"{path}: cannot read checkpoint: "
                              f"{exc.strerror or exc}") from exc
        if blob[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {blob[:4]!r}")
        if len(blob) < PREAMBLE_BYTES:
            raise FormatError(f"{path}: truncated preamble ({len(blob)} of "
                              f"{PREAMBLE_BYTES} bytes)")
        version, header_len = struct.unpack("<IQ", blob[4:PREAMBLE_BYTES])
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        body = PREAMBLE_BYTES + header_len
        try:
            header = json.loads(blob[PREAMBLE_BYTES:body].decode())
        except (ValueError, RecursionError) as exc:  # UTF-8 or JSON
            raise FormatError(f"{path}: corrupt header: {exc}") from exc
        if not isinstance(header, dict) or not all(
                isinstance(header.get(k), dict) for k in ("tensors", "metadata")):
            raise FormatError(f"{path}: header needs 'tensors' and "
                              f"'metadata' objects")
        payload = blob[body:]
        tensors = {}
        spans = []
        for name, ent in header["tensors"].items():
            try:
                lo, hi = ent["offset"], ent["offset"] + ent["nbytes"]
                if lo < 0 or hi > len(payload):
                    raise FormatError(f"{path}: tensor {name} outside payload")
                arr = np.frombuffer(payload[lo:hi], dtype=np.dtype(ent["dtype"]))
                tensors[name] = arr.reshape(ent["shape"]).copy()
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"{path}: bad directory entry for tensor "
                                  f"{name}: {exc!r}") from exc
            spans.append((lo, hi, name))
        spans.sort()
        for (_, hi_a, name_a), (lo_b, _, name_b) in zip(spans, spans[1:]):
            if lo_b < hi_a:
                raise FormatError(
                    f"{path}: overlapping tensors {name_a}/{name_b}")
        return cls(metadata=header["metadata"], tensors=tensors)
