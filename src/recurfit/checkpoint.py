"""Versioned binary checkpoint format.

Layout: 4-byte magic ``RFCK``, u32 format version, u64 header length,
UTF-8 JSON header, then a raw little-endian payload. The header carries
run metadata plus a tensor directory of (shape, dtype, offset, nbytes)
entries with offsets relative to the payload start. Round trips are
bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

MAGIC = b"RFCK"
FORMAT_VERSION = 1
PREAMBLE_BYTES = 16  # magic, u32 version, u64 header length


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
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IQ", FORMAT_VERSION, len(header)))
            f.write(header)
            for raw in chunks:
                f.write(raw)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as f:
            blob = f.read()
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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt header: {exc}") from exc
        if not (isinstance(header, dict) and "tensors" in header
                and "metadata" in header):
            raise FormatError(f"{path}: header lacks 'tensors' or 'metadata'")
        payload = blob[body:]
        tensors = {}
        spans = []
        for name, ent in header["tensors"].items():
            lo, hi = ent["offset"], ent["offset"] + ent["nbytes"]
            if lo < 0 or hi > len(payload):
                raise FormatError(f"{path}: tensor {name} outside payload")
            spans.append((lo, hi, name))
            arr = np.frombuffer(payload[lo:hi], dtype=np.dtype(ent["dtype"]))
            tensors[name] = arr.reshape(ent["shape"]).copy()
        spans.sort()
        for (_, hi_a, name_a), (lo_b, _, name_b) in zip(spans, spans[1:]):
            if lo_b < hi_a:
                raise FormatError(
                    f"{path}: overlapping tensors {name_a}/{name_b}")
        return cls(metadata=header["metadata"], tensors=tensors)
