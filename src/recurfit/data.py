"""Byte-level synthetic corpora, context packing, and phase mixing.

Tokens are raw bytes plus a document separator, so vocab_size defaults
to 257. Three generators stand in for real corpora: "plain" (word-soup
prose, the healing-phase stand-in), "arithmetic" (single/double-digit
sums, the structured math stand-in), and "copy" (copy-across-a-pipe
sequences). Every batch is a pure function of (seed, step, sample), so
training order is reproducible and resumable without RNG state.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import ContractError, InputError
from .fields import fits
from .random import RandomStream

SEP_TOKEN = 256
BYTE_VOCAB = 257
DATASET_IDS = ("plain", "arithmetic", "copy")
_PHASE = {"datasets": list[Literal[DATASET_IDS]], "weights": list[float],
          "start": int, "end": int}  # a `phases` entry's keys and types

_LEXICON = ("the quick brown fox jumps over a lazy dog while rain falls on "
            "green hills and small birds sing near quiet rivers under pale "
            "morning light").split()


def generate_document(dataset_id: str, stream: RandomStream) -> bytes:
    if dataset_id == "plain":
        n_words = 8 + int(stream.integers(0, 17))
        words = [_LEXICON[int(stream.integers(0, len(_LEXICON)))]
                 for _ in range(n_words)]
        return (" ".join(words) + ".").encode()
    if dataset_id == "arithmetic":
        parts = []
        for _ in range(4 + int(stream.integers(0, 5))):
            a = int(stream.integers(0, 20))
            b = int(stream.integers(0, 20))
            parts.append(f"{a}+{b}={a + b};")
        return "".join(parts).encode()
    if dataset_id == "copy":
        parts = []
        for _ in range(3 + int(stream.integers(0, 4))):
            length = 3 + int(stream.integers(0, 6))
            word = "".join(chr(ord("a") + int(stream.integers(0, 8)))
                           for _ in range(length))
            parts.append(f"{word}|{word};")
        return "".join(parts).encode()
    raise InputError(f"unknown dataset id {dataset_id!r}, not in "
                     f"{DATASET_IDS}")


def pack_corpus(documents, context_length: int = 1024):
    """Concatenate documents with a separator and emit fixed-size contexts.

    Yields (inputs, targets) int arrays of length context_length where
    targets are inputs shifted by one; adjacent contexts overlap by one
    token so no target is dropped.
    """
    buffer: list = []
    any_doc = False
    for doc in documents:
        any_doc = True
        buffer.extend(doc)
        buffer.append(SEP_TOKEN)
        while len(buffer) >= context_length + 1:
            chunk = np.asarray(buffer[:context_length + 1], dtype=np.int64)
            yield chunk[:-1], chunk[1:]
            del buffer[:context_length]
    if not any_doc:
        raise InputError("empty corpus")


def sample_context(dataset_id: str, stream: RandomStream,
                   context_length: int) -> tuple:
    """The first (inputs, targets) pair `pack_corpus` packs from an
    endless stream of fresh documents."""
    documents = iter(lambda: generate_document(dataset_id, stream), None)
    return next(pack_corpus(documents, context_length))


# ---------------------------------------------------------------------------
# phases


def validate_phases(phases: list, total_steps: int) -> None:
    if not phases:
        raise ContractError("at least one phase is required")
    expected_start = 0
    for ph in phases:
        if type(ph) is not dict or set(ph) != set(_PHASE):
            raise ContractError(f"phase {ph!r} is not an object with exactly "
                                f"the keys {sorted(_PHASE)}")
        for key, hint in _PHASE.items():
            if not fits(ph[key], hint):
                raise ContractError(
                    f"phase {key} {ph[key]!r} is not of type "
                    f"{hint.__name__ if type(hint) is type else hint}")
        if ph["start"] != expected_start:
            raise ContractError("phase step ranges must partition the run")
        if ph["end"] <= ph["start"]:
            raise ContractError("phase range must be nonempty")
        weights = np.asarray(ph["weights"], dtype=np.float64)
        if len(ph["datasets"]) != len(weights):
            raise ContractError("datasets and weights length mismatch")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
            raise ContractError("phase weights must be nonnegative and sum to 1")
        expected_start = ph["end"]
    if expected_start != total_steps:
        raise ContractError(f"phases cover [0, {expected_start}), run has "
                            f"{total_steps} steps")


def phase_mixture(phases: list, step: int) -> dict:
    """Dataset -> weight map for the phase whose range contains step."""
    for ph in phases:
        if ph["start"] <= step < ph["end"]:
            return dict(zip(ph["datasets"], ph["weights"]))
    raise ContractError(f"step {step} outside all phase ranges")


def _stacked_contexts(items, context_length: int) -> tuple:
    """(inputs, targets) stacked from `sample_context` over (dataset,
    stream) pairs, one row each."""
    rows = [sample_context(d, stream, context_length) for d, stream in items]
    return tuple(np.stack(column) for column in zip(*rows))


def step_batch(seed: int, step: int, phases: list, batch_size: int,
               context_length: int) -> tuple:
    """Deterministic (inputs, targets) batch for one optimizer step."""
    mixture = phase_mixture(phases, step)
    datasets = list(mixture)
    probs = np.asarray([mixture[d] for d in datasets], dtype=np.float64)
    probs /= probs.sum()
    streams = [RandomStream(seed, f"data/{step}/{i}")
               for i in range(batch_size)]
    names = [datasets[stream.choice(len(datasets), probs)]
             for stream in streams]
    return (*_stacked_contexts(zip(names, streams), context_length), names)


def eval_batch(seed: int, dataset_id: str, count: int,
               context_length: int) -> tuple:
    """Held-out items, disjoint from training draws by stream label."""
    if count < 1 or context_length < 1:
        raise InputError(f"an eval batch needs at least one item and one "
                         f"token of context, got {count} items of "
                         f"{context_length}")
    return _stacked_contexts(
        ((dataset_id, RandomStream(seed, f"eval/{dataset_id}/{i}"))
         for i in range(count)), context_length)


def answer_mask(dataset_id: str, targets: np.ndarray) -> np.ndarray:
    """Mask over target positions that belong to a task answer span.

    For "arithmetic" these are the digits after '='; for "copy" the
    characters after '|'; tasks without answer structure get an all-True
    mask (plain next-token accuracy).
    """
    targets = np.asarray(targets)
    if dataset_id not in ("arithmetic", "copy"):
        return np.ones_like(targets, dtype=bool)
    trigger = ord("=") if dataset_id == "arithmetic" else ord("|")
    stop = ord(";")
    mask = np.zeros_like(targets, dtype=bool)
    for row in range(targets.shape[0]):
        in_answer = False
        for col in range(targets.shape[1]):
            tok = targets[row, col]
            if in_answer and tok != stop and tok != SEP_TOKEN:
                mask[row, col] = True
            if tok == trigger:
                in_answer = True
            elif tok == stop or tok == SEP_TOKEN:
                in_answer = False
    return mask
