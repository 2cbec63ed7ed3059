"""Synthetic corpora, packing, phase mixing, and FLOP accounting."""

import numpy as np
import pytest

from recurfit.data import (BYTE_VOCAB, SEP_TOKEN, answer_mask, eval_batch,
                           generate_document, pack_corpus, phase_mixture,
                           sample_context, step_batch, validate_phases)
from recurfit.errors import ContractError, InputError
from recurfit.flops import recurrent_split, train_flops
from recurfit.random import RandomStream
from recurfit.schedules import CurriculumSpec, curriculum_mean
from recurfit.surgery import ParamReport


# ---------------------------------------------------------------------------
# corpora and packing


def test_generators_produce_expected_grammar():
    stream = RandomStream(0, "g")
    plain = generate_document("plain", stream.child("p"))
    assert plain.endswith(b".") and b" " in plain
    arith = generate_document("arithmetic", stream.child("a"))
    for clause in arith.decode().rstrip(";").split(";"):
        lhs, rhs = clause.split("=")
        a, b = lhs.split("+")
        assert int(a) + int(b) == int(rhs)
    copy = generate_document("copy", stream.child("c"))
    for clause in copy.decode().rstrip(";").split(";"):
        left, right = clause.split("|")
        assert left == right and left.isalpha()


def test_generate_document_rejects_unknown_id():
    with pytest.raises(InputError):
        generate_document("wikipedia", RandomStream(0, "g"))


def test_pack_corpus_2048_bytes_two_contexts():
    docs = [bytes([65] * 1023), bytes([66] * 1023)]  # + 2 separators = 2048
    chunks = list(pack_corpus(docs, context_length=1024))
    assert len(chunks) == 1  # 2048 tokens -> one full (1024+1) window + 1023 left
    docs = [bytes([65] * 1023), bytes([66] * 1024)]  # 2049 total
    chunks = list(pack_corpus(docs, context_length=1024))
    assert len(chunks) == 2
    (in0, tg0), (in1, tg1) = chunks
    assert in0.shape == tg0.shape == (1024,)
    # shift property: targets are inputs shifted by one
    assert np.array_equal(in0[1:], tg0[:-1])
    # one-token overlap between adjacent contexts
    assert in1[0] == tg0[-1]


def test_pack_corpus_inserts_separator():
    (inputs, targets), = pack_corpus([b"x" * 100, b"y" * 100],
                                     context_length=150)
    assert inputs[100] == SEP_TOKEN
    assert inputs.max() < BYTE_VOCAB


def test_pack_corpus_empty_raises():
    with pytest.raises(InputError):
        list(pack_corpus([], context_length=16))


def test_sample_context_deterministic():
    a = sample_context("plain", RandomStream(1, "s"), 64)
    b = sample_context("plain", RandomStream(1, "s"), 64)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_context("plain", RandomStream(2, "s"), 64)
    assert not np.array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# phases


def two_phase(total):
    half = total // 2
    return [{"datasets": ["plain"], "weights": [1.0], "start": 0, "end": half},
            {"datasets": ["plain", "arithmetic"], "weights": [0.5, 0.5],
             "start": half, "end": total}]


def test_validate_phases_accepts_partition():
    validate_phases(two_phase(100), 100)


@pytest.mark.parametrize("mutate,field", [
    (lambda p: p[1].update(start=49), "gap"),
    (lambda p: p[1].update(end=99), "coverage"),
    (lambda p: p[0].update(weights=[0.9]), "sum"),
    (lambda p: p[0].update(weights=[-1.0, 2.0], datasets=["plain", "copy"]),
     "negative"),
    (lambda p: p[0].update(end=0), "empty"),
    (lambda p: p[1].pop("end"), "missing-key"),
    (lambda p: p.clear(), "no-phase"),
    (lambda p: p[0].update(datasets=["plain", "copy"]), "length"),
    (lambda p: p[1].update(datasets=["plain", "arithmetik"]),
     "unknown-dataset"),
])
def test_validate_phases_rejects_bad_partitions(mutate, field):
    phases = two_phase(100)
    mutate(phases)
    with pytest.raises(ContractError):
        validate_phases(phases, 100)


def test_phase_mixture_half_open_boundary():
    phases = two_phase(100)
    assert phase_mixture(phases, 49) == {"plain": 1.0}
    assert phase_mixture(phases, 50) == {"plain": 0.5, "arithmetic": 0.5}
    with pytest.raises(ContractError):
        phase_mixture(phases, 100)


def test_step_batch_respects_mixture():
    phases = [{"datasets": ["plain", "arithmetic", "copy"],
               "weights": [1 / 3, 1 / 3, 1 / 3], "start": 0, "end": 10}]
    seen = []
    for step in range(10):
        _, _, names = step_batch(0, step, phases, batch_size=16,
                                 context_length=32)
        seen.extend(names)
    counts = {d: seen.count(d) for d in ("plain", "arithmetic", "copy")}
    total = len(seen)
    for d, c in counts.items():
        assert abs(c / total - 1 / 3) < 0.15, counts


def test_step_batch_deterministic_and_step_dependent():
    phases = [{"datasets": ["plain"], "weights": [1.0], "start": 0, "end": 5}]
    a = step_batch(7, 3, phases, 4, 32)
    b = step_batch(7, 3, phases, 4, 32)
    assert np.array_equal(a[0], b[0])
    c = step_batch(7, 4, phases, 4, 32)
    assert not np.array_equal(a[0], c[0])


def test_eval_batch_disjoint_from_training():
    phases = [{"datasets": ["plain"], "weights": [1.0], "start": 0, "end": 5}]
    train_in, _, _ = step_batch(7, 0, phases, 4, 32)
    eval_in, _ = eval_batch(7, "plain", 4, 32)
    assert not any(np.array_equal(train_in[i], eval_in[j])
                   for i in range(4) for j in range(4))


# ---------------------------------------------------------------------------
# answer masks


def test_answer_mask_arithmetic():
    text = b"3+4=7;12+5=17;"
    targets = np.array([list(text)])
    mask = answer_mask("arithmetic", targets)
    answer = bytes(targets[0][mask[0]].tolist())
    assert answer == b"717"


def test_answer_mask_copy():
    text = b"abc|abc;de|de;"
    targets = np.array([list(text)])
    mask = answer_mask("copy", targets)
    assert bytes(targets[0][mask[0]].tolist()) == b"abcde"


def test_answer_mask_plain_is_all_true():
    targets = np.array([[1, 2, 3]])
    assert answer_mask("plain", targets).all()


def test_answer_mask_resets_at_separator():
    targets = np.array([[ord("="), ord("1"), SEP_TOKEN, ord("2")]])
    mask = answer_mask("arithmetic", targets)
    assert mask.tolist() == [[False, True, False, False]]


# ---------------------------------------------------------------------------
# FLOPs


def report(prelude, recurrent, coda, adapter):
    return ParamReport(embeddings=0, prelude=prelude, recurrent_block=recurrent,
                       coda=coda, adapter=adapter, final_norm=0,
                       body=prelude + recurrent + coda + adapter,
                       convention="table")


def test_fixed_model_flops_trivial():
    assert train_flops(10 ** 9, 0, 10 ** 3) == pytest.approx(6e12)


def test_flops_recurrent_hand_case():
    """P=C=100, R+A=50, mean r=32, window 8, 1000 tokens:
    N1 = 200 + 8*50 = 600, N2 = 24*50 = 1200 -> (3600 + 2400)*1000 = 6.0e6."""
    rep = report(100, 40, 100, 10)
    assert train_flops(*recurrent_split(rep, 32.0, 8), 1000) == \
        pytest.approx(6.0e6)


def test_flops_recurrent_all_in_window():
    """mean r <= window: everything is fully backpropped, 6*N_eff*D."""
    rep = report(100, 40, 100, 10)
    n_eff = 100 + 100 + 4 * 50
    assert train_flops(*recurrent_split(rep, 4.0, 8), 77) == \
        pytest.approx(6.0 * n_eff * 77)


def test_flops_boundary_equals_window():
    rep = report(3, 5, 7, 2)
    assert train_flops(*recurrent_split(rep, 8.0, 8), 10) == \
        pytest.approx(train_flops(*recurrent_split(rep, 8.0, 100), 10))


def test_effective_params_formula():
    """N1 + N2 at depth r is P + C + r*(R + A), whatever the window."""
    rep = report(100, 40, 100, 10)
    for w in (1, 8, 64):
        assert sum(recurrent_split(rep, 1, w)) == 250
        assert sum(recurrent_split(rep, 32, w)) == 200 + 32 * 50


def test_train_flops_weighs_n1_six_and_n2_two():
    assert train_flops(1, 0, 1) == 6.0 and train_flops(0, 1, 1) == 2.0
    assert train_flops(10 ** 6, 0, 10) == pytest.approx(6e7)


def test_cumulative_flops_order_across_curricula():
    """Cheaper curricula keep their ordering in total FLOPs over a run."""
    rep = report(100, 40, 100, 10)
    totals = {}
    for shape in ("one-minus-sqrt", "linear", "constant"):
        spec = CurriculumSpec(shape=shape, target=32, warmup_steps=800)
        totals[shape] = sum(
            train_flops(*recurrent_split(rep, curriculum_mean(spec, step), 8),
                        64) for step in range(1000))
    assert totals["one-minus-sqrt"] < totals["linear"] < totals["constant"]
