import struct

import numpy as np
import pytest

from recurfit.checkpoint import Checkpoint
from recurfit.errors import FormatError, PlanError
from recurfit.model import (ModelConfig, RecurrenceRun, forward_fixed,
                            forward_recurrent, init_fixed)
from recurfit.random import RandomStream
from recurfit.surgery import (apply_surgery, block_influence_scores,
                              count_fixed_params, count_parameters, make_plan,
                              model_from_checkpoint, model_to_checkpoint,
                              pruned_donor, SurgeryPlan)

TINYLLAMA = ModelConfig(vocab_size=32000, hidden=2048, n_query_heads=32,
                        n_kv_heads=4, head_dim=64, ffn_width=5632)
LLAMA = ModelConfig(vocab_size=128256, hidden=2048, n_query_heads=32,
                    n_kv_heads=8, head_dim=64, ffn_width=8192)
OLMO = ModelConfig(vocab_size=100352, hidden=2048, n_query_heads=32,
                   n_kv_heads=32, head_dim=64, ffn_width=8192, qk_norm=True,
                   post_norm=True)


# ---------------------------------------------------------------------------
# plans


def test_plan_484_on_22():
    plan = make_plan((4, 8, 4), 22)
    assert plan.prelude_layers == [0, 1, 2, 3]
    assert plan.recurrent_layers == list(range(10, 18))
    assert plan.coda_layers == [18, 19, 20, 21]


def test_plan_242_on_22():
    plan = make_plan((2, 4, 2), 22)
    assert plan.prelude_layers == [0, 1]
    assert plan.recurrent_layers == [16, 17, 18, 19]
    assert plan.coda_layers == [20, 21]


def test_plan_464_on_16():
    plan = make_plan((4, 6, 4), 16)
    assert plan.prelude_layers == [0, 1, 2, 3]
    assert plan.recurrent_layers == [6, 7, 8, 9, 10, 11]
    assert plan.coda_layers == [12, 13, 14, 15]


def test_plan_6_10_6_keeps_all_layers():
    plan = make_plan((6, 10, 6), 22)
    assert plan.prelude_layers == [0, 1, 2, 3, 4, 5]
    assert plan.recurrent_layers == list(range(6, 16))
    assert plan.coda_layers == list(range(16, 22))
    kept = plan.prelude_layers + plan.recurrent_layers + plan.coda_layers
    assert kept == list(range(22))


def test_plan_errors():
    with pytest.raises(PlanError):
        make_plan((10, 10, 10), 22)
    with pytest.raises(PlanError):
        make_plan((1, 1, 1), 4, lists=([0], [0], [3]))  # overlap
    with pytest.raises(PlanError):
        make_plan((1, 1, 1), 4, lists=([0], [5], [3]))  # out of range
    with pytest.raises(PlanError):
        make_plan((2, 1, 1), 6, lists=([3, 1], [4], [5]))  # unsorted


def test_plan_roundtrip_dict():
    plan = make_plan((2, 3, 2), 10)
    again = SurgeryPlan.from_dict(plan.to_dict())
    assert again == plan


# ---------------------------------------------------------------------------
# parameter accounting


def test_tinyllama_484_counts():
    report = count_parameters(TINYLLAMA, (4, 8, 4))
    assert report.prelude == 176_177_152
    assert report.recurrent_block == 352_354_304
    assert report.coda == 176_177_152
    assert report.embeddings == 131_072_000
    assert report.body == 704_708_608


def test_tinyllama_6_10_6_counts():
    report = count_parameters(TINYLLAMA, (6, 10, 6))
    assert report.body == 968_974_336
    assert report.prelude == 264_265_728
    assert report.recurrent_block == 440_442_880


def test_llama_464_counts():
    report = count_parameters(LLAMA, (4, 6, 4))
    assert report.prelude == 243_286_016
    assert report.recurrent_block == 364_929_024
    assert report.coda == 243_286_016
    assert report.embeddings == 525_336_576
    assert report.body == 851_501_056


def test_olmo_464_counts_with_qk_norm():
    report = count_parameters(OLMO, (4, 6, 4))
    assert report.prelude == 268_468_224
    assert report.recurrent_block == 402_702_336
    assert report.body == 939_638_784
    assert report.embeddings == 411_041_792


def test_empty_plan_counts():
    report = count_parameters(TINYLLAMA, (0, 0, 0))
    assert report.prelude == report.recurrent_block == report.coda == 0
    assert report.body == 0
    assert report.embeddings == 131_072_000


def test_true_convention_adds_adapter_and_final_norm():
    table = count_parameters(TINYLLAMA, (4, 8, 4), convention="table")
    true = count_parameters(TINYLLAMA, (4, 8, 4), convention="true")
    h = TINYLLAMA.hidden
    assert true.body == table.body + 2 * h * h + h


def test_fixed_donor_body_counts():
    assert count_fixed_params(TINYLLAMA, 22)["body"] == 968_976_384
    assert count_fixed_params(LLAMA, 16)["body"] == 973_146_112
    assert count_fixed_params(OLMO, 16)["body"] == 1_073_874_944


# ---------------------------------------------------------------------------
# surgery + checkpoints


@pytest.fixture
def toy_donor():
    cfg = ModelConfig(vocab_size=23, hidden=16, n_query_heads=2, n_kv_heads=1,
                      head_dim=8, ffn_width=16, context_length=16)
    model = init_fixed(cfg, 6, RandomStream(0, "donor"))
    return model_to_checkpoint(model)


def test_surgery_copies_tensors_bitwise(toy_donor):
    plan = make_plan((1, 2, 1), 6)
    out = apply_surgery(toy_donor, plan, "identity-pass", noise_std=0.0)
    assert np.array_equal(out.tensors["embed"], toy_donor.tensors["embed"])
    # recurrent.0 comes from donor layer 3 under the default rule
    for f in ("wq", "w_down", "g_attn"):
        assert np.array_equal(out.tensors[f"recurrent.0.{f}"],
                              toy_donor.tensors[f"layers.3.{f}"])
    assert np.array_equal(out.tensors[f"coda.0.wq"],
                          toy_donor.tensors["layers.5.wq"])


def test_identity_adapter_matches_pruned_donor(toy_donor):
    plan = make_plan((1, 2, 1), 6)
    surgical = apply_surgery(toy_donor, plan, "identity-pass", noise_std=0.0)
    recurrent = model_from_checkpoint(surgical)
    pruned = model_from_checkpoint(pruned_donor(toy_donor, plan))
    tokens = np.array([[1, 5, 9, 2]])
    lhs = forward_recurrent(recurrent, tokens,
                            RecurrenceRun(1, 8, RandomStream(3, "s0")))
    rhs = forward_fixed(pruned, tokens)
    assert np.abs(lhs.data - rhs.data).max() < 1e-10


def test_keep_all_surgery_matches_full_donor(toy_donor):
    plan = make_plan((2, 2, 2), 6)  # keeps every layer in order
    surgical = apply_surgery(toy_donor, plan, "identity-pass", noise_std=0.0)
    recurrent = model_from_checkpoint(surgical)
    donor_model = model_from_checkpoint(toy_donor)
    tokens = np.array([[4, 3, 2, 1]])
    lhs = forward_recurrent(recurrent, tokens,
                            RecurrenceRun(1, 8, RandomStream(3, "s0")))
    rhs = forward_fixed(donor_model, tokens)
    assert np.abs(lhs.data - rhs.data).max() < 1e-10


def test_checkpoint_roundtrip_bit_exact(toy_donor, tmp_path):
    path = tmp_path / "donor.rfck"
    toy_donor.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.metadata == toy_donor.metadata
    assert set(loaded.tensors) == set(toy_donor.tensors)
    for name, arr in toy_donor.tensors.items():
        other = loaded.tensors[name]
        assert arr.dtype == other.dtype and arr.shape == other.shape
        assert arr.tobytes() == other.tobytes()
    # double round trip is byte-identical on disk
    path2 = tmp_path / "again.rfck"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.rfck"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        Checkpoint.load(path)


def test_checkpoint_truncated_preamble(tmp_path):
    path = tmp_path / "short.rfck"
    path.write_bytes(b"RFCK12")
    with pytest.raises(FormatError, match="truncated"):
        Checkpoint.load(path)


@pytest.mark.parametrize("header", [b'{"metadata": {}}', b'{"tensors": {}}',
                                    b'[1, 2]'])
def test_checkpoint_header_without_directory_or_metadata(tmp_path, header):
    path = tmp_path / "headless.rfck"
    path.write_bytes(b"RFCK" + struct.pack("<IQ", 1, len(header)) + header)
    with pytest.raises(FormatError, match="tensors"):
        Checkpoint.load(path)


def test_surgery_depth_mismatch(toy_donor):
    plan = make_plan((1, 2, 1), 8)
    with pytest.raises(FormatError):
        apply_surgery(toy_donor, plan, "identity-pass", noise_std=0.0)


def test_surgery_adapter_noise(toy_donor):
    plan = make_plan((1, 2, 1), 6)
    out = apply_surgery(toy_donor, plan, "identity-pass",
                        RandomStream(0, "adapter"), noise_std=1e-3)
    h = 16
    adapter = out.tensors["adapter"]
    ident = np.zeros((2 * h, h))
    ident[h:, :] = np.eye(h)
    delta = adapter - ident
    assert 0 < np.abs(delta).max() < 1e-2


# ---------------------------------------------------------------------------
# block influence


def test_zero_block_scores_zero(toy_donor):
    model = model_from_checkpoint(toy_donor)
    bw = model.blocks[2]
    for f in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"):
        getattr(bw, f).data = np.zeros_like(getattr(bw, f).data)
    tokens = RandomStream(1, "calib").integers(0, 23, (2, 8))
    scores = block_influence_scores(model, tokens)
    assert abs(scores[2]) < 1e-9
    assert all(s > 1e-6 for i, s in enumerate(scores) if i != 2)


def test_scores_permutation_consistent(toy_donor):
    """Relabeling layers permutes scores identically. Verified where the
    property is exact: all layers but one are residual identities, so
    every layer sees the same input regardless of order."""
    model = model_from_checkpoint(toy_donor)
    for i, bw in enumerate(model.blocks):
        if i == 2:
            continue
        for f in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"):
            getattr(bw, f).data = np.zeros_like(getattr(bw, f).data)
    tokens = RandomStream(1, "calib").integers(0, 23, (2, 8))
    base = block_influence_scores(model, tokens)
    perm = [3, 0, 2, 5, 4, 1]
    permuted = model_from_checkpoint(toy_donor)
    permuted.blocks = [model.blocks[i] for i in perm]
    scores = block_influence_scores(permuted, tokens)
    assert scores == pytest.approx([base[i] for i in perm], abs=1e-12)


def test_dropping_low_influence_layers_degrades_less():
    """Ablation oracle: pruning the k lowest-scoring layers of a trained
    toy donor hurts val loss less than pruning k random layers."""
    import tempfile

    from recurfit.config import RunConfig
    from recurfit.evaluate import val_loss
    from recurfit.data import eval_batch
    from recurfit.schedules import WsdSpec
    from recurfit.train import train

    cfg = ModelConfig(vocab_size=257, hidden=32, n_query_heads=2, n_kv_heads=1,
                      head_dim=16, ffn_width=64, context_length=48)
    with tempfile.TemporaryDirectory() as tmp:
        run = RunConfig(model=cfg, total_steps=120, out_dir=tmp,
                        model_kind="fixed", fixed_depth=6, optimizer="muon",
                        lr=WsdSpec(peak=2e-3, warmup_steps=20,
                                   stable_steps=80, decay_steps=20),
                        micro_batch=8, global_batch=8, seed=3,
                        phases=[{"datasets": ["arithmetic"], "weights": [1.0],
                                 "start": 0, "end": 120}])
        summary = train(run)
        donor = Checkpoint.load(summary["final_checkpoint"])
    donor.tensors = {k: v for k, v in donor.tensors.items()
                     if not k.startswith("optimizer.")}
    model = model_from_checkpoint(donor)
    inputs, _ = eval_batch(99, "arithmetic", 4, 48)
    scores = block_influence_scores(model, inputs)
    k = 2
    lowest = sorted(sorted(range(6), key=lambda i: scores[i])[:k])
    random_drop = sorted(np.random.default_rng(5).choice(6, size=k,
                                                         replace=False))

    def loss_after_drop(dropped):
        keep = sorted(set(range(6)) - set(int(i) for i in dropped))
        plan = make_plan((len(keep), 0, 0), 6, lists=(keep, [], []))
        sub = model_from_checkpoint(pruned_donor(donor, plan))
        return val_loss(sub, "arithmetic", r=1)

    assert loss_after_drop(lowest) < loss_after_drop(random_drop)
