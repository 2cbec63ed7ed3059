import json
import struct

import numpy as np
import pytest

from recurfit.checkpoint import Checkpoint
from recurfit.errors import ContractError, FormatError, InputError, PlanError
from recurfit.model import (ModelConfig, RecurrenceRun, forward_fixed,
                            forward_recurrent, init_fixed, init_recurrent)
from recurfit.random import RandomStream
from recurfit.surgery import (apply_surgery, block_influence_scores,
                              checkpoint_layout, count_fixed_params,
                              count_parameters, make_plan,
                              model_from_checkpoint, model_to_checkpoint,
                              pruned_donor)

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
    with pytest.raises(PlanError, match="length"):
        make_plan((1, 1, 1), 4, lists=([0, 1], [2], [3]))  # too long


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
    assert count_fixed_params(TINYLLAMA, 22) == 968_976_384
    assert count_fixed_params(LLAMA, 16) == 973_146_112
    assert count_fixed_params(OLMO, 16) == 1_073_874_944


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


class _FailingFile:
    """Binary file that raises once `limit` bytes have been written."""

    def __init__(self, path, limit):
        self.f, self.left = open(path, "wb"), limit

    def write(self, raw):
        if len(raw) > self.left:
            self.f.write(raw[:self.left])
            raise OSError("no space left on device")
        self.left -= len(raw)
        return self.f.write(raw)

    def writelines(self, parts):
        for raw in parts:
            self.write(raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_checkpoint_failed_save_keeps_previous_file(toy_donor, tmp_path,
                                                    monkeypatch):
    import recurfit.checkpoint as checkpoint_mod
    path = tmp_path / "donor.rfck"
    toy_donor.save(path)
    before = path.read_bytes()
    changed = Checkpoint(dict(toy_donor.metadata, note="newer"),
                         {k: v + 1 for k, v in toy_donor.tensors.items()})
    monkeypatch.setattr(checkpoint_mod, "open",
                        lambda p, mode: _FailingFile(p, len(before) // 2),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        changed.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["donor.rfck"]


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


@pytest.mark.parametrize("call,error,needle", [
    (lambda d: count_parameters(TINYLLAMA, (4, 8, 4), convention="bogus"),
     ContractError, "convention"),
    (lambda d: model_from_checkpoint(
        Checkpoint(dict(d.metadata, kind="hybrid"), d.tensors)),
     FormatError, "kind"),
    (lambda d: apply_surgery(
        apply_surgery(d, make_plan((1, 2, 1), 6), noise_std=0.0),
        make_plan((1, 2, 1), 6)), FormatError, "fixed-depth"),
    (lambda d: apply_surgery(d, make_plan((1, 2, 1), 6)),
     ContractError, "requires a random stream"),
    (lambda d: apply_surgery(d, make_plan((1, 2, 1), 6), "scaled-random"),
     ContractError, "requires a stream"),
    (lambda d: block_influence_scores(model_from_checkpoint(d),
                                      np.zeros((1, 0), dtype=np.int64)),
     InputError, "nonempty"),
    (lambda d: apply_surgery(d, make_plan((1, 2, 1), 6), "bogus",
                             RandomStream(0, "adapter")),
     ContractError, "unknown adapter init"),
], ids=["convention", "kind", "recurrent-donor", "noise-without-stream",
        "scaled-random-without-stream", "empty-calibration",
        "unknown-adapter-init"])
def test_surgery_contract_errors(toy_donor, call, error, needle):
    with pytest.raises(error, match=needle):
        call(toy_donor)


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


# ---------------------------------------------------------------------------
# malformed checkpoints stay inside the error taxonomy


def write_raw_checkpoint(path, directory, payload=b"\x00" * 16):
    header = json.dumps({"metadata": {}, "tensors": directory}).encode()
    path.write_bytes(b"RFCK" + struct.pack("<IQ", 1, len(header)) + header
                     + payload)


GOOD_ENTRY = {"shape": [2], "dtype": "<f8", "offset": 0, "nbytes": 16}


@pytest.mark.parametrize("directory", [
    {"x": {k: v for k, v in GOOD_ENTRY.items() if k != "offset"}},
    {"x": dict(GOOD_ENTRY, dtype="zzz")},
    {"x": dict(GOOD_ENTRY, shape=[3])},
    {"x": dict(GOOD_ENTRY, shape=[1], nbytes=12)},
    {"x": [0, 16]},
    [GOOD_ENTRY],
], ids=["no-offset", "unknown-dtype", "shape-vs-nbytes", "partial-item",
        "entry-is-list", "directory-is-list"])
def test_checkpoint_bad_directory_entry(tmp_path, directory):
    path = tmp_path / "bad.rfck"
    write_raw_checkpoint(path, {"x": GOOD_ENTRY})
    assert Checkpoint.load(path).tensors["x"].shape == (2,)
    write_raw_checkpoint(path, directory)
    with pytest.raises(FormatError):
        Checkpoint.load(path)


def _drop(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("kind,edit", [
    ("fixed", lambda m: _drop(m, "config")),
    ("fixed", lambda m: _drop(m, "kind")),
    ("fixed", lambda m: _drop(m, "depth")),
    ("recurrent", lambda m: _drop(m, "plan_tuple")),
    ("recurrent", lambda m: dict(m, plan_tuple=[1, 2, 1, 1])),
    ("fixed", lambda m: dict(m, config=dict(m["config"], hiden=16))),
    ("fixed", lambda m: dict(m, config=dict(m["config"], hidden=17))),
    ("fixed", lambda m: dict(m, config=dict(m["config"], n_kv_heads=0))),
    ("fixed", lambda m: dict(m, depth=-1)),
    ("fixed", lambda m: dict(m, depth="6")),
    ("fixed", lambda m: dict(m, depth=True)),
    ("recurrent", lambda m: dict(m, plan_tuple=[1, "a", 1])),
    ("recurrent", lambda m: dict(m, plan_tuple=[1, 1.5, 1])),
    ("recurrent", lambda m: dict(m, plan_tuple=[1, -1, 1])),
    ("fixed", lambda m: dict(m, depth=10 ** 12)),
    ("fixed", lambda m: dict(m, config=dict(m["config"], head_dim=8.0))),
    ("fixed", lambda m: dict(m, config=dict(m["config"], n_query_heads=2.0))),
    ("fixed", lambda m: dict(m, config=dict(m["config"], context_length=8.5))),
    ("fixed", lambda m: dict(m, config=dict(m["config"], norm_eps="x"))),
    ("fixed", lambda m: dict(m, config=dict(m["config"], rope_base=None))),
    ("fixed", lambda m: dict(m, config=dict(m["config"], tie_embeddings="no"))),
    ("recurrent", lambda m: dict(m, config=dict(m["config"], sigma_s0=-1))),
], ids=["no-config", "no-kind", "no-depth", "no-plan-tuple", "long-plan-tuple",
        "unknown-key", "hidden-vs-heads", "zero-kv-heads", "negative-depth",
        "string-depth", "bool-depth", "string-plan-entry", "float-plan-entry",
        "negative-plan-entry", "depth-beyond-tensors", "float-head-dim",
        "float-query-heads", "float-context", "string-norm-eps",
        "null-rope-base", "string-tie-embeddings", "negative-sigma-s0"])
def test_checkpoint_bad_metadata(toy_donor, kind, edit):
    ckpt = toy_donor
    if kind == "recurrent":
        ckpt = apply_surgery(toy_donor, make_plan((1, 2, 1), 6),
                             "identity-pass", noise_std=0.0)
    model_from_checkpoint(ckpt)
    with pytest.raises(FormatError):
        model_from_checkpoint(Checkpoint(edit(ckpt.metadata), ckpt.tensors))


@pytest.mark.parametrize("kind", [[], {}, 3, None],
                         ids=["list", "dict", "int", "null"])
def test_checkpoint_kind_of_wrong_type_is_format_error(toy_donor, kind):
    """The kind is looked up in a table, so an unhashable one must be
    caught as a format error before the lookup."""
    meta = dict(toy_donor.metadata, kind=kind)
    with pytest.raises(FormatError, match="unknown checkpoint kind"):
        checkpoint_layout(meta)
    with pytest.raises(FormatError):
        model_from_checkpoint(Checkpoint(meta, toy_donor.tensors))


@pytest.mark.parametrize("key", ["norm_eps", "rope_base", "sigma_s0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_checkpoint_config_with_non_finite_float_is_format_error(
        toy_donor, key, value):
    meta = dict(toy_donor.metadata,
                config=dict(toy_donor.metadata["config"], **{key: value}))
    with pytest.raises(FormatError, match="not finite"):
        model_from_checkpoint(Checkpoint(meta, toy_donor.tensors))


@pytest.mark.parametrize("dtype", ["<U8", np.complex128, np.int64,
                                   np.float16, bool])
@pytest.mark.parametrize("name", ["embed", "layers.3.wq"])
def test_model_tensor_must_be_float32_or_float64(toy_donor, name, dtype):
    """Loading, surgery and pruning read tensors through one dtype check;
    a stored dtype that is not float32/float64 is a format error, not a
    numpy TypeError or a silent cast."""
    tensors = dict(toy_donor.tensors)
    tensors[name] = tensors[name].astype(dtype)
    bad = Checkpoint(toy_donor.metadata, tensors)
    plan = make_plan((1, 2, 1), 6)
    for call in (lambda: model_from_checkpoint(bad),
                 lambda: model_from_checkpoint(bad, dtype=np.float64),
                 lambda: apply_surgery(bad, plan, "identity-pass",
                                       noise_std=0.0),
                 lambda: pruned_donor(bad, plan)):
        with pytest.raises(FormatError, match=f"{name} has dtype .*, not "
                                              f"float32/64"):
            call()


def test_model_tensors_keep_float32_and_float64(toy_donor):
    for dtype in (np.float32, np.float64):
        tensors = {k: v.astype(dtype) for k, v in toy_donor.tensors.items()}
        model = model_from_checkpoint(Checkpoint(toy_donor.metadata, tensors))
        assert model.embed.dtype == dtype


def test_pruned_donor_missing_tensor(toy_donor):
    tensors = _drop(toy_donor.tensors, "layers.3.wq")
    with pytest.raises(FormatError, match="layers.3.wq"):
        pruned_donor(Checkpoint(toy_donor.metadata, tensors),
                     make_plan((1, 2, 1), 6))


@pytest.mark.parametrize("kind,name,shape", [
    ("fixed", "layers.1.g_mlp", (3,)),
    ("fixed", "embed", (10, 16)),
    ("recurrent", "adapter", (16, 16)),
], ids=["block-tensor", "embed", "adapter"])
def test_checkpoint_wrong_tensor_shape(toy_donor, kind, name, shape):
    ckpt = toy_donor
    if kind == "recurrent":
        ckpt = apply_surgery(toy_donor, make_plan((1, 2, 1), 6),
                             "identity-pass", noise_std=0.0)
    bad = Checkpoint(ckpt.metadata, dict(ckpt.tensors, **{name: np.zeros(shape)}))
    want = ckpt.tensors[name].shape
    with pytest.raises(FormatError) as err:
        model_from_checkpoint(bad)
    assert name in str(err.value)
    assert str(shape) in str(err.value) and str(want) in str(err.value)
    if kind == "fixed":
        with pytest.raises(FormatError, match=name):
            apply_surgery(bad, make_plan((1, 4, 1), 6), "identity-pass",
                          noise_std=0.0)


# ---------------------------------------------------------------------------
# parameter layout


TOY = dict(vocab_size=23, hidden=16, n_query_heads=2, n_kv_heads=1,
           head_dim=8, ffn_width=16, context_length=16)
FIELDS = ["wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down", "g_attn",
          "g_mlp"]


def expected_layout(cfg, sections):
    fields = FIELDS + (["q_gain", "k_gain"] if cfg.qk_norm else [])
    names = ["embed"]
    for section, count in sections:
        if section == "recurrent":
            names.append("adapter")
        names += [f"{section}.{i}.{f}" for i in range(count) for f in fields]
    names.append("final_norm")
    if not cfg.tie_embeddings:
        names.append("unembed")
    return names


@pytest.mark.parametrize("variant", [{}, {"qk_norm": True},
                                     {"tie_embeddings": True}],
                         ids=["plain", "qk-norm", "tied"])
@pytest.mark.parametrize("kind", ["fixed", "recurrent"])
def test_layout_roundtrip(tmp_path, kind, variant):
    cfg = ModelConfig(**TOY, **variant)
    if kind == "fixed":
        model = init_fixed(cfg, 3, RandomStream(0, "init"))
        sections = [("layers", 3)]
    else:
        model = init_recurrent(cfg, (1, 2, 1), RandomStream(0, "init"))
        sections = [("prelude", 1), ("recurrent", 2), ("coda", 1)]
    names = list(model.params())
    assert names == expected_layout(cfg, sections)
    ckpt = model_to_checkpoint(model)
    assert list(ckpt.tensors) == names
    ckpt.save(tmp_path / "m.rfck")
    loaded = Checkpoint.load(tmp_path / "m.rfck")
    assert sorted(loaded.tensors) == sorted(names)
    rebuilt = model_from_checkpoint(loaded).params()
    assert list(rebuilt) == names
    for name, p in model.params().items():
        assert rebuilt[name].data.dtype == p.data.dtype
        assert rebuilt[name].data.tobytes() == p.data.tobytes()


def test_surgery_and_pruning_copy_qk_gains_bitwise():
    cfg = ModelConfig(**TOY, qk_norm=True)
    donor_model = init_fixed(cfg, 6, RandomStream(0, "donor"))
    for i, bw in enumerate(donor_model.blocks):  # distinct gains per layer
        stream = RandomStream(i, "gains")
        bw.q_gain.data = stream.normal(bw.q_gain.shape, 1.0, 0.1)
        bw.k_gain.data = stream.normal(bw.k_gain.shape, 1.0, 0.1)
    donor = model_to_checkpoint(donor_model)
    plan = make_plan((1, 2, 1), 6)
    surgical = apply_surgery(donor, plan, "identity-pass", noise_std=0.0)
    pruned = pruned_donor(donor, plan)
    kept = plan.prelude_layers + plan.recurrent_layers + plan.coda_layers
    targets = ([f"prelude.{k}" for k in range(1)]
               + [f"recurrent.{k}" for k in range(2)]
               + [f"coda.{k}" for k in range(1)])
    for k, (src, dst) in enumerate(zip(kept, targets)):
        for f in ("q_gain", "k_gain"):
            want = donor.tensors[f"layers.{src}.{f}"].tobytes()
            assert surgical.tensors[f"{dst}.{f}"].tobytes() == want
            assert pruned.tensors[f"layers.{k}.{f}"].tobytes() == want
