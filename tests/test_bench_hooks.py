"""The benchmark tracer patches recurfit functions by name; a rename in
the package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_targets(tracer_mod) -> list:
    """(module or class, attribute) for every SPAN_TARGETS name."""
    out = []
    for mod_name, names in tracer_mod.SPAN_TARGETS.items():
        module = importlib.import_module(f"recurfit.{mod_name}")
        for attr in names:
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
            out.append((owner, attr))
    return out


def raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_install_replaces_and_uninstall_restores():
    tracer_mod = load_tracer()
    targets = span_targets(tracer_mod)
    originals = [raw(owner, attr) for owner, attr in targets]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(targets, originals):
            assert raw(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert raw(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_step_clock_hook_runs_once_per_step_before_the_batch(tmp_path,
                                                             monkeypatch):
    """The bench's step clock marks a step on each `train.curriculum_mean`
    call: one per step, before that step's batch is drawn."""
    import recurfit.train as train_mod
    from recurfit.config import RunConfig
    from recurfit.model import ModelConfig
    from recurfit.schedules import CurriculumSpec, WindowSchedule

    assert WindowSchedule("constant", 8, 0) == WindowSchedule()
    events = []
    mean, batch = train_mod.curriculum_mean, train_mod.step_batch

    def counted_mean(spec, step):
        events.append(("curriculum_mean", step))
        return mean(spec, step)

    def counted_batch(seed, step, *args):
        events.append(("step_batch", step))
        return batch(seed, step, *args)

    monkeypatch.setattr(train_mod, "curriculum_mean", counted_mean)
    monkeypatch.setattr(train_mod, "step_batch", counted_batch)
    model = ModelConfig(vocab_size=257, hidden=16, n_query_heads=2,
                        n_kv_heads=1, head_dim=8, ffn_width=16,
                        context_length=8)
    train_mod.train(RunConfig(
        model=model, total_steps=3, out_dir=str(tmp_path), plan_tuple=[1, 1, 1],
        optimizer="adamw", curriculum=CurriculumSpec("linear", 4, 2),
        window=WindowSchedule("constant", 8, 0), micro_batch=2,
        global_batch=2))
    assert events == [(name, step) for step in range(3)
                      for name in ("curriculum_mean", "step_batch")]
