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
