"""Span tracing of recurfit's layers from outside the package.

`Tracer.install()` replaces the public functions and methods of the
traced modules with timing wrappers. A name is replaced in every recurfit
module that binds it, so ``from .model import forward_recurrent`` in
``train`` and ``evaluate`` is traced too. `uninstall()` puts the
originals back.

Three kinds of record, all kept in memory and written out at the end:

* spans around layer functions: name, start, end, parent span, and the
  current tag (training step, sweep or chunk id);
* autograd ops, aggregated per (op family, op name): count, forward
  seconds and backward seconds. Backward is timed by wrapping each
  returned tensor's ``backward_fn``; a matmul belongs to the family of
  the weight it multiplies;
* random draws, aggregated as count and seconds.

Ops and draws are aggregated rather than kept as spans because a run
makes millions of them. Their time still counts as child coverage of
the enclosing span, so a span's self time is its duration minus the time
its children (spans, ops and draws) cover.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

FAMILIES = ("attention", "mlp", "norm", "rope", "adapter", "unembed_ce")

_OP_FAMILY = {
    "rms_norm": "norm",
    "rope_rotate": "rope",
    "split_heads": "attention", "merge_heads": "attention",
    "expand_kv": "attention", "causal_attn": "attention",
    "silu_glu": "mlp",
    "concat_last": "adapter",
    "cross_entropy_mean": "unembed_ce",
}
_WEIGHT_FAMILY = {
    "wq": "attention", "wk": "attention", "wv": "attention", "wo": "attention",
    "w_gate": "mlp", "w_up": "mlp", "w_down": "mlp",
    "adapter": "adapter", "unembed": "unembed_ce", "embed": "unembed_ce",
}
AUTOGRAD_OPS = ("add", "sub", "mul", "scale", "matmul", "reshape", "transpose",
                "concat_last", "tsum", "tmean", "embedding_lookup", "rms_norm",
                "silu_glu", "split_heads", "merge_heads", "expand_kv",
                "rope_rotate", "causal_attn", "cross_entropy_mean")

# (module, attribute) pairs traced as spans; "Class.method" names a method.
SPAN_TARGETS = {
    "autograd": ("backward",),
    "model": ("forward_recurrent", "forward_fixed", "forward_fixed_hidden",
              "prelude_forward", "recurrent_step", "decoder_block",
              "sample_initial_state", "init_fixed", "init_recurrent"),
    "schedules": ("sample_recurrence", "curriculum_mean", "window_at",
                  "lr_at"),
    "data": ("step_batch", "eval_batch", "answer_mask", "sample_context",
             "generate_document", "pack_corpus", "phase_mixture"),
    "optim": ("clip_global_norm", "global_grad_norm", "newton_schulz5",
              "build_optimizer", "AdamW.step", "AdamWStar.step", "Muon.step"),
    "checkpoint": ("Checkpoint.save", "Checkpoint.load"),
    "surgery": ("apply_surgery", "model_from_checkpoint",
                "model_to_checkpoint", "make_plan", "pruned_donor",
                "block_influence_scores"),
    "evaluate": ("eval_sweep", "val_loss"),
    "train": ("train", "build_initial_model"),
}
MODEL_BUILDERS = ("model_from_checkpoint", "init_fixed", "init_recurrent")
RANDOM_DRAWS = ("normal", "uniform", "integers", "poisson", "permutation",
                "choice")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: list = []        # (name, start, end, parent, tag, section)
        self.dropped = 0
        self.section = "setup"
        self.tag = None
        # open frames: [name, start, child_seconds, span_index]
        self._stack: list = []
        # (section, name) -> [count, total_s, self_s]
        self.span_stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (section, family, op) -> [count, fwd_s, bwd_s]
        self.op_stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (section, name) -> [count, total]; free-form counters and sums
        self.values = defaultdict(lambda: [0, 0.0])
        self._weight_family: dict = {}
        self._weights: list = []
        self._in_op = False
        self._patches: list = []
        self.installed = False

    # -- bookkeeping -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.tag, self.section])
        else:
            self.dropped += 1
        frame = [name, perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        # a raised exception can leave inner frames open; close them here
        while self._stack and self._stack[-1] is not frame:
            self._close(self._stack[-1])
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end
        stat = self.span_stats[(self.section, name)]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _cover(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][2] += seconds

    def add_value(self, name: str, value: float) -> None:
        entry = self.values[(self.section, name)]
        entry[0] += 1
        entry[1] += value

    def begin(self, name: str) -> list:
        """Open a span by hand (training steps, benchmark units)."""
        return self._open(name)

    def end(self, frame: list) -> None:
        if any(open_frame is frame for open_frame in self._stack):
            self._close(frame)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)
        return wrapper

    def _backward_wrapper(self, fn):
        """`autograd.backward` plus the tape's node count and bytes."""
        tracer = self
        span = self._span_wrapper("autograd.backward", fn)

        @functools.wraps(fn)
        def wrapper(loss, tape):
            tracer.add_value("autograd.tape_nodes", len(tape.nodes))
            tracer.add_value("autograd.tape_bytes",
                             sum(node.data.nbytes for node in tape.nodes))
            return span(loss, tape)
        return wrapper

    def _op_wrapper(self, op: str, fn):
        tracer = self
        fixed_family = _OP_FAMILY.get(op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_op:  # e.g. mul(a, 2.0) delegating to scale
                return fn(*args, **kwargs)
            tracer._in_op = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._in_op = False
            seconds = perf_counter() - start
            if fixed_family is not None:
                family = fixed_family
            elif op == "matmul" and len(args) > 1:
                family = tracer._weight_family.get(id(args[1]), "other")
            else:
                family = "other"
            stat = tracer.op_stats[(tracer.section, family, op)]
            stat[0] += 1
            stat[1] += seconds
            tracer._cover(seconds)
            bwd = getattr(out, "backward_fn", None)
            if bwd is not None and not any(out is a for a in args):
                out.backward_fn = tracer._timed_backward(bwd, stat)
            return out
        return wrapper

    def _timed_backward(self, bwd, stat):
        tracer = self

        def timed(grad):
            start = perf_counter()
            result = bwd(grad)
            seconds = perf_counter() - start
            stat[2] += seconds
            tracer._cover(seconds)
            return result
        return timed

    def _draw_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            seconds = perf_counter() - start
            tracer.add_value("random.draw_s", seconds)
            tracer._cover(seconds)
            return out
        return wrapper

    def _builder_wrapper(self, name: str, fn):
        """Span around a model builder that registers the model's weights."""
        tracer = self
        span = self._span_wrapper(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = span(*args, **kwargs)
            tracer.register_model(model)
            return model
        return wrapper

    def register_model(self, model) -> None:
        """Map each weight tensor of `model` to its op family.

        The tensors are kept alive so that their ids are not reused.
        """
        for name, tensor in model.params().items():
            family = _WEIGHT_FAMILY.get(name.rsplit(".", 1)[-1])
            if family is not None:
                self._weight_family[id(tensor)] = family
                self._weights.append(tensor)

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "recurfit":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        import importlib
        from recurfit import autograd
        from recurfit.random import RandomStream

        for op in AUTOGRAD_OPS:
            original = getattr(autograd, op)
            self._replace_everywhere(original, self._op_wrapper(op, original))
        for mod_name, names in SPAN_TARGETS.items():
            module = importlib.import_module(f"recurfit.{mod_name}")
            for attr in names:
                label = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._replace_method(
                        getattr(module, cls_name), meth,
                        functools.partial(self._span_wrapper, label))
                    continue
                original = getattr(module, attr)
                if attr == "backward":
                    wrapped = self._backward_wrapper(original)
                elif attr in MODEL_BUILDERS:
                    wrapped = self._builder_wrapper(label, original)
                else:
                    wrapped = self._span_wrapper(label, original)
                self._replace_everywhere(original, wrapped)
        for meth in RANDOM_DRAWS:
            self._replace_method(RandomStream, meth, self._draw_wrapper)
        self.installed = True

    def uninstall(self) -> None:
        self.installed = False
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
