"""The benchmark's sections, their inputs and their correctness checks.

Every run executes all five timed sections in one process:

* ``train``   - `train.train` on the h=64 retrofit model with Muon at a
                constant curriculum target and backprop window w=8;
* ``sweep``   - `evaluate.eval_sweep` over a list of recurrences on
                ``arithmetic`` and ``copy``, alternating;
* ``fd``      - the central-difference gradient sweep of acceptance 3
                (h=16, tokens 1x3, r=3, w=8) against one taped backward;
* ``draws``   - `schedules.sample_recurrence` at spread 0.5;
* ``batches`` - `data.step_batch` over a plain/arithmetic/copy mix, 8x64.

A regime (the workload named in BENCHMARK.json) fixes the recurrence
settings of the sections: ``deep`` keeps most recurrences above the
backprop window (train target 32 > w, sweep to r=32, draws at mean 32);
``shallow`` keeps them at or below it (train target 4, sweep to r=4,
draws at mean 4), so truncation and most repeated sweep passes are
bypassed there.

Each section has a fixed unit of work; rounds of units repeat until the
run's seconds are used, so a faster program does more units of identical
work.

Inputs come from the run seed, with two exceptions. The trainer seed,
which keys the depth draws and batches of `train.train`, is fixed so
that every run trains on the same sequence of sampled recurrence counts:
with r = 1 + Poisson(lognormal) at spread 0.5 a step's cost varies about
+-55%, and sixteen seed-dependent draws would spread train_steps_per_s
by more than any useful bound. The FD model and tokens are acceptance
3's, which pass the 1e-4 tolerance on every entry; the run seed orders
the entries probed. The run seed sets the donor weights, the adapter
noise, the sweep data and initial states, the draws and the batches.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from recurfit import autograd as ag
from recurfit import data, evaluate, schedules, surgery
from recurfit import model as model_mod
from recurfit.autograd import Tape
from recurfit.checkpoint import Checkpoint
from recurfit.config import RunConfig
from recurfit.model import ModelConfig, RecurrenceRun
from recurfit.random import RandomStream
from recurfit.schedules import (CurriculumSpec, DepthDistribution,
                                WindowSchedule, WsdSpec)
import recurfit.train as train_module

# acceptance-10 model: the retrofit model trained and swept
MODEL = ModelConfig(vocab_size=257, hidden=64, n_query_heads=4, n_kv_heads=2,
                    head_dim=16, ffn_width=128, context_length=64)
PLAN = (1, 2, 1)
DONOR_DEPTH = 4
WINDOW = 8
TRAIN_SEED = 21          # acceptance 10's trainer seed, see module docstring
TRAIN_STEPS = 16         # steps per timed train() call
REF_SEED = 0             # run seed of the digest-checked reference outputs
REF_TRAIN_STEPS = 2
SWEEP_DATASETS = ("arithmetic", "copy")
SWEEP_ITEMS = 16         # two micro-batches of 8
REF_SWEEP_ITEMS = 8
# acceptance-3 model and FD settings
FD_MODEL = ModelConfig(vocab_size=8, hidden=16, n_query_heads=2, n_kv_heads=1,
                       head_dim=8, ffn_width=8, context_length=4)
FD_EPS = 1e-5
FD_ABS_FLOOR = 1e-6
FD_TOLERANCE = 1e-4
FD_CHUNK = 20            # probes (two forwards each) per timed unit
# acceptance-5 sampler settings
DRAW_SPREAD = 0.5
DRAW_CHUNK = 500
REF_DRAWS = 20_000
BATCH_CHUNK = 5
BATCH_SIZE, BATCH_CONTEXT = 8, 64
BATCH_PHASES = [{"datasets": ["plain", "arithmetic", "copy"],
                 "weights": [1 / 3, 1 / 3, 1 / 3],
                 "start": 0, "end": 10 ** 9}]
REF_BATCHES = 4

REGIMES = {
    "deep": {"train_target": 32, "recurrences": (1, 2, 4, 8, 16, 32),
             "draw_mean": 32.0},
    "shallow": {"train_target": 4, "recurrences": (1, 2, 4),
                "draw_mean": 4.0},
}
# One round: (section, units), in order. Rounds repeat until the run's
# seconds are used, so every section's units are spread over the whole
# run and a few seconds of interference from other processes reach only
# a few units of each section.
_SHORT = (("draws", 5), ("batches", 8), ("fd", 4))
ROUND = (_SHORT + (("sweep", 1),)) * 2 + _SHORT + (("train", 1),)


@dataclass
class Pass:
    """Units run by one pass over the rounds, untraced or traced."""
    rounds: int = 0
    seconds: dict = field(default_factory=dict)   # section -> summed s
    samples: dict = field(default_factory=dict)   # section -> per-unit s
    steps: list = field(default_factory=list)     # per-step s of train


# digests that depend on the BLAS kernels and thread count, not only on
# the seed: OpenBLAS picks both at run time
BLAS_DEPENDENT = ("train_metrics_csv", "train_final_rfck",
                  "sweep_arithmetic_csv", "sweep_copy_csv")


def blas_runtime() -> dict:
    """Core, thread count and build string of numpy's loaded OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            try:
                corename = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            for fn, restype in ((corename, ctypes.c_char_p),
                                (threads, ctypes.c_int),
                                (config, ctypes.c_char_p)):
                fn.argtypes = []
                fn.restype = restype
            return {"corename": corename().decode(), "threads": threads(),
                    "config": config().decode()}
    return {}


def blas_key() -> str:
    """Reference-digest key of this process's BLAS configuration."""
    info = blas_runtime()
    if not info:
        return "unknown"
    return f"{info['corename']}/threads={info['threads']}"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


class StepClock:
    """Per-step wall times of `train.train`, in untraced runs too.

    It replaces two names in `recurfit.train`: `curriculum_mean`, the
    first call of every step, and `_save_checkpoint`, called after the
    last one. One `perf_counter` per step is its whole cost. While a
    tracer is installed, each step is also a span tagged with its index;
    steps of untraced units open no span, so the step spans' self time
    is that of traced steps only.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.step_seconds: list = []
        self._start = None
        self._frame = None
        self._saved = {}

    def _mark(self, step=None) -> None:
        now = time.perf_counter()
        if self._start is not None:
            self.step_seconds.append(now - self._start)
        if self.tracer is not None and self._frame is not None:
            self.tracer.end(self._frame)
            self._frame = None
        self._start = now if step is not None else None
        if (self.tracer is not None and self.tracer.installed
                and step is not None):
            self.tracer.tag = f"step{step}"
            self._frame = self.tracer.begin("train.step")

    def install(self) -> None:
        original_mean = train_module.curriculum_mean
        original_save = train_module._save_checkpoint
        self._saved = {"curriculum_mean": original_mean,
                       "_save_checkpoint": original_save}

        def curriculum_mean(spec, step):
            self._mark(step)
            return original_mean(spec, step)

        def save_checkpoint(*args, **kwargs):
            self._mark()
            return original_save(*args, **kwargs)

        train_module.curriculum_mean = curriculum_mean
        train_module._save_checkpoint = save_checkpoint

    def uninstall(self) -> None:
        for name, value in self._saved.items():
            setattr(train_module, name, value)
        self._saved = {}


def surgical_checkpoint(seed: int) -> Checkpoint:
    """Surgery on a seeded, freshly initialised fixed-depth donor."""
    donor = model_mod.init_fixed(MODEL, DONOR_DEPTH,
                                 RandomStream(seed, "donor"), dtype=np.float32)
    return surgery.apply_surgery(surgery.model_to_checkpoint(donor),
                                 surgery.make_plan(PLAN, DONOR_DEPTH),
                                 "identity-pass",
                                 RandomStream(seed, "adapter"), 1e-3)


def build_start(seed: int, path: Path):
    """Set-up proper: donor, surgery, checkpoint round trip, model."""
    surgical_checkpoint(seed).save(path)
    return surgery.model_from_checkpoint(Checkpoint.load(path))


def train_config(regime: dict, init_path: Path, out_dir: Path,
                 steps: int) -> RunConfig:
    return RunConfig(
        model=MODEL, total_steps=steps, out_dir=str(out_dir),
        model_kind="recurrent", plan_tuple=list(PLAN),
        init_checkpoint=str(init_path), optimizer="muon",
        curriculum=CurriculumSpec("constant", regime["train_target"], 0),
        window=WindowSchedule("constant", WINDOW, 0),
        lr=WsdSpec(peak=2e-3, warmup_steps=0, stable_steps=steps),
        micro_batch=8, global_batch=8, seed=TRAIN_SEED,
        phases=[{"datasets": ["arithmetic"], "weights": [1.0],
                 "start": 0, "end": steps}])


class Run:
    """One benchmark process: inputs, timed sections and checks."""

    def __init__(self, regime_name: str, seed: int, workdir: Path,
                 tracer=None):
        self.regime_name = regime_name
        self.regime = REGIMES[regime_name]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.clock = StepClock(tracer)
        self.checks: list = []
        self.attempted = 0
        self.failed = 0
        self.units: dict = {}     # section -> units completed, all passes
        self.notes: dict = {}

    # -- set-up ------------------------------------------------------------

    def build(self) -> float:
        """Build the seeded start model once; returns its seconds."""
        started = time.perf_counter()
        self.start_path = self.workdir / "start.rfck"
        self.model = build_start(self.seed, self.start_path)
        seconds = time.perf_counter() - started
        self.notes["start_bytes"] = self.start_path.stat().st_size
        return seconds

    def warm_up(self) -> None:
        """Pay every first-call cost (BLAS threads, RoPE tables, arena
        growth) on a small unit of each section, outside the timing."""
        self._train_once(self.workdir / "warm", steps=1)
        evaluate.eval_sweep(self.model, "arithmetic", recurrences=(1,),
                            n_items=8, s0_seed=self.seed, data_seed=self.seed)
        self._fd_prepare()
        self._fd_probe(0)
        dist = DepthDistribution(self.regime["draw_mean"], DRAW_SPREAD)
        schedules.sample_recurrence(dist,
                                    RandomStream(self.seed, "warm-depth"))
        data.step_batch(self.seed, 0, BATCH_PHASES, BATCH_SIZE, BATCH_CONTEXT)

    # -- sections ----------------------------------------------------------

    def run_rounds(self, seconds: float = 0.0, rounds: int | None = None):
        """Repeat rounds of `ROUND` for about `seconds`, or exactly `rounds`.

        Another round starts while the time used plus half a mean round
        stays within `seconds`, so a run measures `seconds` to within
        half a round, and at least one round.
        """
        result = Pass()
        spent = 0.0
        while True:
            if rounds is not None:
                if result.rounds >= rounds:
                    break
            elif (result.rounds
                  and spent + 0.5 * spent / result.rounds > seconds):
                break
            for name, count in ROUND:
                for _ in range(count):
                    spent += self._time_unit(name, result)
            result.rounds += 1
        return result

    def _time_unit(self, name: str, result: "Pass") -> float:
        index = self.units.get(name, 0)
        if self.tracer is not None:
            self.tracer.section = name
            self.tracer.tag = f"{name}{index}"
        steps_before = len(self.clock.step_seconds)
        started = time.perf_counter()
        getattr(self, f"_unit_{name}")(index)
        elapsed = time.perf_counter() - started
        result.samples.setdefault(name, []).append(elapsed)
        result.seconds[name] = result.seconds.get(name, 0.0) + elapsed
        result.steps.extend(self.clock.step_seconds[steps_before:])
        self.units[name] = index + 1
        return elapsed

    def _train_once(self, out_dir: Path, steps: int, init=None):
        cfg = train_config(self.regime, init or self.start_path, out_dir,
                           steps)
        return train_module.train(cfg)

    def _unit_train(self, index: int) -> None:
        summary = self._train_once(self.workdir / "train", TRAIN_STEPS)
        digests = (sha256_file(summary["metrics"]),
                   sha256_file(summary["final_checkpoint"]))
        self.notes.setdefault("train_digests", set()).add(digests)
        self.notes["final_bytes"] = Path(
            summary["final_checkpoint"]).stat().st_size
        rows = _metric_rows(summary["metrics"])
        self.notes["train_r_mean"] = statistics.mean(
            int(row["sampled_r"]) for row in rows)
        self.attempted += TRAIN_STEPS
        self.failed += sum(row["nonfinite"] != "0"
                           or not math.isfinite(float(row["loss"]))
                           for row in rows)

    def _unit_sweep(self, index: int) -> None:
        dataset = SWEEP_DATASETS[index % len(SWEEP_DATASETS)]
        result = evaluate.eval_sweep(self.model, dataset,
                                     recurrences=self.regime["recurrences"],
                                     s0_seed=self.seed, n_items=SWEEP_ITEMS,
                                     data_seed=self.seed)
        self.attempted += 1
        if not all(math.isfinite(row.loss) for row in result.rows):
            self.failed += 1
        self.notes.setdefault("sweep_rows", {}).setdefault(
            dataset, set()).add(tuple((row.r, row.loss, row.accuracy)
                                      for row in result.rows))

    def _fd_prepare(self) -> None:
        if hasattr(self, "fd_grads"):
            return
        # acceptance 3's own model and tokens, which pass at 1e-4 on every
        # entry; the run seed picks which entries are probed, in what order
        self.fd_model = model_mod.init_recurrent(
            FD_MODEL, PLAN, RandomStream(0, "init"), dtype=np.float64)
        self.fd_tokens = RandomStream(1, "tok").integers(
            0, FD_MODEL.vocab_size, (1, 3))
        self.fd_targets = RandomStream(2, "tgt").integers(
            0, FD_MODEL.vocab_size, (1, 3))
        self.fd_params = self.fd_model.params()
        self.fd_grads = self.fd_taped_backward()
        entries = [(name, i) for name, p in self.fd_params.items()
                   for i in range(p.data.size)]
        order = RandomStream(self.seed, "fd-order").permutation(len(entries))
        self.fd_entries = [entries[k] for k in order]
        self.fd_worst = 0.0
        self.fd_probed = 0

    def fd_taped_backward(self) -> dict:
        """The one taped backward the FD probes are checked against."""
        with Tape() as tape:
            logits = model_mod.forward_recurrent(self.fd_model, self.fd_tokens,
                                                 self._fd_run())
            loss = ag.cross_entropy_mean(logits, self.fd_targets)
            grad_map = ag.backward(loss, tape)
        return {name: np.asarray(grad_map.get(p, np.zeros_like(p.data)))
                for name, p in self.fd_params.items()}

    def _fd_run(self) -> RecurrenceRun:
        return RecurrenceRun(3, WINDOW, RandomStream(4, "s0"))

    def _fd_loss(self) -> float:
        logits = model_mod.forward_recurrent(self.fd_model, self.fd_tokens,
                                             self._fd_run())
        return ag.cross_entropy_mean(logits, self.fd_targets).item()

    def _fd_probe(self, k: int) -> None:
        name, i = self.fd_entries[k % len(self.fd_entries)]
        self.fd_worst = max(self.fd_worst, self._fd_error(name, i))

    def _fd_error(self, name: str, i: int) -> float:
        """Relative error of the taped gradient at entry i of `name`."""
        flat = self.fd_params[name].data.reshape(-1)
        old = flat[i]
        flat[i] = old + FD_EPS
        up = self._fd_loss()
        flat[i] = old - FD_EPS
        down = self._fd_loss()
        flat[i] = old
        fd = (up - down) / (2 * FD_EPS)
        ad = self.fd_grads[name].reshape(-1)[i]
        return abs(fd - ad) / max(abs(fd), abs(ad), FD_ABS_FLOOR)

    def fd_every_tensor(self) -> tuple:
        """Worst error over the first, middle and last entry of every
        parameter tensor, and the number of entries probed. The timed
        probes cover only as many entries as the run's seconds allow."""
        worst, probed = 0.0, 0
        for name, p in self.fd_params.items():
            for i in sorted({0, p.data.size // 2, p.data.size - 1}):
                worst = max(worst, self._fd_error(name, i))
                probed += 1
        return worst, probed

    def _unit_fd(self, index: int) -> None:
        for _ in range(FD_CHUNK):
            self._fd_probe(self.fd_probed)
            self.fd_probed += 1
        self.attempted += 2 * FD_CHUNK

    def _unit_draws(self, index: int) -> None:
        dist = DepthDistribution(self.regime["draw_mean"], DRAW_SPREAD)
        stream = RandomStream(self.seed, "bench-depth")
        base = index * DRAW_CHUNK
        draws = self.notes.setdefault("draws", [])
        for i in range(base, base + DRAW_CHUNK):
            draws.append(schedules.sample_recurrence(dist,
                                                     stream.child(str(i))))
        self.attempted += DRAW_CHUNK

    def _unit_batches(self, index: int) -> None:
        bad = 0
        for step in range(index * BATCH_CHUNK, (index + 1) * BATCH_CHUNK):
            inputs, targets, _ = data.step_batch(self.seed, step,
                                                 BATCH_PHASES, BATCH_SIZE,
                                                 BATCH_CONTEXT)
            ok = (inputs.shape == (BATCH_SIZE, BATCH_CONTEXT)
                  and np.array_equal(inputs[:, 1:], targets[:, :-1])
                  and 0 <= inputs.min() and targets.max() < MODEL.vocab_size)
            bad += not ok
        self.attempted += BATCH_CHUNK
        self.failed += bad

    # -- correctness -------------------------------------------------------

    def _check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(passed), detail))
        self.attempted += 1
        self.failed += not passed

    def reference_outputs(self) -> dict:
        """Digests of the outputs at the reference seed, for this regime."""
        ref_path = self.workdir / "ref_start.rfck"
        ref_model = build_start(REF_SEED, ref_path)
        summary = self._train_once(self.workdir / "ref_train",
                                   REF_TRAIN_STEPS, init=ref_path)
        out = {"train_metrics_csv": sha256_file(summary["metrics"]),
               "train_final_rfck": sha256_file(summary["final_checkpoint"])}
        for dataset in SWEEP_DATASETS:
            csv_path = self.workdir / f"ref_sweep_{dataset}.csv"
            evaluate.eval_sweep(ref_model, dataset,
                                recurrences=self.regime["recurrences"],
                                s0_seed=REF_SEED, n_items=REF_SWEEP_ITEMS,
                                data_seed=REF_SEED).to_csv(csv_path)
            out[f"sweep_{dataset}_csv"] = sha256_file(csv_path)
        draws = reference_draws(self.regime["draw_mean"])
        out["draws"] = sha256_arrays(np.asarray(draws, dtype=np.int64))
        batches = [data.step_batch(REF_SEED, step, BATCH_PHASES, BATCH_SIZE,
                                   BATCH_CONTEXT)
                   for step in range(REF_BATCHES)]
        out["batches"] = sha256_arrays(
            *[a for inputs, targets, names in batches
              for a in (inputs, targets, np.asarray(names))])
        self.notes["reference_draws"] = draws
        return out

    def check(self, references: dict) -> None:
        """Run every correctness check; each is one counted operation.

        Train and sweep digests are checked only where they were recorded
        for this BLAS configuration; otherwise the run says so.
        """
        got = self.reference_outputs()
        expected = dict(references["rng"][self.regime_name])
        recorded = references["blas"].get(blas_key())
        if recorded is None:
            self.notes["unchecked"] = (f"no train/sweep digests recorded for "
                                       f"BLAS {blas_key()}")
        else:
            expected.update(recorded[self.regime_name])
        for key in sorted(expected):
            self._check(f"digest.{key}", got.get(key) == expected[key],
                        f"{got.get(key)} vs recorded {expected[key]}")
        self._check("train.deterministic_units",
                    len(self.notes.get("train_digests", ())) == 1,
                    "every timed train() call wrote the same bytes")
        rows = self.notes.get("sweep_rows", {})
        self._check("sweep.deterministic_repeats",
                    rows and all(len(v) == 1 for v in rows.values()),
                    "repeated sweeps of a dataset gave identical rows")
        self._check("fd.worst_relative_error", self.fd_worst < FD_TOLERANCE,
                    f"worst {self.fd_worst:.3g} over {self.fd_probed} "
                    f"probes, tolerance {FD_TOLERANCE}")
        worst, probed = self.fd_every_tensor()
        self._check("fd.every_tensor_relative_error", worst < FD_TOLERANCE,
                    f"worst {worst:.3g} over {probed} entries of "
                    f"{len(self.fd_params)} tensors, tolerance {FD_TOLERANCE}")
        mean = self.regime["draw_mean"]
        for name, draws, k in (
                ("draws.reference_mean_3se", self.notes["reference_draws"], 3),
                ("draws.timed_mean_5se", self.notes.get("draws", [0]), 5)):
            draws = np.asarray(draws, dtype=np.float64)
            bound = k * _se(mean, draws.size)
            self._check(name,
                        draws.min() >= 1 and abs(draws.mean() - mean) < bound,
                        f"mean {draws.mean():.4f} over {draws.size} draws, "
                        f"{k} SE = {bound:.4f}")


def reference_draws(mean: float) -> list:
    """Acceptance 5's stream: seed 17, label "acc-depth", child per draw."""
    dist = DepthDistribution(mean, DRAW_SPREAD)
    stream = RandomStream(17, "acc-depth")
    return [schedules.sample_recurrence(dist, stream.child(str(i)))
            for i in range(REF_DRAWS)]


def _se(mean: float, n: int) -> float:
    """Standard error of the mean of n draws of 1 + Poisson(lognormal)."""
    lam = mean - 1.0
    var = lam + lam ** 2 * (math.exp(DRAW_SPREAD ** 2) - 1.0)
    return math.sqrt(var / max(n, 1))


def _metric_rows(metrics_path) -> list:
    with open(metrics_path, newline="") as f:
        return list(csv.DictReader(f))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
