"""SHA-256 digests of the bytes that recurfit's seeded flows write.

Runs a fixed matrix of small seeded flows (training runs, donor surgery,
resumes, evaluation, pruning, layer scores and FLOP accounting), each
in new interpreters and a fresh directory, once with
OPENBLAS_NUM_THREADS=1 and once with the environment's default, and
prints one JSON object {flow: {artifact: {threads: sha256}}}. An
artifact is a file the flow wrote (path relative to its directory) or
the standard output of its n-th command (`<n>.<command>.out`).

    python3 tools/digests.py
    python3 tools/digests.py --flows flops,layer-scores
    python3 tools/digests.py --compare ../parent-checkout

`--compare DIR` runs the matrix with this tree's src/ and with DIR/src,
then prints every digest that differs between the two trees, and every
artifact whose bytes differ between thread counts in either tree; it
exits 1 if a digest differs between the trees. No golden file is kept,
so an intended change of bytes needs no edit here. A command that fails
stops the tool with its stderr (exit 2). Standard library only, plus the
recurfit under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = ("1", "default")

MODEL = {"vocab_size": 257, "hidden": 64, "n_query_heads": 4,
         "n_kv_heads": 2, "head_dim": 16, "ffn_width": 128,
         "context_length": 64}
RUN = {"model": MODEL, "total_steps": 3, "out_dir": "run", "seed": 7,
       "micro_batch": 8, "global_batch": 8,
       "curriculum": {"shape": "linear", "target": 4, "warmup_steps": 3},
       "window": {"shape": "constant", "target": 2, "warmup_steps": 0},
       "lr": {"peak": 1e-3, "warmup_steps": 1}}  # every step after 0 updates
DONOR = {"model_kind": "fixed", "fixed_depth": 4, "total_steps": 0,
         "out_dir": "donor", "dtype": "float64"}
PRUNE = ("import sys\n"
         "from recurfit.checkpoint import Checkpoint\n"
         "from recurfit.surgery import make_plan, pruned_donor\n"
         "donor = Checkpoint.load(sys.argv[1])\n"
         "plan = make_plan((1, 1, 1), donor.metadata['depth'])\n"
         "pruned_donor(donor, plan).save(sys.argv[2])\n")


def _config(name: str, **fields) -> tuple:
    """A step that writes run config `in/<name>.json`: RUN with `fields`,
    on a half-plain, half-arithmetic data mixture."""
    cfg = {**RUN, **fields}
    cfg["phases"] = [{"datasets": ["plain", "arithmetic"],
                      "weights": [0.5, 0.5], "start": 0,
                      "end": cfg["total_steps"]}]
    return ("config", name, cfg)


def _train(name: str, *extra: str) -> tuple:
    return ("cli", "train", "--config", f"in/{name}.json", *extra)


def _trained(name: str, **fields) -> list:
    return [_config(name, **fields), _train(name)]


def _surgery(adapter: str) -> list:
    return [_config("donor", **DONOR), _train("donor"),
            ("cli", "surgery", "--donor", "donor/final.rfck", "--plan-tuple",
             "1,2,1", "--adapter-init", adapter, "--seed", "3", "--out",
             "cut.rfck", "--plan-file", "plan.json"),
            *_trained("retrofit", donor_checkpoint="donor/final.rfck",
                      plan_tuple=[1, 2, 1], adapter_init=adapter,
                      optimizer="muon")]


# flow name -> steps; a step writes a config, copies a directory, runs a
# `recurfit` command or runs a Python snippet with arguments
FLOWS = {
    "train-fixed-f32-adamw": _trained("run", model_kind="fixed",
                                      fixed_depth=2, optimizer="adamw"),
    "train-fixed-f64-muon-g2": _trained("run", model_kind="fixed",
                                        fixed_depth=2, optimizer="muon",
                                        dtype="float64", global_batch=16),
    "train-recurrent-f32-muon": _trained("run", plan_tuple=[1, 2, 1],
                                         optimizer="muon"),
    "train-recurrent-f64-adamw-g2": _trained("run", plan_tuple=[1, 2, 1],
                                             optimizer="adamw",
                                             dtype="float64", global_batch=16),
    "train-recurrent-f64-adamw_star": _trained("run", plan_tuple=[1, 1, 1],
                                               optimizer="adamw_star",
                                               dtype="float64"),
    "train-recurrent-qknorm-tied-postnorm": _trained(
        "run", plan_tuple=[1, 1, 1], optimizer="muon", global_batch=16,
        model={**MODEL, "qk_norm": True, "tie_embeddings": True,
               "post_norm": True}),
    "train-recurrent-qknorm-adamw": _trained(
        "run", plan_tuple=[1, 2, 1], optimizer="adamw",
        model={**MODEL, "qk_norm": True}),
    "train-recurrent-f64-postnorm-muon": _trained(
        "run", plan_tuple=[1, 2, 1], optimizer="muon", dtype="float64",
        model={**MODEL, "post_norm": True}),
    "surgery-identity-pass": _surgery("identity-pass"),
    "surgery-scaled-random": _surgery("scaled-random"),
    "resume": [_config("run", total_steps=4, checkpoint_interval=2,
                       plan_tuple=[1, 2, 1], optimizer="muon",
                       dtype="float64"),
               _train("run"), ("copy", "run", "resumed"),
               _train("run", "--set", "out_dir=resumed", "--resume",
                      "resumed/ckpt_step2.rfck")],
    # rows 0, 3, 6 and the last step's 7; the resume keeps rows 0 and 3
    "resume-sparse": [_config("run", total_steps=8, metric_interval=3,
                              checkpoint_interval=2, plan_tuple=[1, 2, 1],
                              optimizer="muon",
                              lr={**RUN["lr"], "stable_steps": 5,
                                  "decay_steps": 2}),
                      _train("run"), ("copy", "run", "resumed"),
                      _train("run", "--set", "out_dir=resumed", "--resume",
                             "resumed/ckpt_step4.rfck")],
    "eval": [_config("donor", **DONOR), _train("donor"),
             *_trained("run", total_steps=2, plan_tuple=[1, 2, 1],
                       optimizer="muon"),
             ("cli", "eval", "--checkpoint", "donor/final.rfck", "--dataset",
              "arithmetic", "--recurrences", "1,4", "--items", "16", "--out",
              "fixed.csv"),
             ("cli", "eval", "--checkpoint", "run/final.rfck", "--dataset",
              "copy", "--recurrences", "4,1,2", "--items", "24", "--out",
              "recurrent.csv")],
    "prune": [_config("donor", **DONOR), _train("donor"),
              ("python", PRUNE, "donor/final.rfck", "pruned.rfck")],
    "layer-scores": [_config("donor", **DONOR), _train("donor"),
                     ("cli", "layer-scores", "--checkpoint",
                      "donor/final.rfck", "--context", "64")],
    "flops": [_config("fixed", model_kind="fixed", fixed_depth=4),
              _config("recurrent", plan_tuple=[2, 4, 2]),
              ("cli", "flops", "--config", "in/fixed.json", "--tokens",
               "1000000"),
              ("cli", "flops", "--config", "in/recurrent.json", "--mean-r",
               "12", "--window", "4", "--tokens", "1000000")],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_flow(steps: list, src: Path, threads: str) -> dict:
    """artifact -> sha256 of one flow run with `src` on the path."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "RECURFIT_OUT_ROOT")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if threads != "default":
        env["OPENBLAS_NUM_THREADS"] = threads
    digests = {}
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        work = Path(tmp)
        (work / "in").mkdir()
        for n, (kind, *args) in enumerate(steps):
            if kind == "config":
                (work / "in" / f"{args[0]}.json").write_text(
                    json.dumps(args[1]))
                continue
            if kind == "copy":
                shutil.copytree(work / args[0], work / args[1])
                continue
            argv = ([sys.executable, "-m", "recurfit.cli", *args]
                    if kind == "cli" else [sys.executable, "-c", *args])
            done = subprocess.run(argv, cwd=work, env=env,
                                  capture_output=True)
            if done.returncode:
                sys.stderr.write(done.stderr.decode(errors="replace"))
                sys.exit(f"digests: {' '.join(argv[1:3])} exited with "
                         f"{done.returncode} (threads {threads}, {src})")
            digests[f"{n}.{args[0] if kind == 'cli' else kind}.out"] = \
                _sha(done.stdout)
        for path in sorted(work.rglob("*")):
            rel = path.relative_to(work)
            if path.is_file() and rel.parts[0] != "in":
                digests[rel.as_posix()] = _sha(path.read_bytes())
    return digests


def digest_matrix(src: Path, flows: list) -> dict:
    """{flow: {artifact: {threads: sha256}}} with `src` on the path."""
    out = {flow: {} for flow in flows}
    for flow in flows:
        for threads in THREADS:
            for artifact, sha in run_flow(FLOWS[flow], src, threads).items():
                out[flow].setdefault(artifact, {})[threads] = sha
    return out


def thread_dependent(matrix: dict) -> list:
    """`flow/artifact` of each artifact whose thread counts disagree."""
    return [f"{flow}/{artifact}" for flow, artifacts in matrix.items()
            for artifact, by_threads in artifacts.items()
            if len(set(by_threads.values())) > 1]


def compare(this: dict, other: dict) -> list:
    """`flow/artifact/threads` of each digest that differs, or that only
    one tree wrote."""
    def flat(matrix):
        return {f"{flow}/{artifact}/{threads}": sha
                for flow, artifacts in matrix.items()
                for artifact, by_threads in artifacts.items()
                for threads, sha in by_threads.items()}

    a, b = flat(this), flat(other)
    return sorted(key for key in a.keys() | b.keys()
                  if a.get(key) != b.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--flows", default=",".join(FLOWS),
                        help="comma list of flows, default all")
    parser.add_argument("--compare", metavar="DIR",
                        help="a checkout whose src/ to compare against")
    args = parser.parse_args(argv)
    flows = args.flows.split(",")
    unknown = sorted(set(flows) - FLOWS.keys())
    if unknown:
        parser.error(f"unknown flows {unknown}; known: {list(FLOWS)}")
    this = digest_matrix(ROOT / "src", flows)
    if not args.compare:
        print(json.dumps(this, indent=1, sort_keys=True))
        return 0
    other = digest_matrix(Path(args.compare).resolve() / "src", flows)
    changed = compare(this, other)
    print(json.dumps({"changed": changed,
                      "thread_dependent": {"this": thread_dependent(this),
                                           "other": thread_dependent(other)}},
                     indent=1))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
