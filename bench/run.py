"""recurfit benchmark: one process runs every section of one workload.

    python3 bench/run.py --workload deep --seed 1 --seconds 45 --trace 0

Run from the repository root. The package is imported from ``src/`` of
the same checkout. ``--workload`` picks a recurrence regime (see
``workloads.py``); every run times all five sections under it: ``train``,
``sweep``, ``fd``, ``draws`` and ``batches``. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken
from a traced pass of each section that repeats the untraced pass's units.
A full result file (environment, samples, checks, self times) and, for
traced runs, the spans go to ``bench/out/`` unless ``--out`` says where.

The benchmark never sets the BLAS thread count; it records it.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
TRACED_ROUNDS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default bench/out/...)")
    return parser.parse_args(argv)


def import_package():
    """Import recurfit from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "recurfit" / "__init__.py").is_file():
        print(f"bench: no recurfit package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy  # noqa: F401
    import workloads  # noqa: F401


def environment(args) -> dict:
    import numpy as np
    import workloads as wl
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    runtime = wl.blas_runtime()
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_core": runtime.get("corename", "unknown"),
        "blas_threads": runtime.get("threads", "unknown"),
        "blas_config": runtime.get("config", "unknown"),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args):
    """Set up, time, trace and check one run; returns (result, tracer)."""
    import workloads as wl
    from layers import per_layer_metrics
    from tracer import Tracer

    if args.workload not in wl.REGIMES:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.REGIMES)}", file=sys.stderr)
        raise SystemExit(2)
    import_s = time.perf_counter() - PROCESS_START
    references = json.loads((BENCH_DIR / "references.json").read_text())
    workdir = BENCH_DIR / "out" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    bench = wl.Run(args.workload, args.seed, workdir, tracer)
    bench.clock.install()
    try:
        build_s = sorted(bench.build() for _ in range(SETUP_REPEATS))
        started = time.perf_counter()
        bench.warm_up()
        warmup_s = time.perf_counter() - started
        setup_s = import_s + build_s[len(build_s) // 2] + warmup_s

        untraced = bench.run_rounds(seconds=args.seconds)
        rss = peak_rss_mb()
        traced = trace_rounds(bench, tracer) if tracer else None
        bench.check(references)
    finally:
        bench.clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"setup": {"setup_s": setup_s, "import_s": import_s,
                        "build_s": build_s, "warmup_s": warmup_s},
              "untraced": vars(untraced), "peak_rss_mb": rss,
              "checks": [vars(c) for c in bench.checks],
              "unchecked": bench.notes.get("unchecked"),
              "attempted": bench.attempted, "failed": bench.failed,
              "end_to_end": end_to_end(untraced, setup_s, rss),
              "section_rates": short_section_rates(untraced)}
    if tracer is not None:
        result["traced"] = vars(traced)
        result["per_layer"] = per_layer_metrics(tracer, bench, untraced,
                                                traced)
        result["per_layer"].update(
            {name: (value, unit) for name, (value, unit, _)
             in result["section_rates"].items()})
        result["self_ms"] = self_times(tracer)
        result["matmul_unattributed_ms"] = unattributed_matmul_ms(tracer)
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
    return result, tracer


def trace_rounds(bench, tracer):
    """Repeat the untraced work with tracing on: one start-model build,
    the FD taped backward and `TRACED_ROUNDS` rounds."""
    tracer.install()
    try:
        tracer.section = "setup"
        bench.build()
        # built untraced in warm-up; its matmuls are attributed by weight
        tracer.register_model(bench.fd_model)
        tracer.section = "fd_tape"
        bench.fd_taped_backward()
        return bench.run_rounds(rounds=TRACED_ROUNDS)
    finally:
        tracer.uninstall()


def end_to_end(untraced, setup_s, rss) -> dict:
    """name -> (value, unit, sample count), for BENCHMARK.json.

    Steps differ in their sampled r, so each of the 16 step positions is
    timed by the median of its repeats and the named percentiles are taken
    across positions: their sample is the 16 positions, so fewer than 10
    lie beyond p90.
    """
    import workloads as wl
    steps = untraced.steps
    by_position = [statistics.median(steps[i::wl.TRAIN_STEPS])
                   for i in range(wl.TRAIN_STEPS)]
    positions = (f"{len(by_position)} step positions, each the median of "
                 f"{len(steps) // wl.TRAIN_STEPS} repeats")
    sweeps = untraced.samples["sweep"]
    return {
        "setup_s": (setup_s, "s", 1),
        "train_steps_per_s": (wl.TRAIN_STEPS / sum(by_position), "1/s",
                              positions),
        "train_step_ms_p50": (1e3 * wl.percentile(by_position, 50), "ms",
                              positions),
        "train_step_ms_p90": (1e3 * wl.percentile(by_position, 90), "ms",
                              positions),
        "eval_sweep_s_p50": (statistics.median(sweeps), "s", len(sweeps)),
        "peak_rss_mb": (rss, "MB", 1),
    }


def short_section_rates(untraced) -> dict:
    """Throughput of the fd, draws and batches sections: work per unit over
    the median unit time. Not in BENCHMARK.json's end-to-end list: these
    single-threaded pure-Python sections swing by up to 1.5x between runs
    on a shared host, more than any allowed bound (see README.md)."""
    import workloads as wl

    def rate(section, per_unit):
        values = untraced.samples[section]
        return (per_unit / statistics.median(values), "1/s", len(values))

    return {"fd.fd_forwards_per_s": rate("fd", 2 * wl.FD_CHUNK),
            "draws.depth_draws_per_s": rate("draws", wl.DRAW_CHUNK),
            "batches.batches_per_s": rate("batches", wl.BATCH_CHUNK)}


def unattributed_matmul_ms(tracer) -> dict:
    """section -> forward + backward ms of matmuls whose weight belongs to
    no family; 0 everywhere when every model's weights are registered."""
    out = {}
    for (section, family, op), (_, fwd_s, bwd_s) in tracer.op_stats.items():
        if op == "matmul":
            out[section] = out.get(section, 0.0) + (
                1e3 * (fwd_s + bwd_s) if family == "other" else 0.0)
    return out


def self_times(tracer) -> dict:
    out = {}
    for (section, name), (count, total, self_s) in sorted(
            tracer.span_stats.items()):
        out[f"{section}.{name}"] = {"calls": count,
                                    "total_ms": 1e3 * total,
                                    "self_ms": 1e3 * self_s}
    return out


def write_outputs(args, env, result) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        path = (BENCH_DIR / "out" /
                f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {"environment": env, **result}
    path.write_text(json.dumps(body, indent=1, sort_keys=True, default=str))
    return path


def write_spans(tracer, path: Path) -> None:
    with open(path, "w") as f:
        for name, start, end, parent, tag, section in tracer.spans:
            f.write(json.dumps([name, start, end, parent, tag, section]))
            f.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be > 0", file=sys.stderr)
        return 2
    import_package()
    env = environment(args)
    result, tracer = run(args)
    path = write_outputs(args, env, result)
    if tracer is not None:
        write_spans(tracer, path.with_suffix(".spans.jsonl"))
    for key in ("OPENBLAS_NUM_THREADS", "nproc", "python", "numpy", "blas",
                "blas_core", "blas_threads", "git_commit", "seed"):
        print(f"env {key} = {env[key]}")
    for check in result["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"check {check['name']}: {verdict} ({check['detail']})")
    if result["unchecked"]:
        print(f"note: {result['unchecked']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          "operations)")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
        for section, ms in sorted(result["matmul_unattributed_ms"].items()):
            print(f"unattributed matmul time in {section} = {ms:.6g} ms")
        for name, (value, unit) in result["per_layer"].items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        metrics = {}
        for name, (value, unit, count) in result["end_to_end"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit} (n={count})")
        for name, (value, unit, count) in result["section_rates"].items():
            print(f"{name} = {value:.6g} {unit} (n={count}, no bound)")
    print(f"result file: {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
