"""Self-test: run every workload briefly, traced and untraced, and check
that the emitted metric names and units match BENCHMARK.json, that
every correctness check passes and, in traced runs, that every matmul is
attributed to the family of the weight it multiplies.

    python3 bench/smoke.py [--seconds 2]

Run from the repository root. Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = BENCH_DIR / "out" / f"smoke-{workload}-trace{trace}.json"
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", str(args.seconds),
                                     "--trace", str(trace), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{label}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            if not result["correct"] or result["failed"]:
                failed = [line for line in proc.stdout.splitlines()
                          if line.startswith("check ") and "FAIL" in line]
                problems.append(f"{label}: failed checks {failed}")
            if trace:
                unattributed = json.loads(out.read_text())[
                    "matmul_unattributed_ms"]
                if any(unattributed.values()):
                    problems.append(f"{label}: matmul time outside every "
                                    f"family (ms): {unattributed}")
            print(f"{label}: {len(got)} metrics, attempted "
                  f"{result['attempted']}, failed {result['failed']}",
                  flush=True)
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke: OK" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
