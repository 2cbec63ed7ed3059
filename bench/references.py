"""Record the reference digests of every workload in references.json.

    python3 bench/references.py

Run from the repository root. Digests of depth draws and batches depend
only on the seed; train and sweep digests also depend on the BLAS kernels
and thread count, so they are stored under this process's configuration
(for example ``OPENBLAS_NUM_THREADS=1 python3 bench/references.py`` adds
the one-thread digests). Only a change that alters output bytes on
purpose should record them again; the checks exist to catch any other.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_package()
    import workloads as wl

    path = run.BENCH_DIR / "references.json"
    references = (json.loads(path.read_text()) if path.is_file()
                  else {"rng": {}, "blas": {}})
    key = wl.blas_key()
    for name in sorted(wl.REGIMES):
        workdir = run.BENCH_DIR / "out" / f"ref-{os.getpid()}-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            got = wl.Run(name, wl.REF_SEED, workdir).reference_outputs()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        references["rng"][name] = {k: v for k, v in got.items()
                                   if k not in wl.BLAS_DEPENDENT}
        references["blas"].setdefault(key, {})[name] = {
            k: v for k, v in got.items() if k in wl.BLAS_DEPENDENT}
    path.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"recorded digests for BLAS {key} in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
