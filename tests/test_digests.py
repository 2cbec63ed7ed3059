"""`tools/digests.py` prints the same digests for the same tree."""

import json
import subprocess
import sys
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def test_the_two_smallest_flows_give_the_same_json_twice():
    def digests():
        done = subprocess.run(
            [sys.executable, str(DIGESTS_PATH), "--flows",
             "flops,layer-scores"], capture_output=True, text=True,
            check=True)
        return done.stdout

    first = digests()
    assert first == digests()
    matrix = json.loads(first)
    assert set(matrix) == {"flops", "layer-scores"}
    scores = matrix["layer-scores"]
    assert {"donor/final.rfck", "2.layer-scores.out"} <= set(scores)
    assert all(set(by_threads) == {"1", "default"}
               for artifacts in matrix.values()
               for by_threads in artifacts.values())
