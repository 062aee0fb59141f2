"""The benchmark's traced run still sees every span and every proposal.

`perfbench/run.py --trace 1` wraps functions by module global
(`runner.localize_video`, `runner.map_at`, `localization.generate_proposals`,
`localization.nms`) and counts proposals with len() of what the last two
return. A renamed global or a result whose len() is not its proposal
count breaks the trace without failing anything else, so this runs the
traced benchmark for one op on each evaluating workload and pins the
proposal counts measured before the array evaluation path existed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (proposals generated, proposals kept) per evaluation op, seed 1
PINNED = {
    "eval-long": (11671, 6713),
    "ablate-mix": (10100, 7700),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_run_keeps_spans_and_counts(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["failed"] == 0, detail
    assert detail["spans_not_wrapped"] == []
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    generated, kept = PINNED[workload]
    assert metrics["localization.proposals_generated"] == generated
    assert metrics["localization.proposals_kept"] == kept
