"""The benchmark's runs, untraced and traced, still work end to end.

The untraced run (`--trace 0`) is the one whose end-to-end metrics the
benchmark compares; a `--seconds 0` run of each workload (three ops)
must finish with every op correct and report the metrics BENCHMARK.json
names. Their values are not pinned: they depend on the machine.

The traced run still sees every span, proposal and tape op.

`perfbench/run.py --trace 1` wraps functions by module global
(`runner.localize_video`, `runner.map_at`, `localization.generate_proposals`,
`localization.nms`, `numcore.backward`, `numcore.adam_step`), counts
proposals with len() of what the last two return, and takes a census of
each training tape through `DiffNode.parents`. A renamed global, a result
whose len() is not its proposal count or a tape of other nodes breaks the
trace without failing anything else, so this runs the traced benchmark
for one op on each workload and pins the counts measured before the
array evaluation path and the flat Adam buffer existed.
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

# train-short, seed 1: 500 tapes of 8 videos and 260 Adam steps per op,
# and the tape's nodes per op name (conv3 and propagate are not reported)
TRAINING = {
    "numcore.backward.calls": 500,
    "numcore.adam_step.calls": 260,
    "numcore.tape_nodes_per_step": 49,
    "numcore.op.leaf.count": 19,
    "numcore.op.matmul.count": 3,
    "numcore.op.add.count": 1,
    "numcore.op.mul.count": 3,
    "numcore.op.scale.count": 2,
    "numcore.op.relu.count": 4,
    "numcore.op.sigmoid.count": 1,
    "numcore.op.log.count": 2,
    "numcore.op.square.count": 1,
    "numcore.op.clip.count": 2,
    "numcore.op.transpose.count": 1,
    "numcore.op.concat-cols.count": 1,
    "numcore.op.softmax-rows.count": 1,
    "numcore.op.sum.count": 2,
    "numcore.op.topk-mean.count": 1,
}


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, env=None):
    """Detail and result objects of a `--seconds 0` run at seed 1."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()[-2:]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    detail, result = _bench(workload, 0)
    assert result["correct"] and result["failed"] == 0, detail
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values()), result


def _traced(workload):
    """Per-layer metrics of one traced op at seed 1, after the run's own checks."""
    detail, result = _bench(workload, 1,
                            dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert result["failed"] == 0, detail
    assert detail["spans_not_wrapped"] == []
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_run_keeps_spans_and_counts(workload):
    metrics = _traced(workload)
    generated, kept = PINNED[workload]
    assert metrics["localization.proposals_generated"] == generated
    assert metrics["localization.proposals_kept"] == kept


def test_traced_training_keeps_its_tape():
    metrics = _traced("train-short")
    assert {name: metrics[name] for name in TRAINING} == TRAINING
    ops = {name for name, value in metrics.items()
           if name.startswith("numcore.op.") and value}
    assert ops == {name for name in TRAINING if name.startswith("numcore.op.")}
