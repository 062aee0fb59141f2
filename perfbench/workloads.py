"""The benchmark workloads: inputs, the timed call, and its output checks.

Every workload builds its corpus from the seed alone (training keeps
its default seed, so the model's initial weights are the same for every
corpus), times one public entry point of ``motionloc.runner`` per op,
and checks each op's output against invariants that any correct change
keeps. An op is a training run, an evaluation pass, or one ablation
cell.

Each workload exposes:

- ``setup()``: corpus generation plus any parameter preparation; timed
  as ``setup_s``;
- ``run()``: the timed call;
- ``work(out)``: video passes in that call, one per training
  video-step or evaluated video;
- ``results(out)``: ``(label, fingerprint)`` per op, compared exactly
  against the first op of the run and between traced and untraced ops;
- ``check(out)``: ``(label, reason)`` per invariant an op breaks;
- ``summary(out)``: the run's named results for the detail line;
- ``speed(rate, wall)``: the speed under the name a user of that
  entry point would give it, from the median rate and op wall time.
"""

import json
import math

import numpy as np

from motionloc import runner


def _finite(x):
    return isinstance(x, float) and math.isfinite(x)


def _report_problems(report):
    """Invariants of one EvalReport: mAP values in [0, 1], KL finite and >= 0."""
    problems = []
    maps = dict(report.map, avg=report.avg_map)
    for key, value in maps.items():
        if not (_finite(value) and 0.0 <= value <= 1.0):
            problems.append(f"map {key} = {value!r} outside [0, 1]")
    if 0.5 not in report.map:
        problems.append("no mAP at IoU 0.5")
    for key, value in report.kl.items():
        if not (_finite(value) and value >= 0.0):
            problems.append(f"kl {key} = {value!r} not finite and >= 0")
    return problems


def _params_bytes(params):
    tensors = [p.value for p in params.trainable()] + [params.W1, params.W2]
    return b"".join(np.ascontiguousarray(t).tobytes() for t in tensors)


class TrainShort:
    """Default corpus, sparse graph, motion-guided loss, batch 16, 20 epochs."""

    name = "train-short"
    setup_reps = 5
    ops_per_run = 1

    def __init__(self, seed):
        self.cfg = runner.config_from_dict({
            "corpus": {"seed": seed},
            "train": {"epochs": 20},
        })

    def setup(self):
        self.train_videos, _ = runner.generate_corpus(self.cfg.corpus)

    def run(self):
        return runner.run_training(self.cfg, self.train_videos)

    def work(self, out):
        return len(self.train_videos) * self.cfg.train.epochs

    def results(self, out):
        params, curve = out
        return [("training run", (tuple(curve), _params_bytes(params)))]

    def check(self, out):
        losses = [value for _, value in out[1]]
        if not all(_finite(v) for v in losses):
            return [("training run", "non-finite loss")]
        if not losses[-1] < losses[0]:
            return [("training run", f"loss did not fall: {losses[0]!r} -> "
                                     f"{losses[-1]!r}")]
        return []

    def summary(self, out):
        return {"final_loss": {"value": out[1][-1][1], "unit": "loss"}}

    def speed(self, rate, wall):
        return {"train_video_steps_per_s": {"value": rate, "unit": "1/s"}}


class EvalLong:
    """Untrimmed T=256 videos, 200 test videos; only run_evaluation is timed.

    The parameters come from a short training run on the corpus's own
    32-video train split, done in set-up. It is trained far enough
    (20 epochs at lr 3e-3) that the activation sequences are clean:
    a barely trained model yields three to five times the proposals,
    and how many then varies with the corpus, which would make the
    timed work depend on the seed more than on the code.
    """

    name = "eval-long"
    setup_reps = 3
    ops_per_run = 1

    def __init__(self, seed):
        self.cfg = runner.config_from_dict({
            "corpus": {"seed": seed, "T": 256, "n_train": 32, "n_test": 200},
            "train": {"epochs": 20, "lr": 3e-3},
        })

    def setup(self):
        train_videos, self.test_videos = runner.generate_corpus(self.cfg.corpus)
        self.params, self.prep_curve = runner.run_training(self.cfg, train_videos)

    def run(self):
        return runner.run_evaluation(self.cfg, self.params, self.test_videos)

    def work(self, out):
        return len(self.test_videos)

    def results(self, out):
        return [("evaluation pass", out.to_json())]

    def check(self, out):
        return [("evaluation pass", p) for p in _report_problems(out)]

    def summary(self, out):
        return {
            "map_0.5": {"value": out.map[0.5], "unit": "mAP"},
            "avg_map": {"value": out.avg_map, "unit": "mAP"},
            "kl": {"value": next(iter(out.kl.values())), "unit": "nats"},
            "prep_final_loss": {"value": self.prep_curve[-1][1], "unit": "loss"},
        }

    def speed(self, rate, wall):
        return {"eval_videos_per_s": {"value": rate, "unit": "1/s"}}


# The repeat of the sparse cell resolves to the same config as "sparse",
# so run_ablation must serve it from its cell cache without training.
ABLATION_MATRIX = {"tables": {"mix": [
    {"name": "sparse"},
    {"name": "dense", "overrides": {"graph": {"mode": "dense"}}},
    {"name": "mlp", "overrides": {"graph": {"mode": "mlp"}}},
    {"name": "xe", "overrides": {"loss": {"loss_kind": "xe"}}},
    {"name": "sparse_repeat"},
]}}
_CELLS = [cell["name"] for cell in ABLATION_MATRIX["tables"]["mix"]]


class AblateMix:
    """run_ablation over sparse, dense, mlp, xe and a cached sparse repeat.

    Default corpus, 3 epochs per cell. Set-up generates the corpus that
    run_ablation regenerates inside the op, so corpus generation shows
    in setup_s here as on the other workloads.
    """

    name = "ablate-mix"
    setup_reps = 5
    ops_per_run = len(_CELLS)

    def __init__(self, seed, out_dir):
        self.cfg = runner.config_from_dict({
            "corpus": {"seed": seed},
            "train": {"epochs": 3},
        })
        self.out_dir = out_dir

    def setup(self):
        self.train_videos, self.test_videos = runner.generate_corpus(self.cfg.corpus)

    def run(self):
        log = []
        tables = runner.run_ablation(self.cfg, ABLATION_MATRIX, self.out_dir,
                                     log=log.append)
        trained = [line.split("/", 1)[1].split("]", 1)[0] for line in log
                   if line.endswith("training")]
        return tables["mix"], trained

    def work(self, out):
        per_cell = len(self.train_videos) * self.cfg.train.epochs + len(self.test_videos)
        return per_cell * len(out[1])

    def results(self, out):
        rows, _ = out
        return [(row["name"], json.dumps(row, sort_keys=True)) for row in rows]

    def check(self, out):
        rows, trained = out
        problems = []
        if [row["name"] for row in rows] != _CELLS:
            problems.append(("matrix", "rows do not match the matrix cells"))
        by_name = {row["name"]: row for row in rows}
        for row in rows:
            name = row["name"]
            if row["error"]:
                problems.append((name, f"error: {row['error']}"))
                continue
            for key, value in row.items():
                if key.startswith("map_") or key == "avg_map":
                    if not (_finite(value) and 0.0 <= value <= 1.0):
                        problems.append((name, f"{key} = {value!r} outside [0, 1]"))
            if not (_finite(row["kl"]) and row["kl"] >= 0.0):
                problems.append((name, f"kl = {row['kl']!r} not finite and >= 0"))
        repeat = by_name.get("sparse_repeat")
        if "sparse_repeat" in trained:
            problems.append(("sparse_repeat", "trained again, not served from the cache"))
        elif repeat is not None and "sparse" in by_name and \
                dict(repeat, name="sparse") != by_name["sparse"]:
            problems.append(("sparse_repeat", "row differs from the sparse cell"))
        return problems

    def summary(self, out):
        rows, trained = out
        named = {f"{row['name']}.map_0.5": {"value": row.get("map_0.5"), "unit": "mAP"}
                 for row in rows}
        named["cells_trained"] = {"value": len(trained), "unit": "count"}
        return named

    def speed(self, rate, wall):
        return {"ablate_wall_s": {"value": wall, "unit": "s"}}
