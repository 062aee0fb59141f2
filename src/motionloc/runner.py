"""Experiment orchestration: config plumbing, training, evaluation, ablation.

A full experiment is one JSON-serializable config tree: corpus spec,
graph/model/loss settings, optimizer schedule, inference thresholds.
A training or evaluation run takes videos of one clip length. Training
iterates shuffled mini-batches, runs each on as few batched tapes as
TAPE_SNIPPETS allows, accumulates gradients in video order,
and takes one Adam step per batch. The ablation driver reruns the
pipeline over named config deltas and writes one CSV per table, caching
cells whose resolved configs coincide. Each distinct cell generates its
corpus, trains and runs its evaluation forwards in a worker process; the
parent localizes and scores what the workers return, and holds no corpus.
"""

import csv
import dataclasses
import functools
import json
import math
import os
import typing
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numcore as nc
from .datagen import CorpusSpec, generate_corpus
from .localization import InferenceConfig, localize_video
from .metrics import kl_guidance, map_at
from .motiongraph import (GraphConfig, build_graph, pack_adjacency,
                          unpack_adjacency)
from .network import (ModelConfig, full_forward, guidance_features,
                      init_params, save_params)
from .objective import LossConfig, per_video_loss

OUT_ROOT_ENV = "MOTIONLOC_OUT_ROOT"

# Most snippets (videos x T) one training tape or evaluation run covers.
# A tape's memory grows with it; 512 comes from a perfbench sizing of
# speed against peak RSS (README "Performance").
TAPE_SNIPPETS = 512


class ConfigError(ValueError):
    """A config file or override does not fit the schema."""


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or similar)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: CorpusSpec = CorpusSpec()
    graph: GraphConfig = GraphConfig()
    model: ModelConfig = ModelConfig()
    loss: LossConfig = LossConfig()
    train: TrainConfig = TrainConfig()
    inference: InferenceConfig = InferenceConfig()
    eval_iou: tuple = (0.3, 0.4, 0.5, 0.6, 0.7)
    out_dir: str = "runs/default"

    # as in each section, a value out of range fails construction and replace
    def __post_init__(self):
        ious = list(self.eval_iou)
        if not ious or any(not 0.0 < t <= 1.0 for t in ious):
            raise ValueError("eval_iou must be non-empty with values in (0,1]")


def _fits(value, want):
    # JSON has one number type: an int may stand for a float, never a bool;
    # NaN and the infinities stand for no setting
    if isinstance(value, bool):
        return want is bool
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, (int, float) if want is float else want)


def _typed(value, want, where):
    """A config value checked against its field annotation; lists become tuples."""
    if want is tuple:
        if isinstance(value, (list, tuple)) and all(_fits(v, float) for v in value):
            return tuple(value)
    elif _fits(value, want):
        return value
    expected = {tuple: "a list of finite numbers",
                float: "a finite number"}.get(want, want.__name__)
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def _merge_section(cls, current, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    values = {key: _typed(value, hints[key], f"{where}.{key}")
              for key, value in data.items()}
    try:
        return dataclasses.replace(current, **values)
    except ValueError as e:
        raise ConfigError(f"{where}.{e}") from e


def config_from_dict(data, base=None):
    """ExperimentConfig from a (possibly partial) nested dict of overrides."""
    cfg = base if base is not None else ExperimentConfig()
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    hints = typing.get_type_hints(ExperimentConfig)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    values = {key: (_merge_section(hints[key], getattr(cfg, key), value, key)
                    if dataclasses.is_dataclass(hints[key])
                    else _typed(value, hints[key], key))
              for key, value in data.items()}
    try:
        return dataclasses.replace(cfg, **values)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def read_json(path):
    """The JSON value in a file; invalid JSON is a ConfigError that names
    the file and the line."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e


def load_config(path, base=None):
    return config_from_dict(read_json(path), base=base)


def resolve_out(path):
    """Output path, optionally re-rooted by the MOTIONLOC_OUT_ROOT env var."""
    p = Path(path)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


def _batches(order, size):
    for i in range(0, len(order), size):
        yield order[i:i + size]


def _videos_per_tape(videos):
    """Videos per training tape or evaluation run: as many as
    TAPE_SNIPPETS holds, at least one. All videos of a run share one
    clip length; ShapeMismatchError names the lengths otherwise."""
    lengths = sorted({v.T for v in videos})
    if len(lengths) > 1:
        raise nc.ShapeMismatchError(
            f"videos of one clip length expected, got T = {lengths}")
    return max(1, TAPE_SNIPPETS // lengths[0]) if lengths else 1


def _adjacency(cfg, params, videos):
    """The B x T x T adjacency stack of a run of videos, None in mlp mode:
    one build_graph call on their stacked guidance features."""
    feats = np.stack([guidance_features(v, cfg.model) for v in videos])
    return build_graph(feats, params.W1, params.W2, cfg.graph).adjacency


def run_training(cfg, train_videos, log=None):
    """Optimize fresh parameters on the given videos; returns (params, curve).

    The curve holds one (epoch, mean per-video loss) pair per epoch.
    The graphs are built once up front, in corpus order and in runs as
    evaluation builds them, and each video's is kept packed
    (motiongraph.pack_adjacency); each tape unpacks its videos' graphs
    into one stack buffer that the whole run reuses. An mlp run keeps
    no graphs. Gradients accumulate over each shuffled mini-batch, tape
    by tape in video order, into Adam's flat gradient vector, which is
    scaled by 1/|batch| and spent by a single Adam step. The result is
    bit for bit that of one tape per video.
    """
    per_tape = _videos_per_tape(train_videos)
    mcfg = cfg.model
    params = init_params(cfg.corpus.d, cfg.corpus.C, mcfg, cfg.train.seed)
    packed = stack = None
    if cfg.graph.mode != "mlp" and train_videos:
        packed = [pack_adjacency(A) for run in _batches(train_videos, per_tape)
                  for A in _adjacency(cfg, params, run)]
        T = train_videos[0].T
        stack = np.empty((min(per_tape, cfg.train.batch_size), T, T))
    state = nc.adam_init(params.trainable(), lr=cfg.train.lr)
    shuffle = nc.split_rng(cfg.train.seed, 100)
    curve = []
    for epoch in range(cfg.train.epochs):
        order = shuffle.permutation(len(train_videos))
        epoch_losses = []
        for batch in _batches(order, cfg.train.batch_size):
            for tape in _batches(batch, per_tape):
                videos = [train_videos[i] for i in tape]
                # the tape's propagate nodes hold this view until its
                # backward pass, which ends before the next tape refills it
                graphs = None if stack is None else unpack_adjacency(
                    [packed[i] for i in tape], stack[:len(tape)])
                out = full_forward(videos, graphs, params, mcfg)
                loss, _ = per_video_loss(out, np.stack([v.label for v in videos]),
                                         cfg.loss)
                values = loss.value.reshape(-1).tolist()
                for video, value in zip(videos, values):
                    if not math.isfinite(value):
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch} on video {video.id}")
                nc.backward(loss)
                epoch_losses.extend(values)
            state.grad /= len(batch)
            nc.adam_step(state)
        curve.append((epoch, float(np.mean(epoch_losses))))
        if log and (epoch + 1) % 25 == 0:
            log(f"epoch {epoch + 1}/{cfg.train.epochs} "
                f"loss {curve[-1][1]:.4f}")
    return params, curve


def run_evaluation(cfg, params, videos):
    """Inference + mAP + mean per-video KL for one parameter set: the
    forwards of _activations, then one _report over their TCAS stack.
    The report is bit for bit that of one video at a time."""
    return _report(cfg, *_activations(cfg, params, videos))


def _activations(cfg, params, videos):
    """What _report scores: the videos' (id, gt_intervals) pairs, N x T x C
    TCAS stack and mean per-video KL.

    The videos, at least one, share one clip length. They are taken in
    order, in runs that TAPE_SNIPPETS bounds as in training; each run
    gets one graph build and one forward, whose TCAS fills its rows of
    the stack.
    """
    if not videos:
        raise nc.DomainError("evaluation needs at least one video")
    per_run = _videos_per_tape(videos)
    tcas = None
    kls = []
    for start in range(0, len(videos), per_run):
        run = videos[start:start + per_run]
        out = full_forward(run, _adjacency(cfg, params, run), params, cfg.model)
        if tcas is None:
            tcas = np.empty((len(videos),) + out.tcas.value.shape[1:])
        tcas[start:start + len(run)] = out.tcas.value
        for video, motionness in zip(run, out.motionness.value):
            kls.append(kl_guidance(motionness, video.gt_mask()))
    return [(v.id, v.gt_intervals) for v in videos], tcas, float(np.mean(kls))


def _report(cfg, truth, tcas, kl):
    """EvalReport of a TCAS stack, localized in one call and scored against
    truth, each video's (id, gt_intervals) in stack order; kl is their mean."""
    gt_by_class = defaultdict(lambda: defaultdict(list))
    for vid, intervals in truth:
        for s, e, c in intervals:
            gt_by_class[c][vid].append((s, e))
    dets = localize_video(tcas, cfg.loss.r, cfg.inference)
    gt = {c: dict(v) for c, v in gt_by_class.items()}
    report = map_at(dets, [vid for vid, _ in truth], gt, cfg.eval_iou)
    report.kl[cfg.model.guidance_stream] = kl
    return report


def write_loss_curve(path, curve):
    lines = ["epoch,mean_loss"]
    lines += [f"{epoch},{value!r}" for epoch, value in curve]
    Path(path).write_text("\n".join(lines) + "\n")


def train_experiment(cfg, log=None):
    """Generate the corpus, train, and write checkpoint + loss curve."""
    out = resolve_out(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_videos, _ = generate_corpus(cfg.corpus)
    params, curve = run_training(cfg, train_videos, log=log)
    write_loss_curve(out / "loss_curve.csv", curve)
    save_params(out / "checkpoint", params)
    (out / "config.json").write_text(
        json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
    return params, curve, out


def evaluate_params(cfg, params, out=None):
    """Evaluate on the config's test split; optionally write report files."""
    _, test_videos = generate_corpus(cfg.corpus)
    report = run_evaluation(cfg, params, test_videos)
    if out is not None:
        out = resolve_out(out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json())
        report.write_csv(out / "report.csv")
    return report


# ---------------------------------------------------------------------------
# ablation matrices


def default_ablation_matrix():
    """The two comparison tables: loss variants and graph variants."""
    return {
        "tables": {
            "loss": [
                {"name": "motion_guided"},
                {"name": "appearance_guided",
                 "overrides": {"model": {"guidance_stream": "appearance"}}},
                {"name": "two_stream_guided",
                 "overrides": {"model": {"guidance_stream": "both"}}},
                {"name": "xe",
                 "overrides": {"loss": {"loss_kind": "xe"}}},
                {"name": "no_regularizer",
                 "overrides": {"loss": {"regularizer_mask": "none"}}},
            ],
            "graph": [
                {"name": "sparse_all_edges"},
                {"name": "dense",
                 "overrides": {"graph": {"mode": "dense"}}},
                {"name": "mlp",
                 "overrides": {"graph": {"mode": "mlp"}}},
                {"name": "no_positional",
                 "overrides": {"graph": {"use_positional": False}}},
                {"name": "no_semantic",
                 "overrides": {"graph": {"use_semantic": False}}},
            ],
        }
    }


ABLATION_IOUS = (0.3, 0.4, 0.5, 0.7)


def _cell_key(cfg):
    data = dataclasses.asdict(cfg)
    data.pop("out_dir")
    return json.dumps(data, sort_keys=True)


def _error_text(e):
    return f"{type(e).__name__}: {e}"


@functools.cache
def _corpus(spec):  # once per worker, however many of its cells share it
    return generate_corpus(spec)


def _run_cell(cfg):
    """Pool worker: generate the cell's corpus, train, and return the
    _activations of its test split. The parent scores them, where
    perfbench's tracer counts proposals; an error reaches the parent
    through the cell's future."""
    train_videos, test_videos = _corpus(cfg.corpus)
    return _activations(cfg, run_training(cfg, train_videos)[0], test_videos)


def _ablation_row(name, outcome):
    failed = isinstance(outcome, str)
    row = {"name": name, "error": outcome if failed else ""}
    for t in ABLATION_IOUS:
        row[f"map_{t}"] = None if failed else outcome.map.get(t)
    row["avg_map"] = None if failed else outcome.avg_map
    row["kl"] = None if failed else next(iter(outcome.kl.values()))
    return row


def run_ablation(base_cfg, matrix, out_dir, log=None):
    """Train/evaluate every cell; one CSV per table; cells cached by config.

    The parent checks the matrix and resolves the cells in table order,
    logging a training line per distinct config. Each distinct config
    alone goes to a forked worker, one per CPU this process may use,
    which generates the corpus, trains and returns _activations of the
    test split. The parent localizes and scores each and writes the rows
    in cell order, so the tables are those of a serial run. A cell that
    fails to generate, train or evaluate contributes an error row and the
    matrix continues; a worker that dies ends the run.
    Returns {table: [row dict, ...]}.
    """
    if not isinstance(matrix, dict) or not isinstance(matrix.get("tables"), dict):
        raise ConfigError("ablation matrix needs a 'tables' object")
    # a malformed matrix ends the run before any directory or training line
    for tname, cells in matrix["tables"].items():
        if not isinstance(cells, list):
            raise ConfigError(f"table {tname!r} must be a list of cells")
        for i, cell in enumerate(cells):
            if not (isinstance(cell, dict) and isinstance(cell.get("name"), str)):
                raise ConfigError(f"cell {i} of table {tname!r} must be an "
                                  "object with a string 'name'")
    base = matrix.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError(f"ablation matrix 'base' must be an object, got "
                          f"{type(base).__name__}")
    base = config_from_dict(base, base=base_cfg)
    if not any(matrix["tables"].values()):
        raise ConfigError("ablation matrix has no cells")
    out = resolve_out(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = {}  # cell key -> cfg, in the order cells first need them
    plan = {}  # table -> [(name, cell key, None) or (name, None, error text)]
    for tname, cells in matrix["tables"].items():
        plan[tname] = []
        for cell in cells:
            name = cell["name"]
            try:
                cfg = config_from_dict(cell.get("overrides", {}), base=base)
                key = _cell_key(cfg)
                if key not in jobs:
                    jobs[key] = cfg
                    if log:
                        log(f"[{tname}/{name}] training")
                plan[tname].append((name, key, None))
            except Exception as e:  # isolate the cell, keep the matrix alive
                plan[tname].append((name, None, _error_text(e)))
    # imported here: the pool's modules add 2 MB of RSS to every process
    # that imports runner, and only an ablation uses them
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    # fork: workers inherit the program as loaded, where spawn and
    # forkserver would re-import the caller's __main__
    workers = min(len(os.sched_getaffinity(0)), len(jobs)) or 1
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        forwards = {key: pool.submit(_run_cell, cfg) for key, cfg in jobs.items()}
        outcomes = {}
        results = {}
        for tname, planned in plan.items():
            rows = []
            for name, key, error in planned:
                if key is not None and key not in outcomes:
                    try:
                        outcomes[key] = _report(jobs[key], *forwards[key].result())
                    except BrokenExecutor:
                        raise  # a dead worker is no cell's error
                    except Exception as e:  # the cell's row reports it
                        outcomes[key] = _error_text(e)
                rows.append(_ablation_row(name, error or outcomes[key]))
            results[tname] = rows
            _write_ablation_csv(out / f"ablation_{tname}.csv", rows)
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def _write_ablation_csv(path, rows):
    cols = ["name"] + [f"map_{t}" for t in ABLATION_IOUS] + \
        ["avg_map", "kl", "error"]
    # csv writes None as an empty cell and a float as its repr, and
    # quotes a cell (an error text) that holds a comma
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([row.get(col) for col in cols] for row in rows)
