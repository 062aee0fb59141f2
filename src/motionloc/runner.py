"""Experiment orchestration: config plumbing, training, evaluation, ablation.

A full experiment is one JSON-serializable config tree: corpus spec,
graph/model/loss settings, optimizer schedule, inference thresholds.
Training iterates shuffled mini-batches, runs each on as few batched
tapes as TAPE_SNIPPETS allows, accumulates gradients in video order,
and takes one Adam step per batch. The ablation driver reruns the
pipeline over named config deltas and writes one CSV per table, caching
cells whose resolved configs coincide and training the distinct cells
in worker processes.
"""

import dataclasses
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
from .localization import Detections, InferenceConfig, localize_video
from .metrics import kl_guidance, map_at
from .motiongraph import GraphConfig, build_graph
from .network import (ModelConfig, full_forward, guidance_features,
                      init_params, save_params)
from .objective import LossConfig, per_video_loss

OUT_ROOT_ENV = "MOTIONLOC_OUT_ROOT"

# Most snippets (videos x T) one training tape covers; tape memory grows
# with it. perfbench peak RSS on a 2-vCPU VM, one video per tape -> 512
# snippets -> one tape per 16-video batch: train-short (T=64) 48.3 ->
# 50.4 -> 52.8 MB, eval-long (its set-up trains at T=256) 72.9 -> 73.9
# -> 88.3 MB. At 512, train-short kept 86% of the whole-batch speed.
# With per-tape gradient sums and a flat Adam buffer, 1024 gave about 9%
# more train-short, but peak RSS rose from 50.4 to 52.7 MB on
# train-short, 54.6 to 57.3 on ablate-mix and 73.5 to 75.5 on eval-long.
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

    def validate(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


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

    def validate(self):
        # each section's message starts with its key; name the section too
        for name in _SECTIONS:
            try:
                getattr(self, name).validate()
            except ValueError as e:
                raise ValueError(f"{name}.{e}") from e
        ious = list(self.eval_iou)
        if not ious or any(not 0.0 < t <= 1.0 for t in ious):
            raise ValueError("eval_iou must be non-empty with values in (0,1]")


_SECTIONS = {
    "corpus": CorpusSpec, "graph": GraphConfig, "model": ModelConfig,
    "loss": LossConfig, "train": TrainConfig, "inference": InferenceConfig,
}


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
    return dataclasses.replace(current, **{
        key: _typed(value, hints[key], f"{where}.{key}")
        for key, value in data.items()})


def config_from_dict(data, base=None):
    """ExperimentConfig from a (possibly partial) nested dict of overrides."""
    cfg = base if base is not None else ExperimentConfig()
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    hints = typing.get_type_hints(ExperimentConfig)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    merged = dataclasses.replace(cfg, **{
        key: (_merge_section(hints[key], getattr(cfg, key), value, key)
              if key in _SECTIONS else _typed(value, hints[key], key))
        for key, value in data.items()})
    try:
        merged.validate()
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return merged


def load_config(path, base=None):
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    return config_from_dict(data, base=base)


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


def _tapes(videos, batch):
    """Split a batch, in order, into runs of equal-length videos that
    together hold at most TAPE_SNIPPETS snippets (or one longer video)."""
    run = []
    for i in map(int, batch):
        T = videos[i].T
        if run and (T != videos[run[0]].T or (len(run) + 1) * T > TAPE_SNIPPETS):
            yield run
            run = []
        run.append(i)
    if run:
        yield run


def run_training(cfg, train_videos, log=None):
    """Optimize fresh parameters on the given videos; returns (params, curve).

    The curve holds one (epoch, mean per-video loss) pair per epoch.
    Each video's adjacency is built once up front, and each tape gets
    the stack of its videos' graphs. Gradients accumulate over each
    shuffled mini-batch, tape by tape in video order, into Adam's flat
    gradient vector, which is scaled by 1/|batch| and spent by a single
    Adam step. The result is bit for bit that of one tape per video.
    """
    cfg.graph.validate()
    mcfg = cfg.model
    params = init_params(cfg.corpus.d, cfg.corpus.C, mcfg, cfg.train.seed)
    adjacency = [build_graph(guidance_features(v, mcfg), params.W1, params.W2,
                             cfg.graph).adjacency for v in train_videos]
    propagated = cfg.graph.mode != "mlp"
    state = nc.adam_init(params.trainable(), lr=cfg.train.lr)
    shuffle = nc.split_rng(cfg.train.seed, 100)
    curve = []
    for epoch in range(cfg.train.epochs):
        order = shuffle.permutation(len(train_videos))
        epoch_losses = []
        for batch in _batches(order, cfg.train.batch_size):
            for tape in _tapes(train_videos, batch):
                videos = [train_videos[i] for i in tape]
                graphs = np.stack([adjacency[i] for i in tape]) if propagated else None
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
    """Inference + mAP + mean per-video KL for one parameter set.

    Videos are taken in order, in runs of equal length that TAPE_SNIPPETS
    bounds as in training; each run gets one graph build and one forward.
    Localization then runs once per clip length over the whole split.
    The report is bit for bit that of one video at a time.
    """
    cfg.graph.validate()
    cfg.inference.validate()
    mcfg = cfg.model
    tcas_by_T = defaultdict(list)
    index_by_T = defaultdict(list)
    gt_by_class = defaultdict(lambda: defaultdict(list))
    kls = []
    for run in _tapes(videos, range(len(videos))):
        batch = [videos[i] for i in run]
        graph = build_graph(np.stack([guidance_features(v, mcfg) for v in batch]),
                            params.W1, params.W2, cfg.graph)
        out = full_forward(batch, graph.adjacency, params, mcfg)
        tcas_by_T[batch[0].T].append(out.tcas.value)
        index_by_T[batch[0].T].extend(run)
        for video, motionness in zip(batch, out.motionness.value):
            kls.append(kl_guidance(motionness, video.gt_mask()))
            for s, e, c in video.gt_intervals:
                gt_by_class[c][video.id].append((s, e))
    parts = []
    for T, stacks in tcas_by_T.items():
        dets = localize_video(np.concatenate(stacks), cfg.loss.r, cfg.inference)
        index = np.asarray(index_by_T[T])
        parts.append(dataclasses.replace(dets, video=index[dets.video]))
    gt = {c: dict(v) for c, v in gt_by_class.items()}
    report = map_at(Detections.concat(parts), [v.id for v in videos], gt,
                    cfg.eval_iou)
    report.kl[mcfg.guidance_stream] = float(np.mean(kls))
    return report


def write_loss_curve(path, curve):
    lines = ["epoch,mean_loss"]
    lines += [f"{epoch},{value!r}" for epoch, value in curve]
    Path(path).write_text("\n".join(lines) + "\n")


def train_experiment(cfg, log=None):
    """Generate the corpus, train, and write checkpoint + loss curve."""
    cfg.validate()
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


# Set only in a pool worker: the jobs of the ablation that forked it,
# inherited with the process, so no corpus is pickled.
_fork_jobs = None


def _inherit_jobs(jobs):
    global _fork_jobs
    _fork_jobs = jobs


def _train_cell(key):
    """Pool worker: (params, None), or (None, the error text of the cell's row)."""
    cfg, (train_videos, _) = _fork_jobs[key]
    try:
        return run_training(cfg, train_videos)[0], None
    except Exception as e:  # the cell's row reports it; the matrix goes on
        return None, _error_text(e)


def _evaluate_cell(cfg, test_videos, trained):
    """The cell's EvalReport, or the error text of its row."""
    params, error = trained
    if error:
        return error
    try:
        return run_evaluation(cfg, params, test_videos)
    except Exception as e:  # isolate the cell, keep the matrix alive
        return _error_text(e)


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

    The parent resolves the cells in table order and generates each
    corpus once. Each distinct cell then trains in a forked worker, one
    per CPU this process may use, while the parent evaluates and writes
    the rows in cell order, so the tables are those of a serial run.
    A failing cell contributes an error row and the matrix continues.
    Returns {table: [row dict, ...]}.
    """
    out = resolve_out(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "tables" not in matrix or not isinstance(matrix["tables"], dict):
        raise ConfigError("ablation matrix needs a 'tables' object")
    base = config_from_dict(matrix.get("base", {}), base=base_cfg)
    corpora = {}
    jobs = {}  # cell key -> (cfg, corpus), in the order cells first need them
    plan = {}  # table -> [(name, cell key, None) or (name, None, error text)]
    for tname, cells in matrix["tables"].items():
        plan[tname] = []
        for cell in cells:
            if "name" not in cell:
                raise ConfigError(f"cell in table {tname!r} lacks a name")
            name = cell["name"]
            try:
                cfg = config_from_dict(cell.get("overrides", {}), base=base)
                key = _cell_key(cfg)
                if key not in jobs:
                    ckey = json.dumps(dataclasses.asdict(cfg.corpus),
                                      sort_keys=True)
                    if ckey not in corpora:
                        corpora[ckey] = generate_corpus(cfg.corpus)
                    jobs[key] = (cfg, corpora[ckey])
                    if log:
                        log(f"[{tname}/{name}] training")
                plan[tname].append((name, key, None))
            except Exception as e:  # isolate the cell, keep the matrix alive
                plan[tname].append((name, None, _error_text(e)))
    # imported here: the pool's modules add 2 MB of RSS to every process
    # that imports runner, and only an ablation uses them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: workers inherit the program and the corpora as loaded, where
    # spawn and forkserver would re-import the caller's __main__
    workers = min(len(os.sched_getaffinity(0)), len(jobs)) or 1
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherit_jobs, initargs=(jobs,))
    try:
        trained = {key: pool.submit(_train_cell, key) for key in jobs}
        outcomes = {}
        results = {}
        for tname, planned in plan.items():
            rows = []
            for name, key, error in planned:
                if key is not None and key not in outcomes:
                    cfg, (_, test_videos) = jobs[key]
                    outcomes[key] = _evaluate_cell(cfg, test_videos,
                                                   trained[key].result())
                rows.append(_ablation_row(name, error or outcomes[key]))
            results[tname] = rows
            _write_ablation_csv(out / f"ablation_{tname}.csv", rows)
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def _write_ablation_csv(path, rows):
    cols = ["name"] + [f"map_{t}" for t in ABLATION_IOUS] + \
        ["avg_map", "kl", "error"]
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            v = row.get(col)
            cells.append("" if v is None else
                         (v if isinstance(v, str) else repr(v)))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
