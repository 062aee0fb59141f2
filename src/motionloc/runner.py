"""Experiment orchestration: config plumbing, training, evaluation, ablation.

A full experiment is one JSON-serializable config tree: corpus spec,
graph/model/loss settings, optimizer schedule, inference thresholds.
Training iterates shuffled mini-batches, runs each on as few batched
tapes as TAPE_SNIPPETS allows, accumulates gradients in video order,
and takes one Adam step per batch. The ablation driver reruns the
pipeline over named config deltas and writes one CSV per table, caching
cells whose resolved configs coincide.
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
from .localization import InferenceConfig, localize_video
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
        self.corpus.validate()
        self.graph.validate()
        self.model.validate()
        self.loss.validate()
        self.train.validate()
        self.inference.validate()
        ious = list(self.eval_iou)
        if not ious or any(not 0.0 < t <= 1.0 for t in ious):
            raise ValueError("eval_iou must be non-empty with values in (0,1]")


_SECTIONS = {
    "corpus": CorpusSpec, "graph": GraphConfig, "model": ModelConfig,
    "loss": LossConfig, "train": TrainConfig, "inference": InferenceConfig,
}


def _fits(value, want):
    # JSON has one number type: an int may stand for a float, never a bool
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, (int, float) if want is float else want)


def _typed(value, want, where):
    """A config value checked against its field annotation; lists become tuples."""
    if want is tuple:
        if isinstance(value, (list, tuple)) and all(_fits(v, float) for v in value):
            return tuple(value)
    elif _fits(value, want):
        return value
    expected = "a list of numbers" if want is tuple else want.__name__
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


def config_to_dict(cfg):
    out = {}
    for name in _SECTIONS:
        section = dataclasses.asdict(getattr(cfg, name))
        for key, value in section.items():
            if isinstance(value, tuple):
                section[key] = list(value)
        out[name] = section
    out["eval_iou"] = list(cfg.eval_iou)
    out["out_dir"] = cfg.out_dir
    return out


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
    Each video's adjacency is built once up front; gradients accumulate
    over each shuffled mini-batch, tape by tape in video order, before a
    single Adam step. The result is bit for bit that of one tape per video.
    """
    mcfg = cfg.model
    params = init_params(cfg.corpus.d, cfg.corpus.C, mcfg, cfg.train.seed)
    adjacency = [build_graph(guidance_features(v, mcfg), params.W1, params.W2,
                             cfg.graph).adjacency for v in train_videos]
    trainable = params.trainable()
    state = nc.adam_init(trainable, lr=cfg.train.lr)
    shuffle = nc.split_rng(cfg.train.seed, 100)
    curve = []
    for epoch in range(cfg.train.epochs):
        order = shuffle.permutation(len(train_videos))
        epoch_losses = []
        for batch in _batches(order, cfg.train.batch_size):
            nc.zero_grads(trainable)
            for tape in _tapes(train_videos, batch):
                videos = [train_videos[i] for i in tape]
                out = full_forward(videos, [adjacency[i] for i in tape],
                                   params, mcfg)
                loss, _ = per_video_loss(out, np.stack([v.label for v in videos]),
                                         cfg.loss)
                values = loss.value.reshape(-1).tolist()
                for video, value in zip(videos, values):
                    if not math.isfinite(value):
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch} on video {video.id}")
                nc.backward(loss)
                epoch_losses.extend(values)
            grads = [p.grad / len(batch) for p in trainable]
            nc.adam_step(trainable, grads, state)
        curve.append((epoch, float(np.mean(epoch_losses))))
        if log and (epoch + 1) % 25 == 0:
            log(f"epoch {epoch + 1}/{cfg.train.epochs} "
                f"loss {curve[-1][1]:.4f}")
    return params, curve


def run_evaluation(cfg, params, videos):
    """Inference + mAP + mean per-video KL for one parameter set."""
    mcfg = cfg.model
    dets_by_class = defaultdict(list)
    gt_by_class = defaultdict(lambda: defaultdict(list))
    kls = []
    for video in videos:
        graph = build_graph(guidance_features(video, mcfg), params.W1,
                            params.W2, cfg.graph)
        out = full_forward([video], [graph.adjacency], params, mcfg)
        for prop in localize_video(out.tcas.value[0], cfg.loss.r, cfg.inference):
            dets_by_class[prop.cls].append((video.id, prop))
        kls.append(kl_guidance(out.motionness.value[0], video.gt_mask()))
        for s, e, c in video.gt_intervals:
            gt_by_class[c][video.id].append((s, e))
    gt = {c: dict(v) for c, v in gt_by_class.items()}
    report = map_at(dict(dets_by_class), gt, cfg.eval_iou)
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
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
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
    data = config_to_dict(cfg)
    data.pop("out_dir")
    return json.dumps(data, sort_keys=True)


def run_ablation(base_cfg, matrix, out_dir, log=None):
    """Train/evaluate every cell; one CSV per table; cells cached by config.

    A failing cell contributes an error row and the matrix continues.
    Returns {table: [row dict, ...]}.
    """
    out = resolve_out(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "tables" not in matrix or not isinstance(matrix["tables"], dict):
        raise ConfigError("ablation matrix needs a 'tables' object")
    base = config_from_dict(matrix.get("base", {}), base=base_cfg)
    cache = {}
    corpora = {}
    results = {}
    for tname, cells in matrix["tables"].items():
        rows = []
        for cell in cells:
            if "name" not in cell:
                raise ConfigError(f"cell in table {tname!r} lacks a name")
            name = cell["name"]
            row = {"name": name, "error": ""}
            try:
                cfg = config_from_dict(cell.get("overrides", {}), base=base)
                key = _cell_key(cfg)
                if key not in cache:
                    ckey = json.dumps(dataclasses.asdict(cfg.corpus),
                                      sort_keys=True)
                    if ckey not in corpora:
                        corpora[ckey] = generate_corpus(cfg.corpus)
                    train_videos, test_videos = corpora[ckey]
                    if log:
                        log(f"[{tname}/{name}] training")
                    params, _ = run_training(cfg, train_videos)
                    cache[key] = run_evaluation(cfg, params, test_videos)
                report = cache[key]
                for t in ABLATION_IOUS:
                    row[f"map_{t}"] = report.map.get(t)
                row["avg_map"] = report.avg_map
                row["kl"] = next(iter(report.kl.values()))
            except Exception as e:  # isolate the cell, keep the matrix alive
                row["error"] = f"{type(e).__name__}: {e}"
                for t in ABLATION_IOUS:
                    row[f"map_{t}"] = None
                row["avg_map"] = None
                row["kl"] = None
            rows.append(row)
        results[tname] = rows
        _write_ablation_csv(out / f"ablation_{tname}.csv", rows)
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
