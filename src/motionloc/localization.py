"""Inference: video-level classification, thresholded runs, NMS.

Scores arrive as a plain T x C array (no gradients at test time). Each
predicted class's column is min-max normalized, swept over a threshold
grid, and maximal above-threshold runs become proposals scored by the
mean raw column value inside them.
"""

from dataclasses import dataclass

import numpy as np

from .numcore import as_matrix, constant
from .objective import aggregate_topk

DEFAULT_THETA_A = tuple(round(0.025 * i, 3) for i in range(11))  # 0 .. 0.25


@dataclass(frozen=True)
class Proposal:
    start: int   # inclusive snippet indices
    end: int
    cls: int
    confidence: float

    def segment(self):
        return (self.start, self.end)


@dataclass(frozen=True)
class InferenceConfig:
    theta_c: float = 0.2
    theta_a_list: tuple = DEFAULT_THETA_A
    nms_iou: float = 0.7
    normalize_tcas: bool = True

    def validate(self):
        if not 0.0 <= self.theta_c <= 1.0:
            raise ValueError(f"theta_c must be in [0,1], got {self.theta_c}")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must be in [0,1], got {self.nms_iou}")
        ts = list(self.theta_a_list)
        if not ts:
            raise ValueError("theta_a_list must be non-empty")
        if any(not 0.0 <= t <= 1.0 for t in ts):
            raise ValueError("theta_a values must be in [0,1]")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("theta_a_list must be strictly increasing")


def iou(a, b):
    """Temporal IoU of two inclusive segments, treated as [s, e+1)."""
    inter = min(a[1], b[1]) + 1 - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = (a[1] + 1 - a[0]) + (b[1] + 1 - b[0]) - inter
    return inter / union


def classify_video(tcas, r, theta_c):
    """Classes whose softmax top-k video score clears theta_c (argmax fallback).

    The video score is the one training optimizes (objective.aggregate_topk).
    """
    p = aggregate_topk(constant(tcas), r).probs.value[0]
    chosen = [c for c in range(p.size) if p[c] > theta_c]
    return chosen or [int(np.argmax(p))]


def _runs(mask):
    """Maximal [start, end] runs of True entries."""
    out = []
    start = None
    for t, on in enumerate(mask):
        if on and start is None:
            start = t
        elif not on and start is not None:
            out.append((start, t - 1))
            start = None
    if start is not None:
        out.append((start, len(mask) - 1))
    return out


def generate_proposals(scores, theta_a_list, cls, normalize=True):
    """Threshold-sweep one class column into deduplicated proposals.

    Confidence is the mean of the raw (pre-normalization) scores inside
    the segment, so it stays comparable across classes.
    """
    raw = np.asarray(scores, dtype=np.float64).reshape(-1)
    if normalize:
        lo, hi = raw.min(), raw.max()
        norm = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)
    else:
        norm = raw
    segments = set()
    for theta in theta_a_list:
        segments.update(_runs(norm > theta))
    return sorted(
        (Proposal(s, e, cls, float(raw[s:e + 1].mean())) for s, e in segments),
        key=lambda p: (p.start, p.end))


def nms(proposals, iou_threshold):
    """Greedy suppression by descending confidence; ties keep the earlier start."""
    pending = sorted(proposals,
                     key=lambda p: (-p.confidence, p.start, p.end, p.cls))
    kept = []
    for cand in pending:
        if all(iou(cand.segment(), k.segment()) <= iou_threshold for k in kept):
            kept.append(cand)
    return kept


def localize_video(tcas, r, cfg):
    """Full per-video inference: classify, sweep, suppress; sorted output."""
    cfg.validate()
    scores = as_matrix(tcas, "tcas")
    out = []
    for c in classify_video(scores, r, cfg.theta_c):
        props = generate_proposals(scores[:, c], cfg.theta_a_list, c,
                                   normalize=cfg.normalize_tcas)
        out.extend(nms(props, cfg.nms_iou))
    return sorted(out, key=lambda p: (p.cls, p.start, p.end))
