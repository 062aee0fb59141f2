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

    def validate(self):
        if not 0.0 <= self.theta_c <= 1.0:
            raise ValueError(f"theta_c must be in [0,1], got {self.theta_c}")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must be in [0,1], got {self.nms_iou}")
        ts = list(self.theta_a_list)
        if not ts:
            raise ValueError("theta_a_list must be non-empty")
        if any(not 0.0 <= t <= 1.0 for t in ts):
            raise ValueError("theta_a_list values must be in [0,1]")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("theta_a_list must be strictly increasing")


def segment_iou(a, b):
    """IoU matrix of inclusive segments a (n x 2) against b (m x 2), each
    treated as [s, e+1); disjoint pairs score exactly 0."""
    a = np.asarray(a).reshape(-1, 2)[:, None, :]
    b = np.asarray(b).reshape(-1, 2)[None, :, :]
    inter = np.minimum(a[..., 1], b[..., 1]) + 1 - np.maximum(a[..., 0], b[..., 0])
    union = (a[..., 1] + 1 - a[..., 0]) + (b[..., 1] + 1 - b[..., 0]) - inter
    return np.where(inter > 0, inter / union, 0.0)


def classify_video(tcas, r, theta_c):
    """Classes whose softmax top-k video score clears theta_c (argmax fallback).

    The video score is the one training optimizes (objective.aggregate_topk).
    """
    p = aggregate_topk(constant(tcas), r).probs.value[0]
    chosen = [c for c in range(p.size) if p[c] > theta_c]
    return chosen or [int(np.argmax(p))]


def _runs(masks):
    """Maximal [start, end] runs of True entries in each row of a 2-D mask
    (a 1-D mask is one row): start and end arrays in row-major order."""
    masks = np.atleast_2d(masks)
    padded = np.zeros((masks.shape[0], masks.shape[1] + 2), dtype=bool)
    padded[:, 1:-1] = masks
    edges = np.nonzero(padded[:, 1:] != padded[:, :-1])[1]
    return edges[::2], edges[1::2] - 1


def generate_proposals(scores, theta_a_list, cls):
    """Sweep the min-max normalized class column into deduplicated proposals.

    All thresholds are swept in one mask; the union of their runs comes
    out ordered by (start, end). Confidence is the mean of the raw
    (pre-normalization) scores inside the segment, so it stays comparable
    across classes.
    """
    raw = np.asarray(scores, dtype=np.float64).reshape(-1)
    lo, hi = raw.min(), raw.max()
    norm = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)
    T = raw.size
    starts, ends = _runs(norm > np.asarray(theta_a_list, dtype=np.float64)[:, None])
    # ends < T, so start * T + end orders and identifies a segment
    starts, ends = np.divmod(np.unique(starts * T + ends), T)
    # a contiguous sum over n entries, divided by n, is ndarray.mean bit for bit
    return [Proposal(s, e, cls, float(np.add.reduce(raw[s:e + 1]) / (e + 1 - s)))
            for s, e in zip(starts.tolist(), ends.tolist())]


def nms(proposals, iou_threshold):
    """Greedy suppression by descending confidence; ties keep the earlier start."""
    pending = sorted(proposals,
                     key=lambda p: (-p.confidence, p.start, p.end, p.cls))
    segments = [p.segment() for p in pending]
    clash = segment_iou(segments, segments) > iou_threshold
    alive = np.ones(len(pending), dtype=bool)
    kept = []
    for i, cand in enumerate(pending):
        if alive[i]:
            kept.append(cand)
            alive &= ~clash[i]
    return kept


def localize_video(tcas, r, cfg):
    """Full per-video inference: classify, sweep, suppress; sorted output.

    cfg is assumed validated.
    """
    scores = as_matrix(tcas, "tcas")
    out = []
    for c in classify_video(scores, r, cfg.theta_c):
        props = generate_proposals(scores[:, c], cfg.theta_a_list, c)
        out.extend(nms(props, cfg.nms_iou))
    return sorted(out, key=lambda p: (p.cls, p.start, p.end))
