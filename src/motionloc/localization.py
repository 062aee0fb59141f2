"""Inference: video-level classification, thresholded runs, NMS.

Scores arrive as an N x T x C stack of videos of one length (no
gradients at test time). Each predicted (video, class) column is
min-max normalized, swept over a threshold grid, and maximal
above-threshold runs become proposals scored by the mean raw column
value inside them. Detections travel as one set of arrays throughout.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .numcore import ShapeMismatchError, as_matrix, constant
from .objective import aggregate_topk

DEFAULT_THETA_A = tuple(round(0.025 * i, 3) for i in range(11))  # 0 .. 0.25


@dataclass(frozen=True, eq=False)
class Detections:
    """Equal-length 1-D arrays, one entry per detected segment."""

    video: np.ndarray       # index into the stack of evaluated videos
    cls: np.ndarray
    start: np.ndarray       # inclusive snippet indices
    end: np.ndarray
    confidence: np.ndarray

    def __post_init__(self):
        for f in dataclasses.fields(self):
            dtype = np.float64 if f.name == "confidence" else np.int64
            object.__setattr__(self, f.name,
                               np.asarray(getattr(self, f.name), dtype=dtype))

    def __len__(self):
        return self.confidence.size

    def take(self, index):
        """The detections at an index array or boolean mask, in its order."""
        return Detections(*(getattr(self, f.name)[index]
                            for f in dataclasses.fields(self)))


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


def segment_iou(a_start, a_end, b_start, b_end):
    """IoU of inclusive segments a and b, each treated as [s, e+1), with
    the four index arrays broadcast against each other; disjoint pairs
    score exactly 0. Column vectors of a against row vectors of b give
    the n x m matrix."""
    inter = np.minimum(a_end + 1, b_end + 1) - np.maximum(a_start, b_start)
    union = (a_end + 1 - a_start) + (b_end + 1 - b_start) - inter
    return np.where(inter > 0, inter / union, 0.0)


def _runs(masks):
    """Maximal [start, end] runs of True entries in each row of a 2-D mask
    (a 1-D mask is one row): row, start and end arrays in row-major order."""
    masks = np.atleast_2d(masks)
    padded = np.zeros((masks.shape[0], masks.shape[1] + 2), dtype=bool)
    padded[:, 1:-1] = masks
    rows, edges = np.nonzero(padded[:, 1:] != padded[:, :-1])
    return rows[::2], edges[::2], edges[1::2] - 1


def generate_proposals(columns, theta_a_list, video, cls):
    """Sweep each min-max normalized column of a P x T block into
    deduplicated proposals; column p belongs to (video[p], cls[p]).

    All columns and thresholds are swept in one mask; the union of their
    runs comes out ordered by (column, start, end). Confidence is the mean
    of the raw (pre-normalization) scores inside the segment, so it stays
    comparable across classes.
    """
    raw = np.asarray(columns, dtype=np.float64)
    T = raw.shape[1]
    lo = raw.min(axis=1, keepdims=True)
    span = raw.max(axis=1, keepdims=True) - lo
    norm = np.divide(raw - lo, span, out=np.zeros_like(raw), where=span > 0)
    thetas = np.asarray(theta_a_list, dtype=np.float64)
    rows, starts, ends = _runs((norm[:, None, :] > thetas[:, None]).reshape(-1, T))
    # ends < T, so (column * T + start) * T + end orders and identifies a segment
    key = np.unique((rows // thetas.size * T + starts) * T + ends)
    column, start, end = key // (T * T), key // T % T, key % T
    # a contiguous sum over n entries, divided by n, is ndarray.mean bit for
    # bit; add.reduceat sums differently, so reduce the windows of each
    # length n as the rows of one contiguous K x n block
    length = end + 1 - start
    by_length = np.argsort(length, kind="stable")
    edges = np.flatnonzero(np.diff(length[by_length], prepend=0, append=T + 1))
    first = column * T + start
    confidence = np.empty(key.size)
    for a, b in zip(edges.tolist(), edges[1:].tolist()):
        at = by_length[a:b]
        n = int(length[at[0]])
        windows = raw.reshape(-1)[first[at, None] + np.arange(n)]
        confidence[at] = np.add.reduce(windows, axis=-1) / n
    return Detections(np.asarray(video)[column], np.asarray(cls)[column],
                      start, end, confidence)


def nms(dets, iou_threshold):
    """Greedy suppression within each (video, cls) pair by descending
    confidence; ties keep the earlier start. The kept detections come
    ordered by (video, cls, -confidence, start, end)."""
    ranked = dets.take(np.lexsort((dets.end, dets.start, -dets.confidence,
                                   dets.cls, dets.video)))
    s, e = ranked.start, ranked.end
    cuts = np.flatnonzero((np.diff(ranked.video) != 0) | (np.diff(ranked.cls) != 0))
    bounds = [0, *(cuts + 1).tolist(), len(ranked)]
    keep = np.zeros(len(ranked), dtype=bool)
    for a, b in zip(bounds, bounds[1:]):
        clash = segment_iou(s[a:b, None], e[a:b, None], s[a:b], e[a:b]) > iou_threshold
        alive = np.ones(b - a, dtype=bool)
        for i in range(b - a):
            if alive[i]:
                keep[a + i] = True
                alive &= ~clash[i]
    return ranked.take(keep)


def localize_video(tcas, r, cfg):
    """Inference over an N x T x C stack of videos: classify, sweep,
    suppress. Detections come ordered by (video, cls, start, end).

    A video's classes are those whose softmax top-k score (the one
    training optimizes, objective.aggregate_topk) clears theta_c, or its
    argmax when none does. cfg is assumed validated.
    """
    stack = as_matrix(tcas, "tcas", batched=True)
    if stack.ndim != 3:
        raise ShapeMismatchError(f"tcas must be N x T x C, got shape {stack.shape}")
    p = aggregate_topk(constant(stack), r)[0].value[:, 0, :]
    chosen = p > cfg.theta_c
    fallback = np.flatnonzero(~chosen.any(axis=1))
    chosen[fallback, np.argmax(p[fallback], axis=1)] = True
    video, cls = np.nonzero(chosen)
    props = generate_proposals(stack[video, :, cls], cfg.theta_a_list, video, cls)
    kept = nms(props, cfg.nms_iou)
    return kept.take(np.lexsort((kept.end, kept.start, kept.cls, kept.video)))
