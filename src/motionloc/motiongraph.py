"""Snippet graphs over motion features.

The sparse graph connects each snippet to its temporal neighbourhood
(positional edges) and to distant snippets whose projected motion
features point the same way (semantic edges).  Edge weights are raw
cosine similarities.  A dense baseline normalizes projected inner
products over full rows, and the plain-MLP ablation propagates over no
graph at all.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .numcore import ShapeMismatchError, _swap, as_matrix

_TINY_ROW_SUM = 1e-9


@dataclass(frozen=True)
class GraphConfig:
    theta_pos: float = 0.1
    gamma: float = 0.6
    mode: str = "sparse"          # sparse | dense | mlp
    use_positional: bool = True   # ablation switches for the sparse mode
    use_semantic: bool = True

    def validate(self):
        if not 0.0 < self.theta_pos < 1.0:
            raise ValueError(f"theta_pos must lie in (0,1), got {self.theta_pos}")
        if not -1.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (-1,1), got {self.gamma}")
        if self.mode not in ("sparse", "dense", "mlp"):
            raise ValueError(f"mode must be sparse, dense or mlp, got {self.mode!r}")


@dataclass(frozen=True, eq=False)
class MotionGraph:
    """Edges as T x T boolean masks (B x T x T for a stack); mlp mode
    carries no adjacency (None)."""
    T: int
    pos_edges: np.ndarray = field(repr=False)
    smt_edges: np.ndarray = field(repr=False)
    adjacency: np.ndarray | None = field(repr=False)


def _unit_rows(x):
    """Rows scaled to unit norm; zero rows map to zero (cosine treated as 0)."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return x / safe


def _distance(T):
    """T x T matrix of temporal distances |i-j|."""
    idx = np.arange(T)
    return np.abs(idx[:, None] - idx[None, :])


@functools.lru_cache(maxsize=4)
def _bands(T, theta_pos):
    """Read-only T x T masks of the pairs with |i-j|/T below and above
    theta_pos, shared by every video of length T."""
    ratio = _distance(T) / T
    near, distant = ratio < theta_pos, ratio > theta_pos
    near.flags.writeable = distant.flags.writeable = False
    return near, distant


def build_positional_edges(motion, cfg):
    """Mask of ordered pairs (i,j), self pairs included, with |i-j|/T below
    the positional threshold (T x T, shared by every video of a stack)."""
    T = as_matrix(motion, "motion", batched=True).shape[-2]
    return _bands(T, cfg.theta_pos)[0]


def _projections(motion, W1, W2):
    """T and the projected features motion @ W1.T, motion @ W2.T."""
    motion = as_matrix(motion, "motion", batched=True)
    d = motion.shape[-1]
    W1 = as_matrix(W1, "W1")
    W2 = as_matrix(W2, "W2")
    if W1.shape != (d, d) or W2.shape != (d, d):
        raise ShapeMismatchError(
            f"projections must be {d}x{d}, got {W1.shape} and {W2.shape}")
    return motion.shape[-2], motion @ W1.T, motion @ W2.T


def build_semantic_edges(motion, W1, W2, cfg):
    """Mask of distant pairs whose projected features agree in direction.

    A pair qualifies when |i-j|/T exceeds the positional threshold and
    cos(W1 m_i, W2 m_j) exceeds gamma; the result is symmetrized.
    """
    T, q1, q2 = _projections(motion, W1, W2)
    distant = _bands(T, cfg.theta_pos)[1]
    qual = distant & ((_unit_rows(q1) @ _swap(_unit_rows(q2))) > cfg.gamma)
    return qual | _swap(qual)


def build_adjacency(motion, mask):
    """Raw-feature cosine weights where the edge mask is set, zero elsewhere,
    each row divided by its absolute sum (rows without weight stay zero)."""
    u = _unit_rows(as_matrix(motion, "motion", batched=True))
    # u @ _swap(u) of one buffer goes to BLAS syrk; a gemm on a contiguous
    # copy of u changes last bits at 296 of 424 (d, T, B) shapes, T = 63,
    # 65, 100, 255 and 257 among them (numpy 2.4.6, OpenBLAS 0.3.31). The
    # transposed-view gemm of the semantic and dense Grams is as fragile.
    # tests/test_motiongraph.py pins the adjacency bytes.
    G = np.where(mask, u @ _swap(u), 0.0)
    sums = np.abs(G).sum(axis=-1, keepdims=True)
    return G / np.where(sums > _TINY_ROW_SUM, sums, 1.0)


def build_dense_adjacency(motion, W1, W2):
    """Projected inner products normalized over each full row.

    Rows whose sum is negative or vanishing fall back to uniform 1/T
    weights (signed inner products make the normalizer unreliable there).
    """
    T, q1, q2 = _projections(motion, W1, W2)
    S = q1 @ _swap(q2)
    sums = S.sum(axis=-1, keepdims=True)
    ok = sums > _TINY_ROW_SUM
    return np.where(ok, S / np.where(ok, sums, 1.0), 1.0 / T)


def build_graph(motion, W1, W2, cfg):
    """Dispatch on cfg.mode, for one T x d video or a B x T x d stack.

    A stack gets B x T x T edge masks and adjacency, each video's block
    equal to the one its own call would build. Dense and mlp graphs have
    empty edge masks; an mlp graph has no adjacency at all, since its
    guidance branch propagates over nothing. cfg is assumed validated.
    """
    motion = as_matrix(motion, "motion", batched=True)
    T = motion.shape[-2]
    empty = np.zeros(motion.shape[:-1] + (T,), dtype=bool)
    if cfg.mode == "dense":
        adj = build_dense_adjacency(motion, W1, W2)
        return MotionGraph(T, empty, empty, adj)
    if cfg.mode == "mlp":
        return MotionGraph(T, empty, empty, None)
    if cfg.mode != "sparse":
        raise ValueError(f"mode must be sparse, dense or mlp, got {cfg.mode!r}")
    pos = build_positional_edges(motion, cfg) if cfg.use_positional else empty
    smt = build_semantic_edges(motion, W1, W2, cfg) if cfg.use_semantic else empty
    smt = smt & ~pos  # thresholds make these disjoint already; keep it structural
    pos = np.broadcast_to(pos, empty.shape)
    return MotionGraph(T, pos, smt, build_adjacency(motion, pos | smt))


def adjacency_mean_distance(adjacency):
    """Mean |i-j| weighted by the signed adjacency entries.

    Signed weighting lets the sign-alternating far-field products of a
    dense graph cancel, exposing its diagonal concentration; a matrix
    whose entries sum to (near) zero maps to 0.
    """
    A = as_matrix(adjacency, "adjacency")
    total = A.sum()
    if abs(total) <= _TINY_ROW_SUM:
        return 0.0
    return float((A * _distance(A.shape[0])).sum() / total)
