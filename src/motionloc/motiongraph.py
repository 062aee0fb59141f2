"""Snippet graphs over motion features.

The sparse graph connects each snippet to its temporal neighbourhood
(positional edges) and to distant snippets whose projected motion
features point the same way (semantic edges).  Edge weights are raw
cosine similarities.  A dense baseline normalizes projected inner
products over full rows, and the plain-MLP ablation propagates over no
graph at all.
"""

from dataclasses import dataclass, field

import numpy as np

from .numcore import ShapeMismatchError, as_matrix

_TINY_ROW_SUM = 1e-9


@dataclass(frozen=True)
class GraphConfig:
    theta_pos: float = 0.1
    gamma: float = 0.6
    mode: str = "sparse"          # sparse | dense | mlp
    row_normalize: bool = True
    include_self: bool = True
    use_positional: bool = True   # ablation switches for the sparse mode
    use_semantic: bool = True

    def validate(self):
        if not 0.0 < self.theta_pos < 1.0:
            raise ValueError(f"theta_pos must lie in (0,1), got {self.theta_pos}")
        if not -1.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (-1,1), got {self.gamma}")
        if self.mode not in ("sparse", "dense", "mlp"):
            raise ValueError(f"unknown graph mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class MotionGraph:
    """Edges as T x T boolean masks; mlp mode carries no adjacency (None)."""
    T: int
    pos_edges: np.ndarray = field(repr=False)
    smt_edges: np.ndarray = field(repr=False)
    adjacency: np.ndarray | None = field(repr=False)


def _unit_rows(x):
    """Rows scaled to unit norm; zero rows map to zero (cosine treated as 0)."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return x / safe


def _distance(T):
    """T x T matrix of temporal distances |i-j|."""
    idx = np.arange(T)
    return np.abs(idx[:, None] - idx[None, :])


def build_positional_edges(motion, cfg):
    """Mask of ordered pairs (i,j) with |i-j|/T below the positional threshold."""
    motion = as_matrix(motion, "motion")
    T = motion.shape[0]
    mask = (_distance(T) / T) < cfg.theta_pos
    if not cfg.include_self:
        np.fill_diagonal(mask, False)
    return mask


def build_semantic_edges(motion, W1, W2, cfg):
    """Mask of distant pairs whose projected features agree in direction.

    A pair qualifies when |i-j|/T exceeds the positional threshold and
    cos(W1 m_i, W2 m_j) exceeds gamma; the result is symmetrized.
    """
    motion = as_matrix(motion, "motion")
    T, d = motion.shape
    W1 = as_matrix(W1, "W1")
    W2 = as_matrix(W2, "W2")
    if W1.shape != (d, d) or W2.shape != (d, d):
        raise ShapeMismatchError(
            f"projections must be {d}x{d}, got {W1.shape} and {W2.shape}")
    p1 = _unit_rows(motion @ W1.T)
    p2 = _unit_rows(motion @ W2.T)
    distant = (_distance(T) / T) > cfg.theta_pos
    qual = distant & ((p1 @ p2.T) > cfg.gamma)
    return qual | qual.T


def build_adjacency(motion, mask, cfg):
    """Raw-feature cosine weights where the edge mask is set, zero elsewhere."""
    u = _unit_rows(as_matrix(motion, "motion"))
    G = np.where(mask, u @ u.T, 0.0)
    if cfg.row_normalize:
        sums = np.abs(G).sum(axis=1, keepdims=True)
        G = G / np.where(sums > _TINY_ROW_SUM, sums, 1.0)
    return G


def build_dense_adjacency(motion, W1, W2):
    """Projected inner products normalized over each full row.

    Rows whose sum is negative or vanishing fall back to uniform 1/T
    weights (signed inner products make the normalizer unreliable there).
    """
    motion = as_matrix(motion, "motion")
    T, d = motion.shape
    W1 = as_matrix(W1, "W1")
    W2 = as_matrix(W2, "W2")
    if W1.shape != (d, d) or W2.shape != (d, d):
        raise ShapeMismatchError(
            f"projections must be {d}x{d}, got {W1.shape} and {W2.shape}")
    S = (motion @ W1.T) @ (motion @ W2.T).T
    sums = S.sum(axis=1, keepdims=True)
    ok = sums > _TINY_ROW_SUM
    G = np.where(ok, S / np.where(ok, sums, 1.0), 1.0 / T)
    return G


def build_graph(motion, W1, W2, cfg):
    """Dispatch on cfg.mode.

    Dense and mlp graphs have empty edge masks; an mlp graph has no
    adjacency at all, since its guidance branch propagates over nothing.
    """
    cfg.validate()
    motion = as_matrix(motion, "motion")
    T = motion.shape[0]
    empty = np.zeros((T, T), dtype=bool)
    if cfg.mode == "dense":
        adj = build_dense_adjacency(motion, W1, W2)
        return MotionGraph(T, empty, empty, adj)
    if cfg.mode == "mlp":
        return MotionGraph(T, empty, empty, None)
    pos = build_positional_edges(motion, cfg) if cfg.use_positional else empty
    smt = build_semantic_edges(motion, W1, W2, cfg) if cfg.use_semantic else empty
    smt = smt & ~pos  # thresholds make these disjoint already; keep it structural
    return MotionGraph(T, pos, smt, build_adjacency(motion, pos | smt, cfg))


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
