"""Video-level aggregation and the two training losses.

Per-class video scores are top-k means over the TCAS columns; the plain
loss is cross-entropy between their softmax and the normalized
video-level label. The motion-guided variant weights each class term by
the squared mean motionness over that class's selected snippets and adds
a -log(mu^2) regularizer that pushes selected motionness upward.
"""

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import DomainError, as_matrix, constant

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossConfig:
    r: int = 8
    regularizer_mask: str = "all_classes"  # all_classes | positive_only | none
    loss_kind: str = "motion_guided"       # xe | motion_guided

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.regularizer_mask not in ("all_classes", "positive_only", "none"):
            raise ValueError("regularizer_mask must be all_classes, positive_only"
                             f" or none, got {self.regularizer_mask!r}")
        if self.loss_kind not in ("xe", "motion_guided"):
            raise ValueError(
                f"loss_kind must be xe or motion_guided, got {self.loss_kind!r}")


def aggregate_topk(tcas, r):
    """(probs, topk_indices): the softmax of each class's top-k mean with
    k = max(1, floor(T / r)), 1 x C (B x 1 x C for a batch), and the
    selected snippets, C x k (B x C x k)."""
    scores, indices = nc.topk_mean_columns(tcas, max(1, tcas.rows // r))
    return nc.softmax_rows(scores), indices


def normalized_label(label):
    """Multi-hot labels scaled to sum 1 (uniform over their positives).

    One length-C label gives 1 x C; a B x C stack gives one row per video.
    """
    y = as_matrix(label, "label")
    totals = y.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise DomainError("label needs at least one positive class")
    return y / totals


def _label_like(label, probs):
    """Normalized labels shaped like the probabilities."""
    yhat = normalized_label(label)
    if yhat.size != probs.value.size:
        raise nc.ShapeMismatchError(
            f"labels {yhat.shape} do not fit probabilities {probs.shape}")
    return yhat.reshape(probs.shape)


def _log_probs(probs):
    # softmax output is positive by construction; the floor only guards
    # underflow at extreme logits
    return nc.log(nc.clip(probs, _PROB_FLOOR, 2.0))


def xe_loss(probs, label):
    """L = -sum_c yhat_c log p_c with yhat the normalized label and p the
    class probabilities aggregate_topk returns."""
    yhat = constant(_label_like(label, probs))
    return nc.scale(nc.sum_all(yhat * _log_probs(probs)), -1.0)


def video_motionness(motionness, topk_indices):
    """Per-class mean motionness over the class's top-k snippet set.

    Built as a matmul with a constant averaging matrix so the gradient
    lands as 1/k on the selected snippets and 0 elsewhere. The indices
    are C x k (B x C x k for a batch), as aggregate_topk returns them.
    """
    idx = np.asarray(topk_indices)
    if idx.shape[-1] == 0:
        raise DomainError("empty top-k selection")
    sel = np.zeros(motionness.shape[:-1] + (idx.shape[-2],))
    sel[nc._column_picks(idx)] = 1.0 / idx.shape[-1]
    return nc.transpose(motionness) @ constant(sel)


def motion_guided_loss(probs, mu, label, cfg):
    """L = -sum_c mu_c^2 yhat_c log p_c - sum_{c in R} log mu_c^2.

    p are the class probabilities aggregate_topk returns and mu the
    per-class motionness, both shaped like them. R is every class, only
    positive classes, or empty, per cfg.regularizer_mask.
    """
    yhat = _label_like(label, probs)
    if mu.shape != yhat.shape:
        raise nc.ShapeMismatchError(f"mu must be {yhat.shape}, got {mu.shape}")
    mu2 = nc.square(mu)
    logp = _log_probs(probs)
    main = nc.scale(nc.sum_all(constant(yhat) * mu2 * logp), -1.0)
    if cfg.regularizer_mask == "none":
        return main
    if cfg.regularizer_mask == "positive_only":
        mask = (yhat > 0).astype(np.float64)
    else:
        mask = np.ones_like(yhat)
    reg = nc.scale(nc.sum_all(constant(mask) * nc.log(mu2)), -1.0)
    return main + reg


def per_video_loss(out, labels, cfg):
    """Dispatch on cfg.loss_kind given a ForwardOutput and one label per video.

    Returns (loss, probs); the loss is B x 1 x 1, one value per video.
    """
    probs, topk_indices = aggregate_topk(out.tcas, cfg.r)
    if cfg.loss_kind == "xe":
        return xe_loss(probs, labels), probs
    mu = video_motionness(out.motionness, topk_indices)
    return motion_guided_loss(probs, mu, labels, cfg), probs


def loss_surface(p_grid, mu_grid):
    """Single positive-class guided loss L[i, j] = -mu^2 log p - log mu^2.

    Evaluated at p = p_grid[i] and mu = mu_grid[j] by motion_guided_loss
    itself, on a batch of one-class videos, one per grid point; one point
    (p, mu) is loss_surface([p], [mu])[0, 0].
    """
    p = np.asarray(p_grid, dtype=np.float64)
    mu = np.asarray(mu_grid, dtype=np.float64)
    if np.any(p <= 0) or np.any(p >= 1) or np.any(mu <= 0) or np.any(mu >= 1):
        raise DomainError("grids must lie strictly inside (0, 1)")
    p, mu = np.meshgrid(p, mu, indexing="ij")
    loss = motion_guided_loss(constant(p.reshape(-1, 1, 1)),
                              constant(mu.reshape(-1, 1, 1)),
                              np.ones((p.size, 1)), LossConfig())
    return loss.value.reshape(p.shape)


def default_surface_grids(n=50):
    """50 x 50 sampling box for the surface plot.

    dL/dmu = -2 mu log p - 2/mu is negative exactly while
    mu^2 log(1/p) < 1, so the surface is monotone in mu only where p is
    not too small. The default box (p >= 0.4) stays inside that region:
    0.98^2 * log(1/0.4) = 0.88 < 1.
    """
    return np.linspace(0.40, 0.99, n), np.linspace(0.02, 0.98, n)
