"""Dense 2-D matrix numerics: reverse-mode tape, gradient checking, Adam.

Every value on the tape is a float64 numpy array with exactly two
dimensions, row-major. Broadcasting is limited to row vectors (1 x n)
and column vectors (n x 1) as the second operand of `add` / `mul`;
anything fancier is a shape error. The networks built on top are tiny,
so simplicity beats generality throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class NonFiniteError(ArithmeticError):
    """A value or gradient became NaN or infinite."""


def split_rng(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from one 64-bit seed and an integer path.

    Uses the counter-based Philox bit generator keyed through a
    SeedSequence spawn key, so (seed, path) -> stream is a pure function
    and distinct paths never collide.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def as_matrix(data, what: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 C-order array."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeMismatchError(f"{what} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{what} contains non-finite entries")
    return m


class DiffNode:
    """One node of the reverse-mode tape.

    Leaves are parameters (needs_grad=True) or constants; interior nodes
    record their parents and a backward rule. The backward pass visits
    each node exactly once, in reverse topological order.
    """

    __slots__ = ("value", "grad", "parents", "op", "needs_grad", "_rule")

    def __init__(self, value, parents=(), op="leaf", rule=None, needs_grad=None):
        self.value = value if isinstance(value, np.ndarray) else as_matrix(value)
        self.parents: tuple[DiffNode, ...] = tuple(parents)
        self.op = op
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self.parents)
        self.needs_grad = needs_grad
        self.grad = np.zeros_like(self.value) if needs_grad else None
        self._rule = rule

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeMismatchError(f"item() on non-scalar node of shape {self.shape}")
        return float(self.value.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"DiffNode(op={self.op!r}, shape={self.shape})"

    def __matmul__(self, other: "DiffNode") -> "DiffNode":
        return matmul(self, other)

    def __add__(self, other: "DiffNode") -> "DiffNode":
        return add(self, other)

    def __mul__(self, other: "DiffNode") -> "DiffNode":
        return mul(self, other)


def param(value) -> DiffNode:
    """Trainable leaf; gradients accumulate into .grad across backward calls."""
    return DiffNode(as_matrix(value, "parameter"), needs_grad=True)


def constant(value) -> DiffNode:
    """Non-trainable leaf; no gradient is stored for it."""
    return DiffNode(as_matrix(value, "constant"), needs_grad=False)


def zero_grads(params: Sequence[DiffNode]) -> None:
    for p in params:
        if p.grad is not None:
            p.grad.fill(0.0)


def _toposort(root: DiffNode) -> list[DiffNode]:
    order: list[DiffNode] = []
    seen: set[int] = set()
    stack: list[tuple[DiffNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) in seen:
                continue
            stack.append((parent, False))
    return order  # parents precede children


def backward(root: DiffNode) -> None:
    """Reverse pass seeding d(root)/d(root) = 1; root must be scalar (1x1)."""
    if root.value.size != 1:
        raise ShapeMismatchError(f"backward needs a scalar root, got {root.shape}")
    if not root.needs_grad:
        return
    order = _toposort(root)
    root.grad += 1.0
    for node in reversed(order):
        if node._rule is not None:
            node._rule(node.grad)


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    if a.cols != b.rows:
        raise ShapeMismatchError(f"matmul {a.shape} x {b.shape}")
    out = DiffNode(a.value @ b.value, (a, b), "matmul")

    def rule(g):
        if a.needs_grad:
            a.grad += g @ b.value.T
        if b.needs_grad:
            b.grad += a.value.T @ g

    out._rule = rule if out.needs_grad else None
    return out


def _broadcast_check(a: DiffNode, b: DiffNode, op: str) -> None:
    if a.shape == b.shape:
        return
    if b.rows == 1 and b.cols == a.cols:
        return
    if b.cols == 1 and b.rows == a.rows:
        return
    raise ShapeMismatchError(f"{op}: {a.shape} with {b.shape} (row/col vector only)")


def _reduce_to(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum g along any axis where the operand was broadcast."""
    if g.shape == shape:
        return g
    if shape[0] == 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    _broadcast_check(a, b, "add")
    out = DiffNode(a.value + b.value, (a, b), "add")

    def rule(g):
        if a.needs_grad:
            a.grad += g
        if b.needs_grad:
            b.grad += _reduce_to(g, b.value.shape)

    out._rule = rule if out.needs_grad else None
    return out


def mul(a: DiffNode, b: DiffNode) -> DiffNode:
    _broadcast_check(a, b, "mul")
    out = DiffNode(a.value * b.value, (a, b), "mul")

    def rule(g):
        if a.needs_grad:
            a.grad += g * b.value
        if b.needs_grad:
            b.grad += _reduce_to(g * a.value, b.value.shape)

    out._rule = rule if out.needs_grad else None
    return out


def scale(a: DiffNode, s: float) -> DiffNode:
    out = DiffNode(a.value * s, (a,), "scale")

    def rule(g):
        a.grad += g * s

    out._rule = rule if out.needs_grad else None
    return out


def relu(a: DiffNode) -> DiffNode:
    out = DiffNode(np.maximum(a.value, 0.0), (a,), "relu")

    def rule(g):
        a.grad += g * (a.value > 0.0)

    out._rule = rule if out.needs_grad else None
    return out


def sigmoid(a: DiffNode) -> DiffNode:
    # evaluate on the side that keeps exp() bounded, else large negative
    # inputs overflow float64
    v = a.value
    pos = v >= 0.0
    ev = np.exp(np.where(pos, -v, v))
    s = np.where(pos, 1.0 / (1.0 + ev), ev / (1.0 + ev))
    out = DiffNode(s, (a,), "sigmoid")

    def rule(g):
        a.grad += g * s * (1.0 - s)

    out._rule = rule if out.needs_grad else None
    return out


def log(a: DiffNode) -> DiffNode:
    if np.any(a.value <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    out = DiffNode(np.log(a.value), (a,), "log")

    def rule(g):
        a.grad += g / a.value

    out._rule = rule if out.needs_grad else None
    return out


def square(a: DiffNode) -> DiffNode:
    out = DiffNode(a.value * a.value, (a,), "square")

    def rule(g):
        a.grad += g * 2.0 * a.value

    out._rule = rule if out.needs_grad else None
    return out


def clip(a: DiffNode, lo: float, hi: float) -> DiffNode:
    """Clamp values to [lo, hi]; gradient passes only through the interior."""
    out = DiffNode(np.clip(a.value, lo, hi), (a,), "clip")
    inside = (a.value > lo) & (a.value < hi)

    def rule(g):
        a.grad += g * inside

    out._rule = rule if out.needs_grad else None
    return out


def transpose(a: DiffNode) -> DiffNode:
    out = DiffNode(np.ascontiguousarray(a.value.T), (a,), "transpose")

    def rule(g):
        a.grad += g.T

    out._rule = rule if out.needs_grad else None
    return out


def concat_cols(a: DiffNode, b: DiffNode) -> DiffNode:
    if a.rows != b.rows:
        raise ShapeMismatchError(f"concat-cols: {a.shape} with {b.shape}")
    out = DiffNode(np.concatenate([a.value, b.value], axis=1), (a, b), "concat-cols")
    split = a.cols

    def rule(g):
        if a.needs_grad:
            a.grad += g[:, :split]
        if b.needs_grad:
            b.grad += g[:, split:]

    out._rule = rule if out.needs_grad else None
    return out


def shift_rows(a: DiffNode, offset: int) -> DiffNode:
    """out[t] = a[t + offset], rows shifted with zero fill at the ends."""
    v = np.zeros_like(a.value)
    T = a.rows
    if offset == 0:
        v[...] = a.value
    elif offset > 0:
        if offset < T:
            v[: T - offset] = a.value[offset:]
    else:
        if -offset < T:
            v[-offset:] = a.value[:offset]
    out = DiffNode(v, (a,), "shift-rows")

    def rule(g):
        if offset == 0:
            a.grad += g
        elif offset > 0:
            if offset < T:
                a.grad[offset:] += g[: T - offset]
        else:
            if -offset < T:
                a.grad[:offset] += g[-offset:]

    out._rule = rule if out.needs_grad else None
    return out


def softmax_rows(a: DiffNode) -> DiffNode:
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    out = DiffNode(s, (a,), "softmax-rows")

    def rule(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        a.grad += s * (g - dot)

    out._rule = rule if out.needs_grad else None
    return out


def sum_all(a: DiffNode) -> DiffNode:
    out = DiffNode(np.array([[a.value.sum()]]), (a,), "sum")

    def rule(g):
        a.grad += g[0, 0]

    out._rule = rule if out.needs_grad else None
    return out


def topk_mean_columns(a: DiffNode, k: int) -> tuple[DiffNode, list[list[int]]]:
    """Per-column mean of the k largest entries; 1/k gradient on the selected rows.

    Returns the 1 x cols node and, per column, the selected row indices.
    """
    if not 1 <= k <= a.rows:
        raise ShapeMismatchError(f"topk-mean: k={k} outside [1, {a.rows}]")
    # stable sort of the negated column: ties go to the lower index
    indices = np.argsort(-a.value, axis=0, kind="stable")[:k].T.tolist()
    v = np.array([[a.value[idx, c].mean() for c, idx in enumerate(indices)]])
    out = DiffNode(v, (a,), "topk-mean")

    def rule(g):
        for c, idx in enumerate(indices):
            a.grad[idx, c] += g[0, c] / k

    out._rule = rule if out.needs_grad else None
    return out, indices


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(build_loss: Callable[[], DiffNode], params: Sequence[DiffNode],
               h: float) -> float:
    """Max relative error between tape gradients and central differences.

    `build_loss` must rebuild the scalar loss from the current parameter
    values on every call; the finite-difference side only ever reads
    values, never tape gradients, so it stays an independent oracle.
    Error per coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"h={h} outside [1e-6, 1e-3]")
    zero_grads(params)
    loss = build_loss()
    if loss.value.size != 1:
        raise ShapeMismatchError("grad_check needs a scalar loss")
    if not np.isfinite(loss.value).all():
        raise NonFiniteError("loss is not finite at the base point")
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    max_err = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = build_loss().item()
            flat[i] = orig - h
            fm = build_loss().item()
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NonFiniteError("loss is not finite under perturbation")
            numeric = (fp - fm) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
            if err > max_err:
                max_err = err
    zero_grads(params)
    return max_err


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second-moment accumulators plus the step counter."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_init(params: Sequence[DiffNode], lr: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
        m=[np.zeros_like(p.value) for p in params],
        v=[np.zeros_like(p.value) for p in params],
    )


def adam_step(params: Sequence[DiffNode], grads: Sequence[np.ndarray],
              state: AdamState) -> None:
    """Bias-corrected Adam update in place; parameter gradients are cleared."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeMismatchError("adam_step: parameter/gradient/state count mismatch")
    for i, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {i} "
                                 f"at step {state.step + 1}")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.value.shape:
            raise ShapeMismatchError("adam_step: gradient shape mismatch")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        mhat = m / c1
        vhat = v / c2
        p.value -= state.lr * mhat / (np.sqrt(vhat) + state.eps)
    zero_grads(params)
