"""Dense matrix numerics: reverse-mode tape, gradient checking, Adam.

Every value on the tape is a row-major float64 numpy array: a T x n
matrix for one video, or a B x T x n stack with a leading video axis
for a mini-batch. Ops act on the last two axes, so a stack behaves as B
independent matrices. Parameters stay 2-D and broadcast across the
video axis; their gradient is reduced per video and the slices are
added in video order, so one tape over B videos accumulates exactly the
bits that B one-video tapes would. Other broadcasting is limited to row
vectors (1 x n) and column vectors (n x 1) as the second operand of
`add` / `mul`; anything fancier is a shape error. Interior gradients
exist only during `backward`, so a forward-only build allocates none.
The networks built on top are tiny, so simplicity beats generality
throughout.
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


def as_matrix(data, what: str = "matrix", batched: bool = False) -> np.ndarray:
    """Coerce to a finite float64 C-order array: 2-D, or also B x T x n if batched."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 and not (batched and m.ndim == 3):
        want = "2-D or 3-D" if batched else "2-D"
        raise ShapeMismatchError(f"{what} must be {want}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{what} contains non-finite entries")
    return m


class DiffNode:
    """One node of the reverse-mode tape.

    Leaves are parameters (needs_grad=True) or constants; interior nodes
    record their parents and a backward rule. The backward pass visits
    each node exactly once, in reverse topological order. Only parameters
    hold a gradient between backward passes.
    """

    __slots__ = ("value", "grad", "parents", "op", "needs_grad", "_rule")

    def __init__(self, value, parents=(), op="leaf", rule=None, needs_grad=None):
        self.value = value if isinstance(value, np.ndarray) else as_matrix(value)
        self.parents: tuple[DiffNode, ...] = tuple(parents)
        self.op = op
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self.parents)
        self.needs_grad = needs_grad
        self.grad = None
        self._rule = rule

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[-2]

    @property
    def cols(self) -> int:
        return self.value.shape[-1]

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
    """Trainable 2-D leaf; gradients accumulate into .grad across backward calls."""
    node = DiffNode(as_matrix(value, "parameter"), needs_grad=True)
    node.grad = np.zeros_like(node.value)
    return node


def constant(value) -> DiffNode:
    """Non-trainable leaf, 2-D or stacked; no gradient is stored for it."""
    return DiffNode(as_matrix(value, "constant", batched=True), needs_grad=False)


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
    """Reverse pass seeding every entry of the root with gradient 1.

    The root is a 1 x 1 loss, or B x 1 x 1 with one loss per video, whose
    sum is then what gets differentiated. Interior gradients are
    allocated here and released as soon as their node's rule has run.
    """
    if root.shape[-2:] != (1, 1):
        raise ShapeMismatchError(f"backward needs 1 x 1 losses, got {root.shape}")
    if not root.needs_grad:
        return
    order = _toposort(root)
    _accumulate(root, np.ones_like(root.value))
    for node in reversed(order):
        if node._rule is not None:
            node._rule(node.grad)
            node.grad = None


def _accumulate(node: DiffNode, g: np.ndarray) -> None:
    """node.grad += g, summed over the axes along which node was broadcast.

    A 2-D node under a stacked gradient (a parameter) gets each video's
    slice reduced on its own and added in video order. Summing the stack
    in one call would group the additions differently and change the bits.
    """
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    if g.ndim > node.grad.ndim:
        for g_video in g:
            node.grad += _reduce_to(g_video, node.grad.shape)
    else:
        node.grad += _reduce_to(g, node.grad.shape)


def _swap(v: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (a view)."""
    return v.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    """Matrix product per video; b is 2-D (shared) or stacked like a."""
    if a.cols != b.rows or (b.value.ndim == 3 and a.shape[:-2] != b.shape[:-2]):
        raise ShapeMismatchError(f"matmul {a.shape} x {b.shape}")
    out = DiffNode(a.value @ b.value, (a, b), "matmul")

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g @ _swap(b.value))
        if b.needs_grad:
            _accumulate(b, _swap(a.value) @ g)

    out._rule = rule if out.needs_grad else None
    return out


def _broadcast_check(a: DiffNode, b: DiffNode, op: str) -> None:
    if a.shape == b.shape:
        return
    if b.value.ndim == 2 or b.shape[:-2] == a.shape[:-2]:
        if b.rows == 1 and b.cols == a.cols:
            return
        if b.cols == 1 and b.rows == a.rows:
            return
    raise ShapeMismatchError(f"{op}: {a.shape} with {b.shape} (row/col vector only)")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g along either of the last two axes where the operand was broadcast."""
    if g.shape == shape:
        return g
    if shape[-2] == 1:
        g = g.sum(axis=-2, keepdims=True)
    if shape[-1] == 1:
        g = g.sum(axis=-1, keepdims=True)
    return g


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    _broadcast_check(a, b, "add")
    out = DiffNode(a.value + b.value, (a, b), "add")

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g)
        if b.needs_grad:
            _accumulate(b, g)

    out._rule = rule if out.needs_grad else None
    return out


def mul(a: DiffNode, b: DiffNode) -> DiffNode:
    _broadcast_check(a, b, "mul")
    out = DiffNode(a.value * b.value, (a, b), "mul")

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g * b.value)
        if b.needs_grad:
            _accumulate(b, g * a.value)

    out._rule = rule if out.needs_grad else None
    return out


def scale(a: DiffNode, s: float) -> DiffNode:
    out = DiffNode(a.value * s, (a,), "scale")

    def rule(g):
        _accumulate(a, g * s)

    out._rule = rule if out.needs_grad else None
    return out


def relu(a: DiffNode) -> DiffNode:
    out = DiffNode(np.maximum(a.value, 0.0), (a,), "relu")

    def rule(g):
        _accumulate(a, g * (a.value > 0.0))

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
        _accumulate(a, g * s * (1.0 - s))

    out._rule = rule if out.needs_grad else None
    return out


def log(a: DiffNode) -> DiffNode:
    if np.any(a.value <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    out = DiffNode(np.log(a.value), (a,), "log")

    def rule(g):
        _accumulate(a, g / a.value)

    out._rule = rule if out.needs_grad else None
    return out


def square(a: DiffNode) -> DiffNode:
    out = DiffNode(a.value * a.value, (a,), "square")

    def rule(g):
        _accumulate(a, g * 2.0 * a.value)

    out._rule = rule if out.needs_grad else None
    return out


def clip(a: DiffNode, lo: float, hi: float) -> DiffNode:
    """Clamp values to [lo, hi]; gradient passes only through the interior."""
    out = DiffNode(np.clip(a.value, lo, hi), (a,), "clip")
    inside = (a.value > lo) & (a.value < hi)

    def rule(g):
        _accumulate(a, g * inside)

    out._rule = rule if out.needs_grad else None
    return out


def transpose(a: DiffNode) -> DiffNode:
    out = DiffNode(np.ascontiguousarray(_swap(a.value)), (a,), "transpose")

    def rule(g):
        _accumulate(a, _swap(g))

    out._rule = rule if out.needs_grad else None
    return out


def concat_cols(a: DiffNode, b: DiffNode) -> DiffNode:
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatchError(f"concat-cols: {a.shape} with {b.shape}")
    out = DiffNode(np.concatenate([a.value, b.value], axis=-1), (a, b), "concat-cols")
    split = a.cols

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g[..., :split])
        if b.needs_grad:
            _accumulate(b, g[..., split:])

    out._rule = rule if out.needs_grad else None
    return out


def _shift_rows(v: np.ndarray, offset: int) -> np.ndarray:
    """out[t] = v[t + offset] for offset -1 or +1, zero filled at each video's ends."""
    out = np.zeros_like(v)
    if offset > 0:
        out[..., :-1, :] = v[..., 1:, :]
    else:
        out[..., 1:, :] = v[..., :-1, :]
    return out


def conv3(x: DiffNode, taps: Sequence[DiffNode], bias: DiffNode) -> DiffNode:
    """Kernel-3 temporal convolution, zero padded per video, as one tape node.

    y[t] = x[t-1] K_neg + x[t] K_0 + x[t+1] K_pos + b for taps
    (K_neg, K_0, K_pos). Backward recomputes the shifted inputs. The sums
    keep the grouping ((x[t-1] K_neg + x[t] K_0) + x[t+1] K_pos) + b, and
    the input gradient adds its terms in the order (-1 tap, centre,
    +1 tap), so the result matches a graph of separate shift, matmul
    and add nodes bit for bit.
    """
    k_neg, k_0, k_pos = taps
    if x.cols != k_0.rows:
        raise ShapeMismatchError(f"conv expects width {k_0.rows}, got {x.cols}")
    xv = x.value
    y = _shift_rows(xv, -1) @ k_neg.value
    y += xv @ k_0.value
    y += _shift_rows(xv, 1) @ k_pos.value
    y += bias.value
    out = DiffNode(y, (x, k_neg, k_0, k_pos, bias), "conv3")

    def rule(g):
        if x.needs_grad:
            gx = np.zeros_like(xv)
            gx[..., :-1, :] += (g @ _swap(k_neg.value))[..., 1:, :]
            gx += g @ _swap(k_0.value)
            gx[..., 1:, :] += (g @ _swap(k_pos.value))[..., :-1, :]
            _accumulate(x, gx)
        for k, offset in ((k_neg, -1), (k_0, 0), (k_pos, 1)):
            if k.needs_grad:
                xs = _shift_rows(xv, offset) if offset else xv
                _accumulate(k, _swap(xs) @ g)
        if bias.needs_grad:
            _accumulate(bias, g)

    out._rule = rule if out.needs_grad else None
    return out


def propagate(adjacency: Sequence[np.ndarray], x: DiffNode) -> DiffNode:
    """out[b] = A_b x[b]: each video's constant T x T graph times its rows.

    The graphs come as one matrix per video; a stacked B x T x T copy of
    them would cost B T^2 floats per tape for nothing.
    """
    if x.value.ndim != 3 or len(adjacency) != x.shape[0] or any(
            A.shape != (x.rows, x.rows) for A in adjacency):
        raise ShapeMismatchError(
            f"propagate: features {x.shape} need one {x.rows} x {x.rows} graph "
            f"per video, got {[np.shape(A) for A in adjacency]}")
    v = np.empty_like(x.value)
    for A, xb, vb in zip(adjacency, x.value, v):
        np.matmul(A, xb, out=vb)
    out = DiffNode(v, (x,), "propagate")

    def rule(g):
        gx = np.empty_like(g)
        for A, gb, gxb in zip(adjacency, g, gx):
            np.matmul(A.T, gb, out=gxb)
        _accumulate(x, gx)

    out._rule = rule if out.needs_grad else None
    return out


def softmax_rows(a: DiffNode) -> DiffNode:
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = DiffNode(s, (a,), "softmax-rows")

    def rule(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (g - dot))

    out._rule = rule if out.needs_grad else None
    return out


def sum_all(a: DiffNode) -> DiffNode:
    """Sum over the last two axes: 1 x 1, or B x 1 x 1 with one sum per video."""
    out = DiffNode(a.value.sum(axis=(-2, -1), keepdims=True), (a,), "sum")

    def rule(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    out._rule = rule if out.needs_grad else None
    return out


def topk_mean_columns(a: DiffNode, k: int) -> tuple[DiffNode, np.ndarray]:
    """Per-column mean of the k largest entries; 1/k gradient on the selected rows.

    Returns the 1 x cols node (B x 1 x cols for a stack) and the selected
    row indices, cols x k (B x cols x k), each column's in selection order.
    """
    if not 1 <= k <= a.rows:
        raise ShapeMismatchError(f"topk-mean: k={k} outside [1, {a.rows}]")
    # stable sort of the negated column: ties go to the lower index
    order = np.argsort(-a.value, axis=-2, kind="stable")[..., :k, :]
    indices = np.ascontiguousarray(_swap(order))
    # each column's picks contiguous, so the mean reduces the same k
    # values in the same order whatever the batch shape
    picked = np.ascontiguousarray(_swap(np.take_along_axis(a.value, order, axis=-2)))
    out = DiffNode(picked.mean(axis=-1)[..., None, :], (a,), "topk-mean")

    def rule(g):
        ga = np.zeros_like(a.value)
        np.put_along_axis(ga, order, g / k, axis=-2)
        _accumulate(a, ga)

    out._rule = rule if out.needs_grad else None
    return out, indices


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(build_loss: Callable[[], DiffNode], params: Sequence[DiffNode],
               h: float) -> float:
    """Max relative error between tape gradients and central differences.

    `build_loss` must rebuild the loss from the current parameter values
    on every call: 1 x 1, or B x 1 x 1 per-video losses, whose sum is
    then checked. The finite-difference side only ever reads values,
    never tape gradients, so it stays an independent oracle. Error per
    coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"h={h} outside [1e-6, 1e-3]")
    zero_grads(params)
    loss = build_loss()
    if loss.shape[-2:] != (1, 1):
        raise ShapeMismatchError("grad_check needs 1 x 1 losses")
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
            fp = float(build_loss().value.sum())
            flat[i] = orig - h
            fm = float(build_loss().value.sum())
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
