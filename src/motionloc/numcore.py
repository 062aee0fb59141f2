"""Dense matrix numerics: reverse-mode tape and Adam.

Every value on the tape is a row-major float64 numpy array: a T x n
matrix for one video, or a B x T x n stack with a leading video axis
for a mini-batch. Ops act on the last two axes, so a stack behaves as B
independent matrices. Parameters stay 2-D and broadcast across the
video axis; the video slices of a parameter's stacked gradient are
added in video order by one ordered reduction, so one tape over B
videos accumulates exactly the bits that B one-video tapes would, at a
cost per tape rather than per video. The one row broadcast is a `conv3`
bias, a 1 x n row added to every snippet, whose gradient `conv3` sums
over the rows itself; `add` and `mul` take operands of one shape. Each
op hands its backward rule to the node it returns. Interior gradients
exist only during `backward`, so a forward-only build allocates none.
`adam_init` moves the parameters' values and gradients into one flat
vector each, so zeroing, scaling, the finiteness check and the Adam
update run once per step over one vector, not once per parameter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    record their parents and the backward rule their op hands over, which
    the node drops when no parent needs a gradient. The backward pass
    visits each node exactly once, in reverse topological order. Only
    parameters hold a gradient between backward passes. The value is an
    ndarray; param and constant coerce anything else.
    """

    __slots__ = ("value", "grad", "parents", "op", "needs_grad", "_rule")

    def __init__(self, value, parents=(), op="leaf", rule=None, needs_grad=None):
        self.value = value
        self.parents: tuple[DiffNode, ...] = tuple(parents)
        self.op = op
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self.parents)
        self.needs_grad = needs_grad
        self.grad = None
        self._rule = rule if needs_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[-2]

    @property
    def cols(self) -> int:
        return self.value.shape[-1]

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


def _toposort(root: DiffNode) -> list[DiffNode]:
    """The root and the nodes with a backward rule that it reaches.

    Leaves and constant subgraphs run no rule and are not visited;
    skipping a subgraph that holds no rule does not reorder the others.
    """
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
            if parent._rule is None or id(parent) in seen:
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
    """node.grad += g, summed over the video axis if node was broadcast on it.

    g has node's shape, or one leading video axis more for a 2-D node (a
    parameter); the one row broadcast, a conv3 bias, arrives summed over
    its rows by conv3. An interior node's first gradient is a copy of g.
    A parameter's video slices are added to its gradient in video order
    by one reduction over the leading axis.
    numpy reduces that axis element by element in order, except for a
    one-element gradient, whose lone contiguous axis it would sum
    pairwise; that one keeps the loop. Either way the bits are those of
    `grad += slice` per video.
    """
    if g.ndim == node.value.ndim:
        if node.grad is None:
            node.grad = g.copy()
        else:
            node.grad += g
        return
    if node.grad is None:
        node.grad = np.zeros(node.value.shape)
    if node.grad.size == 1:
        for g_video in g:
            node.grad += g_video
    else:
        np.add.reduce(np.concatenate([node.grad[None], g]), axis=0, out=node.grad)


def _swap(v: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (a view)."""
    return v.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    """Matrix product per video; b is 2-D (shared) or stacked like a."""
    if a.cols != b.rows or (b.value.ndim == 3 and a.shape[:-2] != b.shape[:-2]):
        raise ShapeMismatchError(f"matmul {a.shape} x {b.shape}")

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g @ _swap(b.value))
        if b.needs_grad:
            _accumulate(b, _swap(a.value) @ g)

    return DiffNode(a.value @ b.value, (a, b), "matmul", rule)


def _same_shape(a: DiffNode, b: DiffNode, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: {a.shape} with {b.shape}")


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    _same_shape(a, b, "add")

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g)
        if b.needs_grad:
            _accumulate(b, g)

    return DiffNode(a.value + b.value, (a, b), "add", rule)


def mul(a: DiffNode, b: DiffNode) -> DiffNode:
    _same_shape(a, b, "mul")

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g * b.value)
        if b.needs_grad:
            _accumulate(b, g * a.value)

    return DiffNode(a.value * b.value, (a, b), "mul", rule)


def scale(a: DiffNode, s: float) -> DiffNode:
    def rule(g):
        _accumulate(a, g * s)

    return DiffNode(a.value * s, (a,), "scale", rule)


def relu(a: DiffNode) -> DiffNode:
    def rule(g):
        _accumulate(a, g * (a.value > 0.0))

    return DiffNode(np.maximum(a.value, 0.0), (a,), "relu", rule)


def sigmoid(a: DiffNode) -> DiffNode:
    # evaluate on the side that keeps exp() bounded, else large negative
    # inputs overflow float64
    v = a.value
    pos = v >= 0.0
    ev = np.exp(np.where(pos, -v, v))
    s = np.where(pos, 1.0 / (1.0 + ev), ev / (1.0 + ev))

    def rule(g):
        _accumulate(a, g * s * (1.0 - s))

    return DiffNode(s, (a,), "sigmoid", rule)


def log(a: DiffNode) -> DiffNode:
    if np.any(a.value <= 0.0):
        raise DomainError("log requires strictly positive inputs")

    def rule(g):
        _accumulate(a, g / a.value)

    return DiffNode(np.log(a.value), (a,), "log", rule)


def square(a: DiffNode) -> DiffNode:
    def rule(g):
        _accumulate(a, g * 2.0 * a.value)

    return DiffNode(a.value * a.value, (a,), "square", rule)


def clip(a: DiffNode, lo: float, hi: float) -> DiffNode:
    """Clamp values to [lo, hi]; gradient passes only through the interior."""
    inside = (a.value > lo) & (a.value < hi)

    def rule(g):
        _accumulate(a, g * inside)

    return DiffNode(np.clip(a.value, lo, hi), (a,), "clip", rule)


def transpose(a: DiffNode) -> DiffNode:
    def rule(g):
        _accumulate(a, _swap(g))

    return DiffNode(np.ascontiguousarray(_swap(a.value)), (a,), "transpose", rule)


def concat_cols(a: DiffNode, b: DiffNode) -> DiffNode:
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatchError(f"concat-cols: {a.shape} with {b.shape}")
    split = a.cols

    def rule(g):
        if a.needs_grad:
            _accumulate(a, g[..., :split])
        if b.needs_grad:
            _accumulate(b, g[..., split:])

    return DiffNode(np.concatenate([a.value, b.value], axis=-1), (a, b),
                    "concat-cols", rule)


def _shift_rows(v: np.ndarray, offset: int) -> np.ndarray:
    """out[t] = v[t + offset] for offset -1 or +1, zero filled at each video's ends."""
    out = np.empty_like(v)
    if offset > 0:
        out[..., :-1, :] = v[..., 1:, :]
        out[..., -1, :] = 0.0
    else:
        out[..., 1:, :] = v[..., :-1, :]
        out[..., 0, :] = 0.0
    return out


def _times_swap(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """g @ k^T. For a one-column k each entry is a single product, which
    a broadcast multiply gives exactly, without a BLAS call per video."""
    return g * _swap(k) if k.shape[-1] == 1 else g @ _swap(k)


def conv3(x: DiffNode, taps: Sequence[DiffNode], bias: DiffNode) -> DiffNode:
    """Kernel-3 temporal convolution, zero padded per video, as one tape node.

    y[t] = x[t-1] K_neg + x[t] K_0 + x[t+1] K_pos + b for taps
    (K_neg, K_0, K_pos). The 1 x n bias b is the tape's one row
    broadcast, and its gradient is summed over the rows here. Backward
    recomputes the shifted inputs. The sums keep the grouping
    ((x[t-1] K_neg + x[t] K_0) + x[t+1] K_pos) + b, and the input
    gradient groups its terms as (-1 tap + centre) + +1 tap, so the
    result matches a graph of separate shift, matmul and add nodes bit
    for bit.
    """
    k_neg, k_0, k_pos = taps
    if x.cols != k_0.rows:
        raise ShapeMismatchError(f"conv expects width {k_0.rows}, got {x.cols}")
    xv = x.value
    y = _shift_rows(xv, -1) @ k_neg.value
    y += xv @ k_0.value
    y += _shift_rows(xv, 1) @ k_pos.value
    y += bias.value

    def rule(g):
        if x.needs_grad:
            # addition commutes: starting from the centre term gives the
            # bits of (-1 tap + centre) + +1 tap
            gx = _times_swap(g, k_0.value)
            gx[..., :-1, :] += _times_swap(g, k_neg.value)[..., 1:, :]
            gx[..., 1:, :] += _times_swap(g, k_pos.value)[..., :-1, :]
            _accumulate(x, gx)
        for k, offset in ((k_neg, -1), (k_0, 0), (k_pos, 1)):
            if k.needs_grad:
                xs = _shift_rows(xv, offset) if offset else xv
                _accumulate(k, _swap(xs) @ g)
        if bias.needs_grad:
            _accumulate(bias, g.sum(axis=-2, keepdims=True))

    return DiffNode(y, (x, k_neg, k_0, k_pos, bias), "conv3", rule)


def propagate(adjacency: np.ndarray, x: DiffNode) -> DiffNode:
    """out[b] = A_b x[b]: each video's constant T x T graph times its rows,
    for a B x T x T adjacency stack and B x T x n features."""
    if x.value.ndim != 3 or adjacency.shape != (x.shape[0], x.rows, x.rows):
        raise ShapeMismatchError(
            f"propagate: features {x.shape} need a {x.shape[0]} x {x.rows} x "
            f"{x.rows} adjacency stack, got {adjacency.shape}")

    def rule(g):
        _accumulate(x, _swap(adjacency) @ g)

    return DiffNode(adjacency @ x.value, (x,), "propagate", rule)


def softmax_rows(a: DiffNode) -> DiffNode:
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (g - dot))

    return DiffNode(s, (a,), "softmax-rows", rule)


def sum_all(a: DiffNode) -> DiffNode:
    """Sum over the last two axes: 1 x 1, or B x 1 x 1 with one sum per video."""
    def rule(g):
        _accumulate(a, g.repeat(a.rows * a.cols).reshape(a.shape))

    return DiffNode(a.value.sum(axis=(-2, -1), keepdims=True), (a,), "sum", rule)


def _column_picks(indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of entries (indices[..., c, j], c) of a T x C matrix or B x T
    x C stack, for row indices that are C x k (B x C x k); what it
    selects is C x k (B x C x k). take_along_axis builds the same index
    with several times the overhead on every call."""
    cols = np.arange(indices.shape[-2])[:, None]
    if indices.ndim == 2:
        return indices, cols
    return np.arange(indices.shape[0])[:, None, None], indices, cols


def topk_mean_columns(a: DiffNode, k: int) -> tuple[DiffNode, np.ndarray]:
    """Per-column mean of the k largest entries; 1/k gradient on the selected rows.

    Returns the 1 x cols node (B x 1 x cols for a stack) and the selected
    row indices, cols x k (B x cols x k), each column's in selection order.
    """
    if not 1 <= k <= a.rows:
        raise ShapeMismatchError(f"topk-mean: k={k} outside [1, {a.rows}]")
    # the negation, written class-major, is the one copy of the input:
    # each column is a contiguous row, and its stable sort sends ties to
    # the lower index
    columns = _swap(a.value)
    negated = np.negative(columns, out=np.empty(columns.shape))
    indices = np.ascontiguousarray(np.argsort(negated, axis=-1, kind="stable")[..., :k])
    picks = _column_picks(indices)
    # each column's picks contiguous, so the mean reduces the same k
    # values in the same order whatever the batch shape
    means = a.value[picks].mean(axis=-1)[..., None, :]

    def rule(g):
        ga = np.zeros(a.shape)
        ga[picks] = _swap(g) / k
        _accumulate(a, ga)

    return DiffNode(means, (a,), "topk-mean", rule), indices


# ---------------------------------------------------------------------------
# Adam


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam over one flat vector holding every parameter end to end.

    `value` and `grad` hold the parameters' entries and gradients in the
    order adam_init was given them; each parameter's .value and .grad
    are views of its slot, so the tape accumulates where Adam reads.
    Slot i ends at `ends[i]`.
    """

    lr: float
    value: np.ndarray
    grad: np.ndarray
    ends: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(params: Sequence[DiffNode], lr: float = 1e-4) -> AdamState:
    """Adam state for params, whose values and gradients move into its flat vectors."""
    ends = np.cumsum([p.value.size for p in params])
    value = np.concatenate([p.value.reshape(-1) for p in params])
    grad = np.concatenate([p.grad.reshape(-1) for p in params])
    for p, end in zip(params, ends):
        shape, start = p.value.shape, end - p.value.size
        p.value = value[start:end].reshape(shape)
        p.grad = grad[start:end].reshape(shape)
    return AdamState(lr=lr, value=value, grad=grad, ends=ends,
                     m=np.zeros_like(value), v=np.zeros_like(value))


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of every parameter from state.grad,
    in place; the gradient is then cleared."""
    g = state.grad
    finite = np.isfinite(g)
    if not finite.all():
        i = int(np.searchsorted(state.ends, np.argmin(finite), side="right"))
        raise NonFiniteError(f"non-finite gradient for parameter {i} "
                             f"at step {state.step + 1}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    mhat = m / c1
    vhat = v / c2
    state.value -= state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    g.fill(0.0)
