"""Finite-difference gradient oracle shared by the tape tests.

Not collected by pytest (no test_ prefix); test modules import it as
`from gradcheck import grad_check`.
"""
from typing import Callable, Sequence

import numpy as np

from motionloc.numcore import (DiffNode, NonFiniteError, ShapeMismatchError,
                               backward)


def _zero_grads(params: Sequence[DiffNode]) -> None:
    for p in params:
        p.grad.fill(0.0)


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
    _zero_grads(params)
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
    _zero_grads(params)
    return max_err
