import numpy as np
import pytest

from gradcheck import grad_check
from motionloc import numcore as nc


def test_matmul_identity():
    m = nc.param([[0.3, -1.2], [4.0, 0.7]])
    out = nc.matmul(nc.constant(np.eye(2)), m)
    np.testing.assert_array_equal(out.value, m.value)


def test_matmul_hand_case():
    a = nc.param([[1.0, 2.0], [3.0, 4.0]])
    b = nc.param([[1.0], [1.0]])
    out = nc.matmul(a, b)
    np.testing.assert_array_equal(out.value, [[3.0], [7.0]])


def test_matmul_gradients_match_finite_differences():
    rng = nc.split_rng(11, 0)
    av = rng.standard_normal((3, 4))
    bv = rng.standard_normal((4, 2))
    r = rng.standard_normal((3, 2))  # fixed readout weights

    a = nc.param(av)
    b = nc.param(bv)
    loss = nc.sum_all(nc.mul(nc.matmul(a, b), nc.constant(r)))
    nc.backward(loss)

    # independent oracle: value-only numpy evaluation, central differences
    def f(am, bm):
        return float(np.sum((am @ bm) * r))

    h = 1e-5
    for p, base in ((a, av), (b, bv)):
        num = np.zeros_like(base)
        for i in np.ndindex(base.shape):
            up = base.copy()
            dn = base.copy()
            up[i] += h
            dn[i] -= h
            if p is a:
                num[i] = (f(up, bv) - f(dn, bv)) / (2 * h)
            else:
                num[i] = (f(av, up) - f(av, dn)) / (2 * h)
        rel = np.abs(p.grad - num) / np.maximum(1.0, np.abs(p.grad))
        assert rel.max() < 1e-4


def test_matmul_shape_mismatch():
    with pytest.raises(nc.ShapeMismatchError):
        nc.matmul(nc.param(np.zeros((2, 3))), nc.param(np.zeros((2, 3))))


def test_relu_definition():
    out = nc.relu(nc.param([[-2.0, 3.0]]))
    np.testing.assert_array_equal(out.value, [[0.0, 3.0]])


def test_softmax_symmetry():
    out = nc.softmax_rows(nc.param([[0.0, 0.0]]))
    np.testing.assert_allclose(out.value, [[0.5, 0.5]])


def test_softmax_rows_are_distributions():
    rng = nc.split_rng(11, 1)
    for _ in range(50):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        out = nc.softmax_rows(nc.param(rng.standard_normal((rows, cols)) * 5))
        assert (out.value >= 0).all()
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-9)


def test_topk_mean_definition_and_gradient():
    v = nc.param(np.array([[0.1], [0.9], [0.4]]))
    out, idx = nc.topk_mean_columns(v, 2)
    assert out.value.item() == pytest.approx(0.65)
    assert idx.tolist() == [[1, 2]]
    nc.backward(out)
    np.testing.assert_allclose(v.grad, [[0.0], [0.5], [0.5]])


def test_topk_mean_matches_sort_oracle():
    rng = nc.split_rng(11, 2)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        # draw from a small value set so ties are common
        col = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        k = int(rng.integers(1, n + 1))
        out, idx = nc.topk_mean_columns(nc.param(col.reshape(-1, 1)), k)
        expected = float(np.mean(sorted(col, reverse=True)[:k]))
        assert out.value.item() == pytest.approx(expected, abs=1e-12)
        # tie rule: selected indices are the lexicographically smallest
        # index set achieving the top-k value multiset
        chosen = sorted(col[idx[0]], reverse=True)
        assert chosen == sorted(col, reverse=True)[:k]
        for rank, i in enumerate(idx[0]):
            same_value_earlier = [j for j in range(i) if col[j] == col[i]]
            assert all(j in idx[0] for j in same_value_earlier)


def test_topk_mean_is_the_per_column_mean_bit_for_bit():
    """Each video's column mean is np.mean over its k picks, in pick order."""
    a = nc.split_rng(11, 4).standard_normal((3, 40, 5))
    for value in (a, a[0]):  # a stack and a single matrix
        out, idx = nc.topk_mean_columns(nc.constant(value), 12)
        stack = value.reshape((-1,) + value.shape[-2:])
        got = out.value.reshape(len(stack), 5)
        for b, m in enumerate(stack):
            for c in range(5):
                picks = np.argsort(-m[:, c], kind="stable")[:12]
                assert idx.reshape(len(stack), 5, 12)[b, c].tolist() == picks.tolist()
                assert got[b, c] == m[picks, c].mean()


def test_log_domain_error():
    with pytest.raises(nc.DomainError):
        nc.log(nc.param([[0.0, 1.0]]))


def test_composite_graphs_match_finite_differences():
    for trial in range(12):
        r2 = nc.split_rng(11, 3, trial)
        rows = int(r2.integers(2, 8))
        inner = int(r2.integers(1, 8))
        cols = int(r2.integers(2, 8))
        x = nc.param(r2.standard_normal((rows, inner)))
        w = nc.param(r2.standard_normal((inner, cols)))
        bias = nc.param(r2.standard_normal((1, cols)))
        gate = nc.param(r2.standard_normal((rows, cols)))
        taps = [nc.param(r2.standard_normal((2 * cols, 2 * cols)))
                for _ in range(3)]
        conv_bias = nc.param(r2.standard_normal((1, 2 * cols)))
        k = int(r2.integers(1, cols + 1))

        def build():
            y = nc.add(nc.matmul(x, w), bias)
            y = nc.concat_cols(nc.relu(y), nc.sigmoid(y))
            y = nc.mul(y, nc.concat_cols(gate, gate))
            y = nc.conv3(y, taps, conv_bias)
            y = nc.softmax_rows(y)
            y = nc.square(nc.log(nc.clip(y, 1e-9, 1.0)))
            topk, _ = nc.topk_mean_columns(nc.transpose(y), k)
            return nc.add(nc.scale(nc.sum_all(topk), 1.0 / topk.value.size),
                          nc.sum_all(nc.scale(y, 0.25)))

        err = grad_check(build, [x, w, bias, gate, *taps, conv_bias],
                         h=1e-5)
        assert err < 1e-4, f"trial {trial}: max rel err {err}"


def test_grad_check_quadratic():
    x = nc.param([[3.0]])
    err = grad_check(lambda: nc.square(x), [x], h=1e-4)
    assert err < 1e-6
    # analytic derivative of x^2 at 3 is 6
    loss = nc.square(x)
    nc.backward(loss)
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_grad_check_rejects_bad_h():
    x = nc.param([[1.0]])
    with pytest.raises(ValueError):
        grad_check(lambda: nc.square(x), [x], h=1e-2)


def test_backward_visits_shared_subgraph_once():
    # y = x + x doubles the gradient exactly once
    x = nc.param([[2.0]])
    y = nc.add(x, x)
    nc.backward(y)
    assert x.grad[0, 0] == pytest.approx(2.0)


def test_adam_zero_gradient_keeps_parameters():
    p = nc.param([[1.0, -2.0]])
    state = nc.adam_init([p], lr=0.1)
    nc.adam_step(state)
    np.testing.assert_array_equal(p.value, [[1.0, -2.0]])
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    p = nc.param([[1.0, 1.0]])
    state = nc.adam_init([p], lr=0.1)
    p.grad[...] = [[0.5, -3.0]]
    nc.adam_step(state)
    # first-step bias correction gives mhat/sqrt(vhat) = sign(g)
    np.testing.assert_allclose(p.value, [[1.0 - 0.1, 1.0 + 0.1]], rtol=1e-6)


def test_adam_matches_independent_scalar_recursion():
    p = nc.param([[1.0]])
    state = nc.adam_init([p], lr=0.1)

    # textbook recursion run separately on plain floats
    x, m, v = 1.0, 0.0, 0.0
    trace = []
    ours = []
    for t in range(1, 101):
        g = 2.0 * x
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        trace.append(x)

        p.grad[...] = 2.0 * p.value
        nc.adam_step(state)
        ours.append(p.value[0, 0])

    np.testing.assert_allclose(ours, trace, rtol=1e-9, atol=1e-12)
    # the recursion overshoots zero near step 11 and then oscillates, so the
    # magnitude decrease holds per-step up to the crossing and for the peak
    # envelope afterwards
    mags = [abs(t) for t in trace]
    crossing = next(i for i, t in enumerate(trace) if t <= 0.0)
    assert all(b < a for a, b in zip(mags[:crossing], mags[1:crossing]))
    peaks = [mags[i] for i in range(1, 99)
             if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1]]
    assert all(b < a for a, b in zip([1.0] + peaks, peaks))
    assert mags[-1] < 0.01


def test_adam_aborts_on_non_finite_gradient():
    p = nc.param([[1.0]])
    state = nc.adam_init([p])
    p.grad[...] = np.nan
    with pytest.raises(nc.NonFiniteError):
        nc.adam_step(state)


def test_adam_flat_buffer_names_the_poisoned_parameter():
    """A bad entry anywhere in a parameter's slot of the flat gradient
    names that parameter's index in ModelParams.trainable()."""
    from motionloc.network import ModelConfig, init_params
    trainable = init_params(4, 3, ModelConfig(), seed=0).trainable()
    state = nc.adam_init(trainable)
    values = [p.value.copy() for p in trainable]
    for p in trainable:
        assert np.shares_memory(p.value, state.value)
        assert np.shares_memory(p.grad, state.grad)
    start = 0
    for i, p in enumerate(trainable):
        for slot, bad in ((start, np.nan), (start + p.value.size - 1, np.inf)):
            state.grad[slot] = bad
            with pytest.raises(nc.NonFiniteError,
                               match=rf"^non-finite gradient for parameter {i} at step 1$"):
                nc.adam_step(state)
            state.grad[slot] = 0.0
        start += p.value.size
    assert start == state.grad.size
    # two bad parameters: the first is named; nothing moved meanwhile
    trainable[9].grad[0, 0] = -np.inf
    trainable[4].grad[-1, -1] = np.nan
    with pytest.raises(nc.NonFiniteError, match="parameter 4 at step 1"):
        nc.adam_step(state)
    assert state.step == 0
    for p, v in zip(trainable, values):
        np.testing.assert_array_equal(p.value, v)


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 3)])
def test_stacked_parameter_gradient_adds_videos_in_order(shape):
    """Each video's slice lands on a parameter as `grad += slice`, in
    video order, after any gradient an earlier tape left there.

    Slices span twelve decades, so a sum in any other grouping (numpy's
    pairwise sum, say) changes the bits. Each tape is constant(X) @ p
    with X_b the identity, read out by R_b, so video b sends exactly
    R_b to p.
    """
    rng = nc.split_rng(11, 6, *shape)
    n, m = shape
    for B in (1, 7, 8, 9, 16):
        p = nc.param(np.zeros(shape))
        want = np.zeros(shape)
        for tape in range(2):  # the second tape adds to a running gradient
            R = rng.standard_normal((B, n, m)) * 10.0 ** rng.integers(-6, 6, (B, n, m))
            x = nc.constant(np.broadcast_to(np.eye(n), (B, n, n)))
            nc.backward(nc.sum_all(nc.mul(nc.matmul(x, p), nc.constant(R))))
            for r in R:
                want += r
            assert p.grad.tobytes() == want.tobytes(), (B, tape)


@pytest.mark.parametrize("n", [1, 5, 16, 32])
@pytest.mark.parametrize("T", [8, 63, 64, 100, 256, 257])
@pytest.mark.parametrize("B", [1, 2, 7, 8])
def test_propagate_stack_equals_per_video_matmuls(B, T, n):
    """One stacked product each way gives the bits of a matmul per video:
    A_b x_b forward and A_b^T g_b back to the features."""
    rng = nc.split_rng(11, 7, B, T, n)
    A = rng.standard_normal((B, T, T))
    xv = rng.standard_normal((B, T, n))
    g = rng.standard_normal((B, T, n))
    x = nc.DiffNode(xv, needs_grad=True)
    out = nc.propagate(A, x)
    nc.backward(nc.sum_all(nc.mul(out, nc.constant(g))))
    for b in range(B):
        assert out.value[b].tobytes() == np.matmul(A[b], xv[b]).tobytes(), b
        assert x.grad[b].tobytes() == np.matmul(A[b].T, g[b]).tobytes(), b


def test_propagate_rejects_a_stack_that_does_not_fit():
    x = nc.constant(np.zeros((3, 8, 4)))
    for shape in ((2, 8, 8), (4, 8, 8), (3, 7, 7), (3, 9, 9), (3, 8, 9), (8, 8)):
        with pytest.raises(nc.ShapeMismatchError):
            nc.propagate(np.zeros(shape), x)
    with pytest.raises(nc.ShapeMismatchError):  # features need a video axis
        nc.propagate(np.zeros((1, 8, 8)), nc.constant(np.zeros((8, 4))))


def test_split_rng_is_deterministic_and_splits():
    a = nc.split_rng(42, 1, 2).standard_normal(4)
    b = nc.split_rng(42, 1, 2).standard_normal(4)
    c = nc.split_rng(42, 1, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_conv3_shifts_within_each_video():
    """Each tap reads its neighbour row with zero fill at every video's ends."""
    x = nc.constant([[[1.0], [2.0], [3.0]], [[10.0], [20.0], [30.0]]])
    one, zero = nc.param([[1.0]]), nc.param([[0.0]])
    bias = nc.param([[0.0]])
    np.testing.assert_array_equal(
        nc.conv3(x, [zero, zero, one], bias).value[:, :, 0],
        [[2.0, 3.0, 0.0], [20.0, 30.0, 0.0]])
    np.testing.assert_array_equal(
        nc.conv3(x, [one, zero, zero], bias).value[:, :, 0],
        [[0.0, 1.0, 2.0], [0.0, 10.0, 20.0]])
    np.testing.assert_array_equal(
        nc.conv3(x, [zero, one, zero], nc.param([[0.5]])).value, x.value + 0.5)


def test_conv3_matches_the_unfused_tape_bit_for_bit():
    """conv3 reproduces shift, matmul and add nodes, sums in their order.

    The separate nodes added (x[t-1] K_neg + x[t] K_0) + x[t+1] K_pos,
    then the bias, and sent the input gradient back through the -1 tap,
    then the centre, then the +1 tap.
    """
    rng = nc.split_rng(11, 5)
    xv = rng.standard_normal((9, 6))
    x = nc.param(xv)
    taps = [nc.param(rng.standard_normal((6, 4))) for _ in range(3)]
    bias = nc.param(rng.standard_normal((1, 4)))
    readout = rng.standard_normal((9, 4))
    y = nc.conv3(x, taps, bias)
    nc.backward(nc.sum_all(nc.mul(y, nc.constant(readout))))

    kn, k0, kp = (t.value for t in taps)
    below = np.vstack([np.zeros((1, 6)), xv[:-1]])   # row t holds x[t-1]
    above = np.vstack([xv[1:], np.zeros((1, 6))])    # row t holds x[t+1]
    np.testing.assert_array_equal(
        y.value, ((below @ kn + xv @ k0) + above @ kp) + bias.value)
    gx = np.zeros_like(xv)
    gx[:-1] += (readout @ kn.T)[1:]
    gx += readout @ k0.T
    gx[1:] += (readout @ kp.T)[:-1]
    np.testing.assert_array_equal(x.grad, gx)
    for tap, shifted in zip(taps, (below, xv, above)):
        np.testing.assert_array_equal(tap.grad, shifted.T @ readout)
    np.testing.assert_array_equal(bias.grad, readout.sum(axis=0, keepdims=True))
