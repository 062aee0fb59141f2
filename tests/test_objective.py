import math

import numpy as np
import pytest

from gradcheck import grad_check
from motionloc import numcore as nc
from motionloc import objective as obj
from motionloc.numcore import DomainError, constant
from motionloc.objective import LossConfig


def _forced_probs(probs):
    """A softmax node whose output is forced to `probs`."""
    p = np.asarray(probs, dtype=np.float64).reshape(1, -1)
    return nc.softmax_rows(constant(np.log(p)))


def _topk_means(tcas, r):
    """aggregate_topk's probabilities, selection and k, and the top-k
    means whose softmax its probabilities are."""
    probs, indices = obj.aggregate_topk(tcas, r)
    k = indices.shape[-1]
    scores, _ = nc.topk_mean_columns(tcas, k)
    np.testing.assert_array_equal(probs.value, nc.softmax_rows(scores).value)
    return probs, indices, k, scores


def test_topk_k1_is_column_max():
    tcas = constant(np.array([[0.1, 2.0], [0.7, 1.0], [0.3, 5.0],
                              [0.2, 0.0], [0.9, 1.0], [0.4, 2.0],
                              [0.0, 0.1], [0.5, 0.2]]))
    _, _, k, scores = _topk_means(tcas, r=8)
    assert k == 1
    np.testing.assert_allclose(scores.value, [[0.9, 5.0]])


def test_topk_hand_case():
    tcas = constant(np.array([[3.0], [1.0], [2.0], [0.0]]))
    _, indices, k, scores = _topk_means(tcas, r=2)
    assert k == 2
    assert scores.value.item() == pytest.approx(2.5)
    assert sorted(indices[0]) == [0, 2]


def test_topk_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T = int(rng.integers(1, 13))
        C = int(rng.integers(1, 5))
        r = int(rng.integers(1, 10))
        vals = rng.standard_normal((T, C))
        probs, _, k, scores = _topk_means(constant(vals), r)
        assert k == max(1, T // r)
        for c in range(C):
            expect = np.sort(vals[:, c])[::-1][:k].mean()
            assert scores.value[0, c] == pytest.approx(expect)
        np.testing.assert_allclose(probs.value.sum(), 1.0, atol=1e-12)


def test_topk_shift_invariance_of_index_sets():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((10, 3))
    _, a = obj.aggregate_topk(constant(vals), r=3)
    shifted = vals.copy()
    shifted[:, 1] += 100.0
    _, b = obj.aggregate_topk(constant(shifted), r=3)
    for c in range(3):
        assert sorted(a[c]) == sorted(b[c])


def test_xe_loss_values():
    # perfect single positive
    loss = obj.xe_loss(
        _forced_probs([1 - 4e-12, 1e-12, 1e-12, 1e-12, 1e-12]),
        [1, 0, 0, 0, 0])
    assert abs(loss.value.item()) < 1e-9
    # uniform over 5
    loss = obj.xe_loss(_forced_probs([0.2] * 5), [0, 0, 1, 0, 0])
    assert loss.value.item() == pytest.approx(math.log(5), rel=1e-12)
    # two positives matched exactly: entropy of yhat
    loss = obj.xe_loss(_forced_probs([0.5, 0.5, 0.0 + 1e-12]), [1, 1, 0])
    assert loss.value.item() == pytest.approx(math.log(2), rel=1e-9)


def test_xe_loss_class_permutation_invariance():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(6)
    label = np.array([1, 0, 1, 0, 0, 1], dtype=float)
    perm = rng.permutation(6)

    def loss_of(s, y):
        return obj.xe_loss(nc.softmax_rows(constant(s)), y).value.item()

    assert loss_of(scores, label) == pytest.approx(
        loss_of(scores[perm], label[perm]), rel=1e-12)


def test_label_needs_positive():
    with pytest.raises(DomainError):
        obj.normalized_label([0, 0, 0])


def test_video_motionness_values_and_gradient():
    m = constant(np.array([[0.2], [0.8], [0.5]]))
    m.needs_grad = True
    m.grad = np.zeros_like(m.value)
    mu = obj.video_motionness(m, [[1, 2], [0, 2]])
    np.testing.assert_allclose(mu.value, [[0.65, 0.35]])
    loss = nc.sum_all(mu * constant(np.array([[1.0, 0.0]])))
    nc.backward(loss)
    np.testing.assert_allclose(m.grad, [[0.0], [0.5], [0.5]])


def test_video_motionness_constant_input():
    m = constant(np.full((6, 1), 0.37))
    mu = obj.video_motionness(m, [[0, 3], [2, 4]])
    np.testing.assert_allclose(mu.value, 0.37)


def test_motion_guided_collapses_to_xe_at_mu_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        C = int(rng.integers(2, 6))
        scores = rng.standard_normal((1, C))
        label = np.zeros(C)
        label[rng.integers(0, C)] = 1
        if rng.random() < 0.4:
            label[rng.integers(0, C)] = 1
        probs = nc.softmax_rows(constant(scores))
        mu = constant(np.full((1, C), 1.0 - 1e-9))
        lg = obj.motion_guided_loss(probs, mu, label, LossConfig())
        la = obj.xe_loss(probs, label)
        assert abs(lg.value.item() - la.value.item()) < 1e-6


def _surface_point(p, mu):
    return obj.loss_surface([p], [mu])[0, 0]


def test_surface_orderings_match_reference_points():
    L = _surface_point
    assert L(0.1, 0.1) > L(0.9, 0.1) > L(0.9, 0.9)
    assert L(0.1, 0.1) == pytest.approx(-0.01 * math.log(0.1) - math.log(0.01))
    # decreasing along both axes over the default sampling box
    p_grid, mu_grid = obj.default_surface_grids()
    M = obj.loss_surface(p_grid, mu_grid)
    assert M.shape == (50, 50)
    assert np.all(np.diff(M, axis=0) < 0)  # along p
    assert np.all(np.diff(M, axis=1) < 0)  # along mu
    # both terms vanish at (1, 1); approach the limit
    assert L(1.0 - 1e-12, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-9)


def test_surface_gradient_sign_in_mu():
    """FD confirms dL/dmu = -2 mu log p - 2/mu, negative iff mu^2 log(1/p) < 1."""
    for p in (0.05, 0.5, 0.99):
        for mu in (0.1, 0.5, 0.9):
            h = 1e-7
            fd = (_surface_point(p, mu + h) - _surface_point(p, mu - h)) / (2 * h)
            sym = -2 * mu * math.log(p) - 2.0 / mu
            assert fd == pytest.approx(sym, rel=1e-5)
            assert (sym < 0) == (mu * mu * math.log(1.0 / p) < 1.0)
    # outside the monotone region the first term dominates and the sign flips
    assert -2 * 0.9 * math.log(0.05) - 2.0 / 0.9 > 0


def test_loss_surface_rejects_boundary():
    with pytest.raises(DomainError):
        obj.loss_surface([0.0, 0.5], [0.5])
    with pytest.raises(DomainError):
        obj.loss_surface([0.5], [1.0])


def test_regularizer_masks():
    scores = np.array([[2.0, -1.0, 0.5]])
    label = np.array([1, 0, 1], dtype=float)
    probs = nc.softmax_rows(constant(scores))
    mu_vals = np.array([[0.3, 0.6, 0.9]])
    mu = constant(mu_vals)
    yhat = label / label.sum()
    p = np.exp(scores[0]) / np.exp(scores[0]).sum()
    main = -(mu_vals[0] ** 2 * yhat * np.log(p)).sum()

    full = obj.motion_guided_loss(probs, mu, label, LossConfig())
    assert full.value.item() == pytest.approx(main - np.log(mu_vals[0] ** 2).sum())
    pos = obj.motion_guided_loss(
        probs, mu, label, LossConfig(regularizer_mask="positive_only"))
    expect = main - np.log(mu_vals[0, 0] ** 2) - np.log(mu_vals[0, 2] ** 2)
    assert pos.value.item() == pytest.approx(expect)
    none = obj.motion_guided_loss(
        probs, mu, label, LossConfig(regularizer_mask="none"))
    assert none.value.item() == pytest.approx(main)


def test_full_model_loss_gradcheck():
    """Both loss kinds through the whole model vs finite differences."""
    from motionloc import network as net
    from motionloc.datagen import SyntheticVideo
    from motionloc.motiongraph import GraphConfig, build_graph
    rng = np.random.default_rng(4)
    T, d, C = 7, 4, 3
    mcfg = net.ModelConfig()
    video = SyntheticVideo(
        id="t", T=T,
        appearance=rng.standard_normal((T, d)),
        motion=rng.standard_normal((T, d)),
        gt_intervals=[(1, 3, 0)], label=np.array([1.0, 0.0, 1.0]),
        confounder_idx=[])
    params = net.init_params(d, C, mcfg, seed=5)
    graph = build_graph(video.motion, params.W1, params.W2,
                        GraphConfig(theta_pos=0.3, gamma=0.3))
    for kind in ("xe", "motion_guided"):
        cfg = LossConfig(loss_kind=kind)

        def build():
            out = net.full_forward([video], graph.adjacency[None], params, mcfg)
            loss, _ = obj.per_video_loss(out, video.label, cfg)
            return loss

        err = grad_check(build, params.trainable(), h=1e-5)
        assert err < 1e-4, kind


def test_loss_config_validation():
    for bad in ({"r": 0}, {"regularizer_mask": "foo"}, {"loss_kind": "mse"}):
        with pytest.raises(ValueError):
            LossConfig(**bad)


def test_batched_tape_gradients_equal_per_video_tapes():
    """One tape over several videos gives the bits of one tape per video.

    Per-video gradients added in video order are what training did
    before tapes were batched; both sides run here, on the same BLAS.
    """
    from motionloc import network as net
    from motionloc.datagen import CorpusSpec, generate_corpus
    from motionloc.motiongraph import GraphConfig, build_graph
    videos = generate_corpus(CorpusSpec(n_train=9, n_test=1, T=64, d=4, C=3,
                                        seed=21))[0]
    for stream in ("motion", "appearance", "both"):
        mcfg = net.ModelConfig(guidance_stream=stream)
        params = net.init_params(4, 3, mcfg, seed=22)
        trainable = params.trainable()
        for mode in ("sparse", "dense", "mlp"):
            adjacency = [build_graph(net.guidance_features(v, mcfg), params.W1,
                                     params.W2, GraphConfig(mode=mode)).adjacency
                         for v in videos]
            for lcfg in (LossConfig(loss_kind="xe"),
                         LossConfig(regularizer_mask="all_classes"),
                         LossConfig(regularizer_mask="positive_only"),
                         LossConfig(regularizer_mask="none")):

                def run(tapes):
                    for p in trainable:
                        p.grad.fill(0.0)
                    values = []
                    for tape in tapes:
                        graphs = (None if mode == "mlp" else
                                  np.stack([adjacency[i] for i in tape]))
                        out = net.full_forward([videos[i] for i in tape],
                                               graphs, params, mcfg)
                        loss, _ = obj.per_video_loss(
                            out, np.stack([videos[i].label for i in tape]), lcfg)
                        nc.backward(loss)
                        values.extend(loss.value.reshape(-1).tolist())
                    return values, [p.grad.copy() for p in trainable]

                batched = run([range(9)])
                single = run([[i] for i in range(9)])
                assert batched[0] == single[0], (stream, mode, lcfg)
                for a, b in zip(batched[1], single[1]):
                    np.testing.assert_array_equal(a, b, err_msg=f"{stream} {mode} {lcfg}")
