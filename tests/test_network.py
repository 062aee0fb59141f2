import numpy as np
import pytest

from gradcheck import grad_check
from motionloc import network as net
from motionloc import numcore as nc
from motionloc.motiongraph import GraphConfig, build_graph
from motionloc.network import ModelConfig
from motionloc.numcore import ShapeMismatchError

MCFG = ModelConfig()


def _adjacency_for(motion, params, cfg=None):
    cfg = cfg or GraphConfig()
    return build_graph(motion, params.W1, params.W2, cfg).adjacency


def _motionness(feats, adjacency, params):
    """guidance_forward on one video (a batch of one): T x 1 motionness."""
    stack = None if adjacency is None else adjacency[None]
    mu = net.guidance_forward(np.asarray(feats)[None], stack, params)
    assert mu.shape == (1, len(feats), 1)
    return mu.value[0]


def test_zero_inputs_zero_bias_gives_zero_tcas():
    params = net.init_params(d=4, C=3, mcfg=MCFG, seed=0)
    T = 10
    tcas = net.base_forward(np.zeros((T, 4)), np.zeros((T, 4)), params)
    np.testing.assert_array_equal(tcas.value, 0.0)
    assert tcas.shape == (T, 3)


def test_tcas_shape_and_nonnegativity():
    rng = np.random.default_rng(0)
    params = net.init_params(d=6, C=5, mcfg=MCFG, seed=1)
    for T in (1, 2, 17):
        tcas = net.base_forward(rng.standard_normal((T, 6)),
                                rng.standard_normal((T, 6)), params)
        assert tcas.shape == (T, 5)
        assert np.all(tcas.value >= 0.0)


def test_conv_locality_probe():
    """Kernel-3 stacks see +-2 snippets; a bump at t+5 cannot reach t."""
    rng = np.random.default_rng(2)
    params = net.init_params(d=4, C=3, mcfg=MCFG, seed=3)
    app = rng.standard_normal((16, 4))
    mot = rng.standard_normal((16, 4))
    base = net.base_forward(app, mot, params).value
    app2 = app.copy()
    app2[9] += 10.0  # t = 4 probe point, bump at 9
    bumped = net.base_forward(app2, mot, params).value
    np.testing.assert_array_equal(base[4], bumped[4])
    assert not np.array_equal(base[9], bumped[9])


def test_stream_shape_mismatch_rejected():
    params = net.init_params(d=4, C=3, mcfg=MCFG, seed=0)
    with pytest.raises(ShapeMismatchError):
        net.base_forward(np.zeros((8, 4)), np.zeros((8, 5)), params)
    # the guidance branch checks snippet counts against each adjacency
    with pytest.raises(ShapeMismatchError):
        net.guidance_forward(np.zeros((1, 8, 4)), np.eye(7)[None], params)
    # and takes one adjacency per video
    with pytest.raises(ShapeMismatchError):
        net.guidance_forward(np.zeros((2, 8, 4)), np.eye(8)[None], params)


def test_motionness_zero_weights_is_half():
    params = net.init_params(d=4, C=3, mcfg=MCFG, seed=0)
    for tap in params.mot.taps:
        tap.value[:] = 0.0
    for W in params.gcn:
        W.value[:] = np.eye(4)
    mu = _motionness(np.ones((6, 4)), np.eye(6), params)
    np.testing.assert_allclose(mu, 0.5)


def test_motionness_bounds_random():
    rng = np.random.default_rng(4)
    params = net.init_params(d=5, C=4, mcfg=MCFG, seed=5)
    for _ in range(20):
        feats = 50.0 * rng.standard_normal((12, 5))
        mu = _motionness(feats, _adjacency_for(feats, params), params)
        assert np.all(mu >= net.MOTIONNESS_EPS)
        assert np.all(mu <= 1.0 - net.MOTIONNESS_EPS)


def test_mlp_equals_sparse_under_identity_adjacency():
    """Identity adjacency propagates like no adjacency (mlp mode)."""
    rng = np.random.default_rng(6)
    params = net.init_params(d=5, C=4, mcfg=MCFG, seed=7)
    feats = rng.standard_normal((9, 5))
    a = _motionness(feats, np.eye(9), params)
    b = _motionness(feats, None, params)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_single_gcn_layer_swap_adjacency():
    """G=[[0,1],[1,0]], W=I swaps the two node features (pre-ReLU &
    nonnegative input, so ReLU is transparent)."""
    mcfg = ModelConfig(k_layers=1)
    params = net.init_params(d=3, C=2, mcfg=mcfg, seed=8)
    params.gcn[0].value[:] = np.eye(3)
    feats = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    x0 = nc.constant(feats[None])
    out = nc.propagate(swap[None], x0) @ params.gcn[0]
    np.testing.assert_allclose(out.value[0], feats[::-1])


def test_permutation_equivariance_of_gcn_stack():
    """Permuting snippets and conjugating G permutes the pre-conv features."""
    rng = np.random.default_rng(9)
    mcfg = ModelConfig(k_layers=2)
    params = net.init_params(d=4, C=2, mcfg=mcfg, seed=10)
    T = 8
    feats = rng.standard_normal((T, 4))
    G = rng.standard_normal((T, T))
    perm = rng.permutation(T)
    P = np.eye(T)[perm]

    def pre_conv(feats, G):
        x = nc.constant(feats[None])
        x0 = x
        for W in params.gcn:
            x = nc.relu(nc.propagate(G[None], x) @ W)
        return nc.concat_cols(x, x0).value[0]

    plain = pre_conv(feats, G)
    conjugated = pre_conv(P @ feats, P @ G @ P.T)
    np.testing.assert_allclose(conjugated, P @ plain, atol=1e-10)


def test_guidance_stream_routing():
    from motionloc.datagen import CorpusSpec, generate_corpus
    spec = CorpusSpec(n_train=1, n_test=1, T=64, d=8, C=3, seed=11)
    video = generate_corpus(spec)[0][0]
    np.testing.assert_array_equal(
        net.guidance_features(video, ModelConfig(guidance_stream="motion")),
        video.motion)
    np.testing.assert_array_equal(
        net.guidance_features(video, ModelConfig(guidance_stream="appearance")),
        video.appearance)
    both = net.guidance_features(video, ModelConfig(guidance_stream="both"))
    assert both.shape == (64, 16)
    np.testing.assert_array_equal(both[:, :8], video.appearance)
    # widths chain: params built for "both" accept the concatenated stream
    mcfg = ModelConfig(guidance_stream="both")
    params = net.init_params(d=8, C=3, mcfg=mcfg, seed=12)
    g = build_graph(both, params.W1, params.W2, GraphConfig())
    assert _motionness(both, g.adjacency, params).shape == (64, 1)


def test_full_forward_deterministic_and_differentiable():
    from motionloc.datagen import CorpusSpec, generate_corpus
    spec = CorpusSpec(n_train=1, n_test=1, T=64, d=5, C=3, seed=13)
    video = generate_corpus(spec)[0][0]
    mcfg = ModelConfig()
    params = net.init_params(d=5, C=3, mcfg=mcfg, seed=14)
    g = _adjacency_for(video.motion, params)[None]
    out1 = net.full_forward([video], g, params, mcfg)
    out2 = net.full_forward([video], g, params, mcfg)
    np.testing.assert_array_equal(out1.tcas.value, out2.tcas.value)
    np.testing.assert_array_equal(out1.motionness.value, out2.motionness.value)

    def build_loss():
        out = net.full_forward([video], g, params, mcfg)
        return (nc.scale(nc.sum_all(out.tcas), 1.0 / out.tcas.value.size)
                + nc.scale(nc.sum_all(out.motionness),
                           1.0 / out.motionness.value.size))

    err = grad_check(build_loss, params.trainable(), h=1e-5)
    assert err < 1e-4


def test_checkpoint_roundtrip(tmp_path):
    params = net.init_params(d=6, C=4, mcfg=ModelConfig(), seed=18)
    net.save_params(tmp_path / "ckpt", params)
    loaded = net.load_params(tmp_path / "ckpt")
    # f64 blobs: the round trip is exact and a second save is byte-stable
    net.save_params(tmp_path / "ckpt2", loaded)
    for f in sorted((tmp_path / "ckpt").iterdir()):
        assert f.read_bytes() == (tmp_path / "ckpt2" / f.name).read_bytes(), f.name
    for (na, va), (nb, vb) in zip(net._named_tensors(params),
                                  net._named_tensors(loaded)):
        assert na == nb
        np.testing.assert_array_equal(va, vb)
    assert len(loaded.gcn) == len(params.gcn)
    # loaded parameters are ordinary writable arrays that Adam can update
    for p in loaded.trainable():
        p.value += 0.0


def test_checkpoint_truncation_detected(tmp_path):
    params = net.init_params(d=3, C=2, mcfg=ModelConfig(), seed=19)
    net.save_params(tmp_path / "c", params)
    victim = tmp_path / "c" / "gcn_0.bin"
    victim.write_bytes(victim.read_bytes()[:-4])
    with pytest.raises(ValueError, match="gcn.0"):
        net.load_params(tmp_path / "c")


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(k_layers=0).validate()
    with pytest.raises(ValueError):
        ModelConfig(guidance_stream="audio").validate()
