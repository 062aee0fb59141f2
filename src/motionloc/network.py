"""Two-branch snippet scoring model.

The base branch embeds the concatenated appearance/motion streams with a
kernel-3 temporal convolution and emits per-snippet class scores (TCAS).
The guidance branch runs K graph-convolution rounds over one chosen
stream, concatenates a shortcut copy of its input, and emits a bounded
per-snippet motionness score through another temporal convolution.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numcore as nc
from .numcore import DiffNode, ShapeMismatchError, as_matrix, param

MOTIONNESS_EPS = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    k_layers: int = 2
    guidance_stream: str = "motion"   # motion | appearance | both

    def validate(self):
        if self.k_layers < 1:
            raise ValueError(f"k_layers must be >= 1, got {self.k_layers}")
        if self.guidance_stream not in ("motion", "appearance", "both"):
            raise ValueError("guidance_stream must be motion, appearance or both,"
                             f" got {self.guidance_stream!r}")

    def guidance_width(self, d):
        return 2 * d if self.guidance_stream == "both" else d


@dataclass
class Conv3:
    """Temporal convolution, kernel 3, zero padded: taps for offsets -1,0,+1."""
    taps: list
    bias: DiffNode


@dataclass
class ModelParams:
    embed: Conv3          # 2d -> h
    cls: Conv3            # h -> C
    gcn: list             # K square matrices, guidance width
    mot: Conv3            # 2 * guidance width -> 1
    W1: np.ndarray = field(repr=False)   # fixed edge projections
    W2: np.ndarray = field(repr=False)

    def trainable(self):
        nodes = []
        for conv in (self.embed, self.cls, self.mot):
            nodes.extend(conv.taps)
            nodes.append(conv.bias)
        nodes.extend(self.gcn)
        return nodes


def _init_conv(rng, in_dim, out_dim):
    std = 1.0 / np.sqrt(3 * in_dim)
    taps = [param(std * rng.standard_normal((in_dim, out_dim))) for _ in range(3)]
    return Conv3(taps=taps, bias=param(np.zeros((1, out_dim))))


def init_params(d, C, mcfg, seed):
    """Fresh parameters for stream width d and C classes.

    Gaussian weights with std 1/sqrt(fan_in), zero biases; the edge
    projections start at identity plus small noise and stay fixed (the
    thresholded edge selection gives them no gradient path).
    """
    mcfg.validate()
    dg = mcfg.guidance_width(d)
    h = 2 * d
    embed = _init_conv(nc.split_rng(seed, 0), 2 * d, h)
    cls = _init_conv(nc.split_rng(seed, 1), h, C)
    rng = nc.split_rng(seed, 2)
    std = 1.0 / np.sqrt(dg)
    gcn = [param(std * rng.standard_normal((dg, dg))) for _ in range(mcfg.k_layers)]
    mot = _init_conv(nc.split_rng(seed, 3), 2 * dg, 1)
    rng = nc.split_rng(seed, 4)
    W1 = np.eye(dg) + 0.01 * rng.standard_normal((dg, dg))
    W2 = np.eye(dg) + 0.01 * rng.standard_normal((dg, dg))
    return ModelParams(embed=embed, cls=cls, gcn=gcn, mot=mot, W1=W1, W2=W2)


def base_forward(appearance, motion, params):
    """TCAS: embed the fused streams, then score classes, ReLU both stages.

    The streams are T x d for one video or B x T x d for a batch.
    """
    appearance = as_matrix(appearance, "appearance", batched=True)
    motion = as_matrix(motion, "motion", batched=True)
    if appearance.shape != motion.shape:
        raise ShapeMismatchError(
            f"streams disagree: {appearance.shape} vs {motion.shape}")
    if appearance.shape[-2] < 1:
        raise ShapeMismatchError("need at least one snippet")
    # both streams were checked above; the concatenation needs no second check
    fused = DiffNode(np.concatenate([appearance, motion], axis=-1), needs_grad=False)
    embedded = nc.relu(nc.conv3(fused, params.embed.taps, params.embed.bias))
    return nc.relu(nc.conv3(embedded, params.cls.taps, params.cls.bias))


def guidance_forward(features, adjacency, params):
    """Motionness (B x T x 1) from K graph-conv rounds plus shortcut.

    features is B x T x d, with one entry of adjacency per video. Each
    round is X^k = relu(G X^{k-1} W^k) with the video's own adjacency G; None
    entries (mlp mode) drop G entirely (relu(X W^k) per round).
    """
    x0 = DiffNode(as_matrix(features, "guidance features", batched=True),
                  needs_grad=False)
    if x0.value.ndim != 3 or len(adjacency) != x0.shape[0]:
        raise ShapeMismatchError(
            f"need B x T x d features and B graphs, got {x0.shape} and "
            f"{len(adjacency)}")
    propagated = adjacency[0] is not None
    x = x0
    for W in params.gcn:
        x = nc.relu((nc.propagate(adjacency, x) if propagated else x) @ W)
    x = nc.concat_cols(x, x0)
    return nc.clip(nc.sigmoid(nc.conv3(x, params.mot.taps, params.mot.bias)),
                   MOTIONNESS_EPS, 1.0 - MOTIONNESS_EPS)


def guidance_features(video, mcfg):
    """The stream routed into the guidance branch (and its graph)."""
    if mcfg.guidance_stream == "motion":
        return video.motion
    if mcfg.guidance_stream == "appearance":
        return video.appearance
    return np.hstack([video.appearance, video.motion])


@dataclass
class ForwardOutput:
    tcas: DiffNode        # B x T x C, nonnegative
    motionness: DiffNode  # B x T x 1, in (eps, 1-eps)


def full_forward(videos, adjacency, params, mcfg):
    """Both branches over equal-length videos, each with its graph's adjacency."""
    tcas = base_forward(np.stack([v.appearance for v in videos]),
                        np.stack([v.motion for v in videos]), params)
    feats = np.stack([guidance_features(v, mcfg) for v in videos])
    motionness = guidance_forward(feats, adjacency, params)
    return ForwardOutput(tcas=tcas, motionness=motionness)


# ---------------------------------------------------------------------------
# checkpoints: manifest.json plus one little-endian f64 blob per tensor


def _named_tensors(params):
    out = []
    for name, conv in (("embed", params.embed), ("cls", params.cls),
                       ("mot", params.mot)):
        for i, tap in enumerate(conv.taps):
            out.append((f"{name}.tap{i}", tap.value))
        out.append((f"{name}.bias", conv.bias.value))
    for i, W in enumerate(params.gcn):
        out.append((f"gcn.{i}", W.value))
    out.append(("proj.W1", params.W1))
    out.append(("proj.W2", params.W2))
    return out


def save_params(path, params):
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, value in _named_tensors(params):
        fname = name.replace(".", "_") + ".bin"
        manifest[name] = {"file": fname, "shape": list(value.shape)}
        flat = np.ascontiguousarray(value, dtype="<f8")
        (path / fname).write_bytes(flat.tobytes())
    (path / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_tensor(path, entry, name):
    raw = (path / entry["file"]).read_bytes()
    shape = tuple(entry["shape"])
    want = 8 * shape[0] * shape[1]
    if len(raw) != want:
        raise ValueError(
            f"checkpoint tensor {name}: expected {want} bytes, got {len(raw)}")
    return np.frombuffer(bytearray(raw), dtype="<f8").reshape(shape)


def load_params(path):
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())

    def conv(prefix):
        taps = [param(_read_tensor(path, manifest[f"{prefix}.tap{i}"],
                                   f"{prefix}.tap{i}")) for i in range(3)]
        bias = param(_read_tensor(path, manifest[f"{prefix}.bias"],
                                  f"{prefix}.bias"))
        return Conv3(taps=taps, bias=bias)

    n_gcn = sum(1 for k in manifest if k.startswith("gcn."))
    gcn = [param(_read_tensor(path, manifest[f"gcn.{i}"], f"gcn.{i}"))
           for i in range(n_gcn)]
    return ModelParams(
        embed=conv("embed"), cls=conv("cls"), gcn=gcn, mot=conv("mot"),
        W1=_read_tensor(path, manifest["proj.W1"], "proj.W1"),
        W2=_read_tensor(path, manifest["proj.W2"], "proj.W2"))
