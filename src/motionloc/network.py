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

    def named(self):
        """(checkpoint name, node) of each trainable tensor, in the order of
        Adam's flat vector and of the checkpoint's files."""
        for name in ("embed", "cls", "mot"):
            conv = getattr(self, name)
            yield from ((f"{name}.tap{i}", tap) for i, tap in enumerate(conv.taps))
            yield f"{name}.bias", conv.bias
        yield from ((f"gcn.{i}", W) for i, W in enumerate(self.gcn))

    def trainable(self):
        return [node for _, node in self.named()]


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

    features is B x T x d and adjacency the B x T x T stack of the
    videos' graphs. Each round is X^k = relu(G X^{k-1} W^k) with the
    video's own adjacency G; None (mlp mode) drops G entirely
    (relu(X W^k) per round).
    """
    x0 = DiffNode(as_matrix(features, "guidance features", batched=True),
                  needs_grad=False)
    x = x0
    for W in params.gcn:
        x = nc.relu((x if adjacency is None else nc.propagate(adjacency, x)) @ W)
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
    """Both branches over equal-length videos; adjacency is their B x T x T
    graph stack, or None in mlp mode."""
    tcas = base_forward(np.stack([v.appearance for v in videos]),
                        np.stack([v.motion for v in videos]), params)
    feats = np.stack([guidance_features(v, mcfg) for v in videos])
    motionness = guidance_forward(feats, adjacency, params)
    return ForwardOutput(tcas=tcas, motionness=motionness)


# ---------------------------------------------------------------------------
# checkpoints: manifest.json plus one little-endian f64 blob per tensor


def _named_tensors(params):
    return [(name, node.value) for name, node in params.named()] + \
        [("proj.W1", params.W1), ("proj.W2", params.W2)]


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


def _read_tensor(path, manifest, name, shape):
    """The named tensor of a checkpoint, which must have the given shape."""
    entry = manifest.get(name)
    if not isinstance(entry, dict):
        raise ValueError(f"checkpoint manifest has no entry for tensor {name}")
    dims, file = entry.get("shape"), entry.get("file")
    # init_params gives two positive ints; bools and floats are not ints here
    if dims != list(shape) or any(type(n) is not int for n in dims):
        raise ValueError(f"checkpoint tensor {name}: shape {dims!r}, but the "
                         f"trained config needs {list(shape)}")
    root = path.resolve()
    if not isinstance(file, str) or root not in (path / file).resolve().parents:
        raise ValueError(f"checkpoint tensor {name}: file must name a file "
                         f"inside {path}, got {file!r}")
    try:
        raw = (path / file).read_bytes()
    except OSError as e:
        raise ValueError(f"checkpoint tensor {name}: cannot read {file}: "
                         f"{e.strerror}") from e
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ValueError(f"checkpoint tensor {name}: expected "
                         f"{8 * shape[0] * shape[1]} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def load_params(path, d, C, mcfg):
    """Parameters for stream width d, C classes and model config mcfg
    from a checkpoint directory. Its manifest must name every tensor,
    with the shape init_params gives that config; a ValueError names the
    first tensor that does not fit."""
    path = Path(path)
    text = (path / "manifest.json").read_text()
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path / 'manifest.json'}: invalid JSON at line "
                         f"{e.lineno}: {e.msg}") from e
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint manifest {path / 'manifest.json'} "
                         "must be a JSON object")
    params = init_params(d, C, mcfg, seed=0)
    tensors = _named_tensors(params)
    unknown = sorted(set(manifest) - {name for name, _ in tensors})
    if unknown:
        raise ValueError(f"checkpoint manifest names unknown tensor(s): "
                         f"{', '.join(unknown)}")
    # _named_tensors gives the live arrays, so this fills params in place
    for name, value in tensors:
        value[...] = _read_tensor(path, manifest, name, value.shape)
    return params
