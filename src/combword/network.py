"""Model assembly: layer specs, shape checking, builders, and the loss.

A network is an ordered layer list built from declarative specs, so the same
description drives construction, shape validation, and checkpointing. The
classifier head is always a single sigmoid unit; training minimizes mean
binary cross-entropy with probabilities clamped away from 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingConfig, channel_count
from .layers import SIGMOID_CLAMP, Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: tuple[int, int] = (0, 0)
    filters: int = 0
    pool: tuple[int, int] = (0, 0)
    units: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "kernel": list(self.kernel),
            "filters": self.filters,
            "pool": list(self.pool),
            "units": self.units,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        return cls(
            kind=d["kind"],
            kernel=tuple(d["kernel"]),
            filters=int(d["filters"]),
            pool=tuple(d["pool"]),
            units=int(d["units"]),
        )


def conv(kh: int, kw: int, filters: int) -> LayerSpec:
    return LayerSpec("conv2d", kernel=(kh, kw), filters=filters)


def pool(ph: int, pw: int) -> LayerSpec:
    return LayerSpec("maxpool2d", pool=(ph, pw))


def relu() -> LayerSpec:
    return LayerSpec("relu")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def dense(units: int) -> LayerSpec:
    return LayerSpec("dense", units=units)


def sigmoid() -> LayerSpec:
    return LayerSpec("sigmoid")


def shape_after(spec: LayerSpec, shape: tuple, where: str) -> tuple:
    """Propagate one layer through a sample shape, rejecting underflows."""
    if spec.kind == "conv2d":
        h, w, c = shape
        kh, kw = spec.kernel
        if h < kh or w < kw:
            raise ValueError(f"{where}: conv2d kernel {kh}x{kw} does not fit input plane {h}x{w}")
        return (h - kh + 1, w - kw + 1, spec.filters)
    if spec.kind == "maxpool2d":
        h, w, c = shape
        ph, pw = spec.pool
        if h // ph < 1 or w // pw < 1:
            raise ValueError(f"{where}: maxpool2d window {ph}x{pw} does not fit input plane {h}x{w}")
        return (h // ph, w // pw, c)
    if spec.kind == "relu" or spec.kind == "sigmoid":
        return shape
    if spec.kind == "flatten":
        size = 1
        for d in shape:
            size *= d
        return (size,)
    if spec.kind == "dense":
        return (spec.units,)
    raise ValueError(f"{where}: unknown layer kind {spec.kind!r}")


class Network:
    """An ordered stack of layers plus the metadata that produced it."""

    def __init__(
        self,
        specs: list[LayerSpec],
        input_shape: tuple[int, int, int],
        seed: int,
        dtype=np.float32,
        meta: dict | None = None,
    ):
        self.specs = list(specs)
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.meta = dict(meta or {})
        rng = np.random.default_rng(seed)
        self.layers = []
        shape = self.input_shape
        for i, spec in enumerate(self.specs):
            where = f"layer {i} ({spec.kind})"
            if spec.kind == "conv2d":
                self.layers.append(Conv2d(*spec.kernel, shape[2], spec.filters, rng, dtype))
            elif spec.kind == "maxpool2d":
                self.layers.append(MaxPool2d(*spec.pool))
            elif spec.kind == "relu":
                self.layers.append(ReLU())
            elif spec.kind == "flatten":
                self.layers.append(Flatten())
            elif spec.kind == "dense":
                self.layers.append(Dense(shape[0], spec.units, rng, dtype))
            elif spec.kind == "sigmoid":
                self.layers.append(Sigmoid())
            else:
                raise ValueError(f"{where}: unknown layer kind")
            shape = shape_after(spec, shape, where)
        if shape != (1,):
            raise ValueError(f"network must end in a single sigmoid unit, got output shape {shape}")
        self.output_shape = shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Per-sample probabilities, shape (batch,)."""
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"input shape {x.shape[1:]} does not match model input {self.input_shape}")
        for layer in self.layers:
            x = layer.forward(x)
        return x[:, 0]

    def backward(self, dprobs: np.ndarray) -> None:
        """Fill every layer's parameter gradients; the input gradient is never built."""
        d = dprobs[:, None]
        for i in range(len(self.layers) - 1, -1, -1):
            d = self.layers[i].backward(d, input_grad=i > 0)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def param_count(self) -> int:
        return sum(p.size for p in self.params())


def binary_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE and its gradient w.r.t. the probabilities."""
    p = np.clip(probs, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    y = labels.astype(p.dtype)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    dprobs = (p - y) / (p * (1.0 - p)) / p.shape[0]
    return loss, dprobs


def build_combinatorial_cnn(
    enc_cfg: EncodingConfig,
    seed: int,
    dtype=np.float32,
    filters: tuple[int, int, int] = (32, 16, 8),
    dense_units: int = 64,
) -> Network:
    """The subword-tensor classifier.

    A 1x1 compression conv tames the wide channel axis, then two conv+pool
    stages with shrinking filter counts feed a small dense head.
    """
    pad = enc_cfg.pad_to
    chans = channel_count(enc_cfg)
    f1, f2, f3 = filters
    specs = [
        conv(1, 1, f1),
        relu(),
        conv(3, 3, f2),
        relu(),
        pool(2, 2),
        conv(3, 3, f3),
        relu(),
        pool(2, 2),
        flatten(),
        dense(dense_units),
        relu(),
        dense(1),
        sigmoid(),
    ]
    meta = {"model": "combinatorial", "encoding": enc_cfg.to_dict()}
    return Network(specs, (pad, pad, chans), seed, dtype, meta)


def build_char_cnn(n: int, alphabet_size: int, seed: int, dtype=np.float32) -> Network:
    """Baseline on raw one-hot characters, input shape (n, 1, alphabet_size).

    Length-3 convolutions along the word with a pool after each; trailing
    stages that no longer fit short words are dropped, so any n >= 4 builds.
    """
    if n < 4:
        raise ValueError(f"char baseline needs word length >= 4, got {n}")
    specs = [conv(3, 1, 32), relu()]
    length = n - 2
    if length >= 2:
        specs.append(pool(2, 1))
        length //= 2
    if length >= 3:
        specs += [conv(3, 1, 16), relu()]
        length -= 2
        if length >= 2:
            specs.append(pool(2, 1))
    specs += [flatten(), dense(64), relu(), dense(1), sigmoid()]
    meta = {"model": "char", "word_length": n, "alphabet_size": alphabet_size}
    return Network(specs, (n, 1, alphabet_size), seed, dtype, meta)
