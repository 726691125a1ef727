"""Model assembly: layer specs, shape checking, builders, and the loss.

A network is an ordered layer list built from declarative specs, so the same
description drives construction, shape validation, and checkpointing. The
classifier head is always a single sigmoid unit; training minimizes mean
binary cross-entropy with probabilities clamped away from 0 and 1.

``Network.forward(x, train)`` takes an array or, as the tensor model gets
from ``encoding.BatchEncoder``, an ``EncodedBatch``, which the first conv
reads tile by tile without the dense batch ever being built. It passes
``train`` to every layer. A training pass leaves each layer holding what
backward reads (see ``layers``), the first conv its input among it.
``Network.backward`` runs every layer's backward once, last to first,
fusing the gate of each ReLU that feeds a conv or a pool into that layer's
input gradient, and then makes every layer forget what the forward kept. So
a training step holds one set of activations, and it is freed when its
backward returns rather than when the next step's forward ends. An
inference pass leaves nothing behind, so an evaluation batch never holds
memory beyond its own pass.

Every pass allocates its conv and pool outputs but one; ReLU rectifies and
gates in place. A first layer that is a 1x1 conv before a ReLU and a conv,
as in the tensor model, builds no output plane: it hands out its ReLU's
rows (``layers.ReluRows``), which the ReLU passes on and the next conv
fills a window at a time, in forward and again in its backward, where it
also hands each gated tile of their gradient to the 1x1 conv's gradients.
So no pass holds the tensor model's largest array, the first conv's
32-channel output (the L1 plane). Backward allocates no plane: each other
input gradient goes into the spent forward array it replaces (see
``layers``). A conv pads its output gradient in its own output; a conv or
pool after a ReLU writes its gated input gradient into that ReLU's output,
which for a pool is the previous conv's output plane; a conv after a pool
writes into the pool's output. So a step peaks in the second conv's
backward, a little above its forward end: that conv's plane and the later,
smaller arrays, the window, and of the batch the two samples' planes last
read, plus scratch tiles and a sample's plane scattered again. The layers
get read-only views of a caller's array batch and of the loss gradient, and
an encoded batch and ReLU rows hand out read-only rows, so those in-place
rules only ever touch arrays the pass made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodedBatch, EncodingConfig, channel_count
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


def _check_positive(where: str, spec: LayerSpec, what: str, values) -> None:
    if any(v < 1 for v in values):
        raise ValueError(f"{where}: {spec.kind} {what} must be >= 1, got {list(values)}")


def shape_after(spec: LayerSpec, shape: tuple, where: str) -> tuple:
    """Propagate one layer through a sample shape, rejecting underflows and empty layers."""
    if spec.kind == "conv2d":
        h, w, c = shape
        kh, kw = spec.kernel
        _check_positive(where, spec, "kernel and filters", (kh, kw, spec.filters))
        if h < kh or w < kw:
            raise ValueError(f"{where}: conv2d kernel {kh}x{kw} does not fit input plane {h}x{w}")
        return (h - kh + 1, w - kw + 1, spec.filters)
    if spec.kind == "maxpool2d":
        h, w, c = shape
        ph, pw = spec.pool
        _check_positive(where, spec, "pool", (ph, pw))
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
        _check_positive(where, spec, "units", (spec.units,))
        if len(shape) != 1:
            raise ValueError(f"{where}: dense needs a flat input, got shape {shape}")
        return (spec.units,)
    raise ValueError(f"{where}: unknown layer kind {spec.kind!r}")


def sample_shapes(specs: list[LayerSpec], input_shape: tuple) -> list[tuple]:
    """The per-sample shape entering each layer, then the network's output shape.

    Shape arithmetic alone: raises ValueError for a stack that does not fit
    its input before anything is allocated.
    """
    shapes = [tuple(input_shape)]
    for i, spec in enumerate(specs):
        shapes.append(shape_after(spec, shapes[-1], f"layer {i} ({spec.kind})"))
    return shapes


def param_shapes(specs: list[LayerSpec], input_shape: tuple) -> list[tuple[int, ...]]:
    """The shapes of a network's parameters, in ``Network.params`` order."""
    shapes = []
    for spec, shape in zip(specs, sample_shapes(specs, input_shape)):
        if spec.kind == "conv2d":
            shapes += [(*spec.kernel, shape[2], spec.filters), (spec.filters,)]
        elif spec.kind == "dense":
            shapes += [(shape[0], spec.units), (spec.units,)]
    return shapes


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
        shapes = sample_shapes(self.specs, self.input_shape)
        if shapes[-1] != (1,):
            raise ValueError(f"network must end in a single sigmoid unit, got output shape {shapes[-1]}")
        self.output_shape = shapes[-1]
        rng = np.random.default_rng(seed)
        self.layers = []
        for spec, shape in zip(self.specs, shapes):
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
            else:
                self.layers.append(Sigmoid())
        # Layers whose backward writes its input gradient into its spent input (see ``layers``).
        # Gated: a conv after a ReLU, or a pool after a conv's ReLU, and that ReLU, unless the
        # ReLU is layer 0, whose backward never runs. Spent: a conv after a pool.
        self._gated, self._spent = set(), set()
        for i in range(1, len(self.layers)):
            layer, before = self.layers[i], self.layers[i - 1]
            if i >= 2 and isinstance(before, ReLU):
                after_conv = isinstance(self.layers[i - 2], Conv2d)
                if isinstance(layer, Conv2d) or (isinstance(layer, MaxPool2d) and after_conv):
                    self._gated |= {i - 1, i}
            elif isinstance(layer, Conv2d) and isinstance(before, MaxPool2d):
                self._spent.add(i)
        # A first 1x1 conv before a ReLU and a conv hands that conv its ReLU's rows (see ``layers``).
        first = self.layers[0]
        self._relu_rows = (
            len(self.layers) > 2
            and isinstance(first, Conv2d)
            and first.w.shape[:2] == (1, 1)
            and isinstance(self.layers[1], ReLU)
            and isinstance(self.layers[2], Conv2d)
        )

    def forward(self, x: np.ndarray | EncodedBatch, train: bool = True) -> np.ndarray:
        """Per-sample probabilities, shape (batch,); without ``train`` no layer keeps anything.

        ``x`` is an array or, for a model whose first layer is a conv, an
        ``encoding.EncodedBatch``, which that conv reads tile by tile. The
        layers get a read-only view of an array ``x``, which an inference
        pass's ReLUs therefore never rectify in place. A first 1x1 conv
        before a ReLU and a conv is asked for ReLU rows, not its plane.
        """
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"input shape {x.shape[1:]} does not match model input {self.input_shape}")
        if isinstance(x, np.ndarray):
            x = x.view()
            x.flags.writeable = False
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train, relu_rows=True) if i == 0 and self._relu_rows else layer.forward(x, train)
        return x[:, 0]

    def backward(self, dprobs: np.ndarray) -> None:
        """Fill every layer's parameter gradients; the input gradient is never built.

        The layers get a read-only view of ``dprobs``, which no ReLU then gates
        in place. A conv right after a ReLU (not the first layer), or a pool
        right after a conv's ReLU, gates its input gradient itself, into that
        ReLU's spent output, and the ReLU's backward passes it on; a conv that
        reads ReLU rows hands them the gated tiles instead, and the first
        layer's backward finds its gradients done. A conv right after a pool
        writes its input gradient into the pool's spent output. Every layer's
        backward runs once; then every layer forgets what the forward kept,
        the batch included.
        """
        d = dprobs[:, None]
        d.flags.writeable = False
        for i in range(len(self.layers) - 1, 0, -1):
            if i in self._gated:
                d = self.layers[i].backward(d, gated=True)
            elif i in self._spent:
                d = self.layers[i].backward(d, spent=True)
            else:
                d = self.layers[i].backward(d)
        if self.layers[0].params():
            self.layers[0].backward(d, input_grad=False)
        for layer in self.layers:
            layer.forget()

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
