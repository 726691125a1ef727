"""Model assembly: layer specs, shape checking, builders, and the loss.

A network is an ordered layer list built from declarative specs, so the same
description drives construction, shape validation, and checkpointing. The
classifier head is always a single sigmoid unit; training minimizes mean
binary cross-entropy with probabilities clamped away from 0 and 1.

``Network.forward(x, train)`` takes an array or, as the tensor model gets
from ``encoding.BatchEncoder``, an ``EncodedBatch``, which the first conv
reads without the dense batch ever being built: a first 1x1 conv in its
compact layout, any other tile by tile. It passes ``train`` to every
layer. A training pass leaves each layer holding what backward reads (see
``layers``), the first conv its input among it.
``Network.backward`` runs every layer's backward once, last to first, and
then makes every layer forget what the forward kept. So a training step
holds one set of activations, and it is freed when its backward returns
rather than when the next step's forward ends. An inference pass leaves
nothing behind.

Which layers work in place is one plan, built once per network: each
layer's forward and backward keyword arguments, read off its neighbours by
the rules in the ``layers`` docstring, which also says where a step peaks.
A first 1x1 conv before a ReLU and a conv hands out ReLU rows
(``relu_rows``), made from an encoded batch's compact rows; a conv before
a ReLU and a max pool pools its ReLU itself, a block of whole samples at a
time (``pool``, the pool's window), so that neither builds its output
plane, and the ReLU between passes what they hand out on by its type,
``layers.PlaneRows``; a conv after a pool writes its input gradient over
the pool's output (``spent``); and the first layer with parameters builds
no input gradient (``input_grad``). The plan holds only these keywords,
and no layer keeps a reference to another past a pass: what a pass hands
from layer to layer (ReLU rows, a pooled record) is dropped by
``forget()``.

The builders write a model's ``meta``: ``{"model": "combinatorial",
"encoding": {...}}`` or ``{"model": "char", "word_length", "alphabet_size"}``,
to which ``cli train`` adds the ``"task"``. ``read_meta`` is the one function
that reads it back: what the model reads (letters, or tensors of its
encoding), its task, its word length and its per-sample input shape. The
checkpoint loader, the training loops and the CLI all go through it.

``from_json`` builds a dataclass from parsed JSON by its field annotations
and casts nothing. It is how a checkpoint's ``checkpoint.Header`` (with its
``LayerSpec`` specs) is read, and how ``read_meta`` reads the encoding, an
``EncodingConfig``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import cache
from reprlib import repr as short_repr
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .datasets import TASKS, task_alphabet
from .encoding import EncodedBatch, EncodingConfig, channel_count
from .layers import SIGMOID_CLAMP, Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: tuple[int, int] = (0, 0)
    filters: int = 0
    pool: tuple[int, int] = (0, 0)
    units: int = 0


_JSON_NAMES = {int: "an integer", str: "a string", dict: "an object", list: "a list", tuple: "a list"}
_field_types = cache(get_type_hints)


def from_json(tp, value, where: str):
    """Parsed JSON ``value`` as a ``tp``; ValueError naming the path ``where`` and the value if it is none.

    ``tp`` is int, str, dict, ``X | None``, ``list[X]``, ``tuple[X, ...]``,
    a fixed-length tuple, or a dataclass read by its field annotations.
    Nothing is cast: an int is no bool or float, a tuple is a list of its
    length, and a dataclass is an object with exactly its fields, whose
    constructor's ValueError is reported at ``where`` too.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return None if value is None else from_json(args[0], value, where)
    kind = dict if is_dataclass(tp) else origin or tp
    if type(value) is not (list if kind is tuple else kind):
        raise ValueError(f"{where} is not {_JSON_NAMES[kind]}: {short_repr(value)}")
    if is_dataclass(tp):
        names, hints = [f.name for f in fields(tp)], _field_types(tp)
        missing, unknown = sorted(set(names) - set(value)), sorted(set(value) - set(names))
        wrong = [f"{what} fields {short_repr(keys)}" for what, keys in (("missing", missing), ("unknown", unknown)) if keys]
        if wrong:
            raise ValueError(f"{where} has {' and '.join(wrong)}")
        kwargs = {name: from_json(hints[name], value[name], f"{where}[{name!r}]") for name in names}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if not args:
        return value
    if args[-1] is Ellipsis or kind is list:
        args = args[:1] * len(value)
    elif len(value) != len(args):
        raise ValueError(f"{where} is not a list of {len(args)}: {short_repr(value)}")
    items = [from_json(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value))]
    return items if kind is list else tuple(items)


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
        # Each layer's forward and backward keyword arguments: the in-place rules of ``layers``. No
        # backward runs (None) before the first layer with parameters, and that one builds no input gradient.
        layers, first = self.layers, self.layers[0]
        start = next((i for i, layer in enumerate(layers) if layer.params()), len(layers))
        plan = [({}, None if i < start else {"input_grad": False} if i == start else {}) for i in range(len(layers))]
        for i in range(1, len(layers)):
            layer, before = layers[i], layers[i - 1]
            if isinstance(layer, Conv2d) and isinstance(before, MaxPool2d):
                plan[i][1]["spent"] = True
            elif i >= 2 and isinstance(layer, MaxPool2d) and isinstance(before, ReLU) and isinstance(layers[i - 2], Conv2d):
                plan[i - 2][0]["pool"] = (layer.ph, layer.pw)  # the conv pools its ReLU itself, a block of samples at a time
        # A first 1x1 conv before a ReLU and a conv hands that conv its ReLU's rows.
        if len(layers) > 2 and isinstance(first, Conv2d) and first.w.shape[:2] == (1, 1):
            if isinstance(layers[1], ReLU) and isinstance(layers[2], Conv2d):
                plan[0][0]["relu_rows"] = True
        self._plan = plan

    def forward(self, x: np.ndarray | EncodedBatch, train: bool = True) -> np.ndarray:
        """Per-sample probabilities, shape (batch,); without ``train`` no layer keeps anything.

        ``x`` is an array or an ``encoding.EncodedBatch``. Only a first conv
        reads the batch as it is; any other first layer (one whose backward
        never runs) gets ``np.asarray(x)``. The layers get a read-only view
        of an array, which an inference pass's ReLUs therefore never
        rectify in place. Each layer's forward gets its entry of the plan.
        """
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"input shape {x.shape[1:]} does not match model input {self.input_shape}")
        if isinstance(x, np.ndarray) or self._plan[0][1] is None:  # a first layer with no parameters is no conv
            x = np.asarray(x).view()
            x.flags.writeable = False
        for layer, (kwargs, _) in zip(self.layers, self._plan):
            x = layer.forward(x, train, **kwargs)
        return x[:, 0]

    def backward(self, dprobs: np.ndarray) -> None:
        """Fill every layer's parameter gradients; the input gradient is never built.

        Runs each layer's backward once, last to first, with its entry of the
        plan, down to the first layer with parameters, which builds no input
        gradient: nobody reads it, nor anything the layers before would make
        of it. The layers get a read-only view of ``dprobs``, which no
        ReLU then gates in place. Then every layer forgets what the forward
        kept, the batch included.
        """
        d = dprobs[:, None]
        d.flags.writeable = False
        for layer, (_, kwargs) in zip(self.layers[::-1], self._plan[::-1]):
            if kwargs is not None:
                d = layer.backward(d, **kwargs)
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
    meta = {"model": "combinatorial", "encoding": asdict(enc_cfg)}
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


@dataclass(frozen=True)
class ModelInput:
    """What a model reads, as its meta describes it (``read_meta``).

    ``encoding`` is None for the char baseline, which reads its task's
    letters one-hot; the tensor model reads its encoding's tensors. ``shape``
    is one sample's input shape, read from the meta ``fields`` named.
    """

    task: str
    encoding: EncodingConfig | None
    word_length: int
    shape: tuple[int, int, int]
    fields: tuple[str, ...]


def read_meta(meta: dict) -> ModelInput:
    """What a model with this meta reads; ValueError for a meta that describes no input.

    A meta without a task is a palindrome model's, and one without a model
    kind the tensor model's. A char model's alphabet is its task's.
    """
    task = meta.get("task", "palindrome")
    if task not in TASKS:
        raise ValueError(f"meta names an unknown task {task!r}")
    kind = meta.get("model", "combinatorial")
    if kind == "char":
        n, size = meta.get("word_length"), meta.get("alphabet_size")
        if not (type(n) is int and type(size) is int and size == len(task_alphabet(task))):
            raise ValueError(f"meta 'word_length'/'alphabet_size' do not match a char model of the {task} alphabet: {n!r}/{size!r}")
        return ModelInput(task, None, n, (n, 1, size), ("word_length", "alphabet_size"))
    if kind != "combinatorial":
        raise ValueError(f"meta names an unknown model {kind!r}")
    cfg = from_json(EncodingConfig, meta.get("encoding"), "meta['encoding']")
    return ModelInput(task, cfg, cfg.word_length, (cfg.pad_to, cfg.pad_to, channel_count(cfg)), ("encoding",))
