"""Model persistence: a text header followed by a raw float32 parameter blob.

Layout, all little-endian:

    combword-checkpoint v1\n
    <one JSON line: layer specs, input shape, build seed, metadata, shapes>\n
    <raw '<f4' parameter values, C order, in declaration order>

Parameters are stored as 32-bit reals; loading a checkpoint restores them
bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .datasets import TASKS
from .encoding import EncodingConfig, channel_count
from .network import LayerSpec, Network

MAGIC = b"combword-checkpoint v1"
VERSION = 1


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of a supported version."""


def save_checkpoint(model: Network, path) -> None:
    header = {
        "version": VERSION,
        "specs": [s.to_dict() for s in model.specs],
        "input_shape": list(model.input_shape),
        "seed": model.seed,
        "meta": model.meta,
        "shapes": [list(p.shape) for p in model.params()],
    }
    blob = b"".join(np.ascontiguousarray(p, dtype="<f4").tobytes() for p in model.params())
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(blob)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v, length: int | None = None) -> bool:
    return isinstance(v, list) and all(map(_is_int, v)) and (length is None or len(v) == length)


def _is_spec(d) -> bool:
    return (
        isinstance(d, dict)
        and isinstance(d.get("kind"), str)
        and _is_int_list(d.get("kernel"), 2)
        and _is_int(d.get("filters"))
        and _is_int_list(d.get("pool"), 2)
        and _is_int(d.get("units"))
    )


# Required header fields and their type checks; a file failing one is not a checkpoint.
_HEADER_FIELDS = {
    "specs": lambda v: isinstance(v, list) and all(map(_is_spec, v)),
    "input_shape": lambda v: _is_int_list(v, 3),
    "seed": _is_int,
    "meta": lambda v: isinstance(v, dict),
    "shapes": lambda v: isinstance(v, list) and all(map(_is_int_list, v)),
}


def _check_meta(path, model: Network) -> None:
    """The meta may name only a known task, and must describe the model's input.

    A char model's word length and alphabet size must be its input shape; a
    tensor model's meta must rebuild an encoder that fits its input shape.
    """
    meta = model.meta
    if "task" in meta and meta["task"] not in TASKS:
        raise CheckpointError(f"{path}: corrupted header: meta names an unknown task {meta['task']!r}")
    if meta.get("model") == "char":
        shape = (meta.get("word_length"), 1, meta.get("alphabet_size"))
        if not (_is_int(shape[0]) and _is_int(shape[2]) and shape == model.input_shape):
            raise CheckpointError(
                f"{path}: corrupted header: meta 'word_length'/'alphabet_size' do not match input_shape {list(model.input_shape)}"
            )
        return
    try:
        cfg = EncodingConfig.from_dict(meta["encoding"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: corrupted header: meta has no valid 'encoding' ({exc!r})") from exc
    # Plane sizes first: they bound the word length before channel_count loops over it.
    if model.input_shape[:2] != (cfg.pad_to, cfg.pad_to) or channel_count(cfg) != model.input_shape[2]:
        raise CheckpointError(f"{path}: corrupted header: meta 'encoding' does not match input_shape {list(model.input_shape)}")


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic line {magic[:40]!r})")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupted header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: corrupted header: not a JSON object")
        if header.get("version") != VERSION:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')!r} (expected {VERSION})")
        blob = fh.read()
    for key, valid in _HEADER_FIELDS.items():
        if not valid(header.get(key)):
            raise CheckpointError(f"{path}: corrupted header: field {key!r} is missing or ill-typed")
    specs = [LayerSpec.from_dict(d) for d in header["specs"]]
    try:
        model = Network(specs, tuple(header["input_shape"]), header["seed"], np.float32, header["meta"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: header declares an invalid architecture: {exc}") from exc
    _check_meta(path, model)
    shapes = [tuple(s) for s in header["shapes"]]
    params = model.params()
    if [p.shape for p in params] != shapes:
        raise CheckpointError(f"{path}: header shapes do not match the declared architecture")
    expected = sum(int(np.prod(s)) for s in shapes) * 4
    if len(blob) != expected:
        raise CheckpointError(f"{path}: parameter blob is {len(blob)} bytes, expected {expected}")
    offset = 0
    for p in params:
        nbytes = p.size * 4
        values = np.frombuffer(blob, dtype="<f4", count=p.size, offset=offset).reshape(p.shape)
        np.copyto(p, values)
        offset += nbytes
    return model
