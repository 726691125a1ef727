"""Model persistence: a text header followed by a raw float32 parameter blob.

Layout, all little-endian:

    combword-checkpoint v1\n
    <one JSON line: layer specs, input shape, build seed, metadata, shapes>\n
    <raw '<f4' parameter values, C order, in declaration order>

Parameters are stored as 32-bit reals; loading a checkpoint restores them
bit for bit. A file whose parameters are not all finite is rejected. The
metadata is checked by ``network.read_meta``, its one reader: a meta that
describes no input, or another input than the header's, is rejected too.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .network import LayerSpec, Network, param_shapes, read_meta

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


def _check_meta(path, meta: dict, input_shape: tuple) -> None:
    """The meta must describe an input (``network.read_meta``), and that input must be the model's."""
    try:
        reads = read_meta(meta)
        if reads.shape != input_shape:
            names, verb = "/".join(map(repr, reads.fields)), "does" if len(reads.fields) == 1 else "do"
            raise ValueError(f"meta {names} {verb} not match input_shape {list(input_shape)}")
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupted header: {exc}") from exc


def load_checkpoint(path) -> Network:
    """Read a checkpoint, checking the header, the sizes and the values before building the model.

    The parameter shapes follow from the specs and the input shape, so a
    header that declares more parameters than the file holds is rejected
    before anything is allocated; a non-finite parameter is rejected too.
    """
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
    input_shape = tuple(header["input_shape"])
    try:
        shapes = param_shapes(specs, input_shape)
    except ValueError as exc:
        raise CheckpointError(f"{path}: header declares an invalid architecture: {exc}") from exc
    if [tuple(s) for s in header["shapes"]] != shapes:
        raise CheckpointError(f"{path}: header shapes do not match the declared architecture")
    expected = sum(math.prod(s) for s in shapes) * 4
    if len(blob) != expected:
        raise CheckpointError(f"{path}: parameter blob is {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f4")
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: parameter blob holds non-finite values")
    _check_meta(path, header["meta"], input_shape)
    try:
        model = Network(specs, input_shape, header["seed"], np.float32, header["meta"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: header declares an invalid architecture: {exc}") from exc
    offset = 0
    for p in model.params():
        np.copyto(p, values[offset : offset + p.size].reshape(p.shape))
        offset += p.size
    return model
