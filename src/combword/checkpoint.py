"""Model persistence: a text header followed by a raw float32 parameter blob.

Layout, all little-endian:

    combword-checkpoint v1\n
    <one JSON line: the ``Header`` (version, layer specs, input shape, build seed, metadata, shapes)>\n
    <raw '<f4' parameter values, C order, in declaration order>

The header's dataclasses are its schema: ``Header``, with its ``LayerSpec``
specs, is written with ``dataclasses.asdict`` and read back by
``network.from_json`` from the same annotations, so saving and loading share
one type. Nothing is cast: a value of another JSON type (a float or a
string for an integer, ``true`` for 1), a missing field or an unknown one
makes the file malformed. Parameters are stored as 32-bit reals; loading a
checkpoint restores them bit for bit. A file whose parameters are not all
finite is rejected. The metadata is free-form apart from what
``network.read_meta``, its one reader, reads (that too through
``from_json``): a meta that describes no input, or another input than the
header's, is rejected too.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .network import LayerSpec, Network, from_json, param_shapes, read_meta

MAGIC = b"combword-checkpoint v1"
VERSION = 1


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of a supported version."""


@dataclass(frozen=True)
class Header:
    """The JSON line: ``save_checkpoint`` writes it with ``asdict``, and ``load_checkpoint`` reads it with ``from_json``."""

    version: int
    specs: list[LayerSpec]
    input_shape: tuple[int, int, int]
    seed: int
    meta: dict
    shapes: list[tuple[int, ...]]


def save_checkpoint(model: Network, path) -> None:
    header = Header(VERSION, model.specs, model.input_shape, model.seed, model.meta, [p.shape for p in model.params()])
    blob = b"".join(np.ascontiguousarray(p, dtype="<f4").tobytes() for p in model.params())
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(asdict(header), sort_keys=True).encode("utf-8") + b"\n")
        fh.write(blob)


def load_checkpoint(path) -> Network:
    """Read a checkpoint, checking the header, the sizes and the values before building the model.

    The version is checked first, then the header against ``Header`` and its
    meta by ``network.read_meta``, whose input must be the header's. The
    parameter shapes follow from the specs and the input shape, so a header
    that declares more parameters than the file holds is rejected before
    anything is allocated; a non-finite parameter is rejected too.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic line {magic[:40]!r})")
        try:
            raw = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupted header: {exc}") from exc
        if not isinstance(raw, dict):
            raise CheckpointError(f"{path}: corrupted header: not a JSON object")
        version = raw.get("version")
        if type(version) is not int or version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version!r} (expected {VERSION})")
        blob = fh.read()
    try:
        header = from_json(Header, raw, "header")
        reads = read_meta(header.meta)
        if reads.shape != header.input_shape:
            names, verb = "/".join(map(repr, reads.fields)), "does" if len(reads.fields) == 1 else "do"
            raise ValueError(f"meta {names} {verb} not match input_shape {list(header.input_shape)}")
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupted header: {exc}") from exc
    try:
        shapes = param_shapes(header.specs, header.input_shape)
    except ValueError as exc:
        raise CheckpointError(f"{path}: header declares an invalid architecture: {exc}") from exc
    if header.shapes != shapes:
        raise CheckpointError(f"{path}: header shapes do not match the declared architecture")
    expected = sum(math.prod(s) for s in shapes) * 4
    if len(blob) != expected:
        raise CheckpointError(f"{path}: parameter blob is {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f4")
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: parameter blob holds non-finite values")
    try:
        model = Network(header.specs, header.input_shape, header.seed, np.float32, header.meta)
    except ValueError as exc:
        raise CheckpointError(f"{path}: header declares an invalid architecture: {exc}") from exc
    offset = 0
    for p in model.params():
        np.copyto(p, values[offset : offset + p.size].reshape(p.shape))
        offset += p.size
    return model
