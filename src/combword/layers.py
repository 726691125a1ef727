"""From-scratch NHWC layers with explicit forward/backward passes.

Convolutions are valid (no padding) and stride 1. A sample batch is viewed
as one flat (n*h*w, cin) matrix, in which kernel offset (ki, kj) is a shift
of ki*w + kj rows, so a conv is kh*kw GEMMs on row-shifted slices of that
matrix summed into one (n*h*w, cout) buffer. Rows whose window straddles a
row wrap or two samples get wrong sums and are cropped away; backward pads
the output gradient with zeros onto the input plane, so those rows add
nothing to the weight or input gradients. The GEMMs run over tiles of
TILE_ROWS result rows, every offset for one tile before the next tile, so
that the partial products stay in cache; a forward tile holds as many
rows as fit 32 * TILE_ROWS input values, so a narrower input gets longer
tiles. The right operand of every such GEMM (``_matmul``) is
C-contiguous: a transposed view gives the same bits, but OpenBLAS then
takes up to twice as long per tile, so backward copies the transposed
kernel once per call. The weight gradients' ``src.T`` and
``Dense``'s ``w.T`` stay views, as their copies cost more than they save.
A row of the output or of the input gradient is summed in the same order
wherever the tiles fall; the weight gradient is summed tile by tile, in a
fixed order. A dense layer's forward runs as GEMMs of DENSE_ROWS rows. So
every layer computes a sample's output row the same way whatever the size
of its batch and wherever the sample sits in it, which lets training run
each distinct input once. Pooling floors odd extents.

A conv reads its input, and a pooled conv its output gradient, only
through ``shape``, ``dtype``, ``reshape(-1, channels)`` and row slices of
the flat form, one slice per tile: the tile's rows and those its kernel's
shifts reach. So either may be a ``PlaneRows``, a stand-in that makes its
rows as they are read and never builds the plane: an
``encoding.EncodedBatch`` (the first conv's batch), ``ReluRows`` or a
``ReluPool`` (below). The GEMMs read the same rows in the same order as
from a whole plane, and the bits do not change. A ReLU passes a
``PlaneRows`` on as it is, forward and backward. A first 1x1 conv reads
an encoded batch in its compact layout instead (``ReluRows``): one GEMM
row per channel-0 value and per upper-half cell that holds a chain,
gathered into the plane's rows by each sample's plane index.

Every ``forward`` takes ``train``. With it (the default), a layer keeps what
its backward reads: a conv a view of its input (for the first conv, the
encoded batch itself) and its flat output or the stand-in it hands out, a
dense layer its input, ReLU and sigmoid their output, a pool a view of its
input and the index of each window's first maximum. It keeps them until ``forget()``, which
``Network.backward`` calls on every layer once the last backward it runs
has returned, so a training step holds its activations only until its
backward ends. Without ``train``, the pass is inference only: the layer
drops what an earlier pass kept and keeps nothing, and the pool builds no
index.

These are the in-place rules of a pass; ``network`` builds, per layer, the
keyword arguments that ask for them and nothing else restates them. Every
conv and pool forward allocates its output, except a 1x1 conv that hands
out ``ReluRows`` (``forward(x, relu_rows=True)``) and a conv that a ReLU
and a max pool follow. That conv runs ``forward(x, pool=(ph, pw))``: it
computes the output rows of one sample, or of a few whole small ones, at a
time into a scratch plane, adds the bias, takes the ReLU and pools them
there, and hands out a ``ReluPool``, which holds the pooled output and each
window's first-max index, marked out of range where that max is not > 0.
The pool hands its ``out`` on and keeps it for backward. Then:

- ReLU rectifies its input in place whenever that input is writable, and
  its backward gates a writable ``dout`` in place;
- a conv with an output plane builds its zero-padded output gradient in
  that flat forward output. Every later layer's backward has read that
  output by then;
- a conv whose input is ``ReluRows`` reads them again tile by tile for
  its weight gradient, sums each TILE_ROWS tile of its input gradient in a
  scratch tile, gates it by ``input > 0`` and hands it to the rows, which
  add it to the 1x1 conv's weight and bias gradients, so that the 1x1
  conv's backward has nothing left to do. The rows are summed in the same
  order and gated by the same mask as unfused, so the bits do not change,
  and no pass makes the 1x1 conv's input plane, its output plane or its
  gradient;
- the pool after a conv's ReLU hands its output gradient to the
  ``ReluPool``, whose rows are then the conv's zero-padded output gradient:
  each block's planes are rebuilt from the index when the conv's tile loop
  first reaches them, with at most two blocks live, and the bias gradient
  is one running sum over those planes in row order. Each kept value has
  the bits the ReLU's gate would give it, every other cell gets +0.0, and
  the tiles and sums are the plane path's, so the bits do not change;
- a conv right after a pool writes its input gradient with
  ``backward(dout, spent=True)`` into its input, the pool's output, which
  no earlier backward reads. It is summed exactly as into a new array.

A conv after a ReLU whose output is an array, which only custom stacks
have, takes its own backward into a new input gradient, and the ReLU gates
that in place. So no pass of the package's models makes the tensor model's
first plane or any output plane of a conv that a ReLU and a pool follow,
and a training backward makes no plane-sized array. A tensor model's step
peaks in the backward of the conv that reads the ReLU rows, with the pooled
output and index of the pool after it, the later and smaller arrays, the
two samples' compact rows and ReLU rows, a tile of gathered rows, the
conv's two gradient planes and scratch tiles live; its forward ends a
little lower, with one scratch plane in place of the two gradient planes.

Without ``spent``, no layer other than ReLU writes into the ``x`` or
``dout`` it is given, so a caller whose arrays must stay intact hands ReLU
read-only views: the network does so with a caller's array batch and loss
gradient, and the gradient checks with the inputs and projections that they
perturb and reuse across calls.

A conv's or dense layer's ``backward(dout, input_grad=False)`` computes only
the parameter gradients and returns None; the network asks this of its first
layer with parameters, whose input gradient nobody reads. All layers
preserve the dtype of their parameters/input, so the same code runs in
float32 for training and float64 for finite-difference checks.
"""

from __future__ import annotations

import copy
import math

import numpy as np

SIGMOID_CLAMP = 1e-7

# Rows per tile of a conv's flat (n*h*w, c) matrices. A tile of 1024 rows is
# 128 KB of float32 at 32 channels, so a tile's shifted input slices, its
# partial products and its output stay in the per-core L2 cache across all
# kernel offsets instead of streaming a whole-batch product through memory
# per offset. It also keeps each weight-gradient GEMM short enough that
# OpenBLAS gives the same bits at one and two threads, so checkpoints do not
# depend on the thread count; with 2048-row tiles n=10 gradients differed.
# So backward tiles hold TILE_ROWS rows, and forward tiles, whose rows do not
# depend on where the tiles fall, as many rows as hold that many 32-channel
# rows' values (``_forward_rows``).
TILE_ROWS = 1024

# Rows of every forward GEMM of a dense layer: the batch is copied into whole
# tiles of this many rows, the last one padded with zero rows. OpenBLAS picks
# its kernels by a product's size (and numpy sends a one-column product to
# GEMV), so rows of one (n, nin) @ (nin, nout) product differ in their last
# bits as n changes. With every GEMM the same size, a row's output does not
# depend on the size of its batch, and a full batch of 32 gets the same bits
# as one whole-batch product.
DENSE_ROWS = 32

# Rows of a block of whole samples that a conv followed by a ReLU and a pool
# runs at once (``ReluPool``); a sample with more rows is a block of its own.
# Each elementwise pass over a block is one numpy call whose fixed cost
# dominates on small planes (the tensor model's second 3x3 conv, the char
# model), while a block's scratch plane and its two gradient planes stay a
# few hundred KB.
POOL_ROWS = 2048


def _gate(values: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(mask, values, 0)`` bit for bit, without its per-element branch.

    Multiplies the raw bit patterns by the 0/1 mask, so a kept value keeps its
    exact bits (-0.0 and NaN included) and a dropped one becomes +0.0, where a
    float product would give -0.0 for negative values. np.where costs several
    times more on the unpredictable masks of ReLU and max pooling.
    """
    bits = np.dtype(f"u{values.itemsize}")
    res = np.multiply(values.view(bits), mask, out=None if out is None else out.view(bits))
    return res.view(values.dtype)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b, out=out)``, by GEMM also when ``a`` is a single row.

    numpy hands a one-row product to the BLAS matrix-vector routine, which
    rounds differently from GEMM; a zero second row keeps each output row's
    bits independent of where the tile boundaries fall.
    """
    if a.shape[0] != 1:
        return np.matmul(a, b, out=out)
    out[...] = (np.concatenate([a, np.zeros_like(a)]) @ b)[:1]
    return out


def _shifted_tile(src, mats: np.ndarray, shifts: list[int], r0: int, r1: int, tile: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Rows [r0, r1) of the sum over k of ``src[r + shifts[k]] @ mats[k]``, into ``tile``.

    Terms whose source row falls outside ``src`` are left out. ``shifts[0]``
    must be 0 and the shifts' magnitudes ascend. The tile's source rows are
    read as one slice, so a source that makes its rows (``ReluRows``) makes
    them once per tile; every row's terms are added in offset order, each
    offset's product made in the scratch ``part``.
    """
    rows = src.shape[0]
    base = max(r0 + min(shifts), 0)
    block = src[base : min(r1 + max(shifts), rows)]
    _matmul(block[r0 - base : r1 - base], mats[0], tile)
    for mat, d in zip(mats[1:], shifts[1:]):
        lo, hi = max(r0, -d), min(r1, rows - d)
        if hi <= lo:
            break  # every later offset shifts further and misses this tile too
        tile[lo - r0 : hi - r0] += _matmul(block[lo + d - base : hi + d - base], mat, part[: hi - lo])
    return tile


def _forward_rows(cin: int) -> int:
    """Rows of a forward tile: as many as hold the 32 * TILE_ROWS input values that TILE_ROWS was sized for."""
    return max(1, TILE_ROWS * 32 // cin)


def _shifted_gemms(src, mats: np.ndarray, shifts: list[int], lo: int, out: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Rows [lo, lo + len(out)) of ``_shifted_tile``'s sum, into ``out``, a tile of ``_forward_rows`` rows at a time."""
    step = _forward_rows(mats.shape[1])
    for r0 in range(0, len(out), step):
        r1 = min(r0 + step, len(out))
        _shifted_tile(src, mats, shifts, lo + r0, lo + r1, out[r0:r1], part)
    return out


def _running_sum(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``total`` plus the rows ``rows[1:]``, added one after another; ``rows[0]`` is scratch.

    A bias gradient summed a tile or a block at a time must have the bits of
    one ``sum`` over the whole gradient plane, which adds its rows one after
    another. Adding a block's own sum would round differently, so the total
    takes row 0 and the reduce goes on from it.
    """
    rows[0] = total
    return np.add.reduce(rows, axis=0)


def _scratch(buf: np.ndarray | None, rows: int, channels: int, dtype) -> np.ndarray:
    """``buf`` if it has at least ``rows`` rows, else a new (rows, channels) array."""
    return buf if buf is not None and len(buf) >= rows else np.empty((rows, channels), dtype=dtype)


class PlaneRows:
    """A stand-in for a plane that a conv reads, making its rows as they are read.

    ``reshape(-1, channels)`` is its only reshape and returns the flat twin,
    which the subclass's ``_reset`` clears of what earlier reads kept. The
    twin's ``rows[lo:hi]`` is a read-only (hi - lo, channels) array; any
    other read raises TypeError. A subclass makes its rows a plane of ``per``
    rows at a time, ``_plane(i)`` being the read-only rows [i * per,
    (i + 1) * per): a range inside one plane is a view of it, and one that
    spans planes is a read-only copy, which reads each plane once, in order.
    """

    def __init__(self, shape: tuple, dtype, per: int = 0):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._per = per
        self._reset()

    def reshape(self, *shape) -> "PlaneRows":
        c = self.shape[-1]
        if shape != (-1, c):
            raise ValueError(f"{type(self).__name__} reshapes only to (-1, {c}), not {shape}")
        twin = copy.copy(self)
        twin.shape = (math.prod(self.shape[:-1]), c)
        twin._reset()
        return twin

    def __getitem__(self, rows: slice) -> np.ndarray:
        if len(self.shape) != 2 or not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError(f"{type(self).__name__} is read by contiguous row slices of its flat reshape(-1, channels) form")
        lo, hi, _ = rows.indices(self.shape[0])
        return self._rows(lo, max(lo, hi))

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        per = self._per
        first, last = lo // per, (hi - 1) // per
        if lo < hi and first == last:
            return self._plane(first)[lo - first * per : hi - first * per]
        out = np.empty((hi - lo, self.shape[1]), dtype=self.dtype)
        for i in range(first, last + 1 if lo < hi else first):
            a, b = max(lo, i * per), min(hi, (i + 1) * per)
            out[a - lo : b - lo] = self._plane(i)[a - i * per : b - i * per]
        out.flags.writeable = False
        return out


def _cells(x: np.ndarray, ph: int, pw: int) -> list[np.ndarray]:
    """Strided views of the (..., h, w, c) ``x``, one per cell of a (ph, pw) window in row-major order; odd extents floor."""
    hc, wc = x.shape[-3] // ph * ph, x.shape[-2] // pw * pw
    return [x[..., di:hc:ph, dj:wc:pw, :] for di in range(ph) for dj in range(pw)]


def _pool(cells: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Each window's max, into ``out``."""
    np.copyto(out, cells[0])
    for cell in cells[1:]:
        np.maximum(cell, out, out=out)  # on equal values this keeps out, the earlier cell
    return out


def _first_max(cells: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Per window, the index of its first cell equal to its max ``out``, by Horner's rule from the last cell back.

    A window whose max is NaN equals no cell and gets the last cell's index.
    """
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(len(cells)))
    for cell in reversed(cells[:-1]):
        arg = (cell != out) * (arg + 1)
    return arg


class ReluRows(PlaneRows):
    """The ReLU of a 1x1 conv's output, made a range of flat rows at a time.

    Stands in for that ReLU's output plane as the input of the next conv. An
    array input's range is computed as ``max(x @ w + b, 0)``, one GEMM per
    read. An ``encoding.EncodedBatch`` is read in its compact layout: its
    shared rows' ReLU is computed once per pass, and each sample's chain
    rows' when a read first reaches it, into one of two buffers that the
    samples take in turn; a range is those ReLU rows gathered by the
    sample's plane index. A row does not depend on the GEMM it is made in
    (``_matmul``), so it has the bits of the whole plane's row. A range is
    valid until the next read.

    In backward that conv hands each tile's gated input gradient to
    ``backward``, which adds it to the 1x1 conv's weight gradient, tile by
    tile over the same rows as that conv's own backward, and to its bias
    gradient as one running sum in row order.
    """

    def __init__(self, conv: "Conv2d", xf, shape: tuple):
        super().__init__(shape, np.result_type(xf.dtype, conv.w.dtype), shape[1] * shape[2])
        self._conv = conv
        self._xf = xf  # the 1x1 conv's flat input rows
        self._w = conv.w.reshape(conv.w.shape[2:])
        if not isinstance(xf, np.ndarray):
            self._shared = self._relu(xf.shared, np.empty((len(xf.shared), shape[-1]), dtype=self.dtype))

    def _reset(self) -> None:
        self._out = self._in = None  # a read's rows, and backward's input rows
        self._samples: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _relu(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``max(x @ w + b, 0)`` into ``out``, a GEMM of at most TILE_ROWS rows at a time.

        Longer GEMMs wake a second BLAS thread, which then keeps a few MB of
        its buffers resident.
        """
        for r0 in range(0, len(x), TILE_ROWS):
            rows = out[r0 : r0 + TILE_ROWS]
            _matmul(x[r0 : r0 + TILE_ROWS], self._w, rows)
            rows += self._conv.b
            np.maximum(rows, 0, out=rows)
        return out

    def _sample(self, sample: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``sample``'s compact input rows, plane index and ReLU rows, made on first use, each in a whole buffer."""
        found = self._samples.get(sample)
        if found is None:
            xf, shared = self._xf, len(self._shared)
            if len(self._samples) == 2:
                found = self._samples.pop(next(iter(self._samples)))
            else:
                relu = np.empty((xf.compact_rows, self.shape[-1]), dtype=self.dtype)
                relu[:shared] = self._shared
                found = np.empty((xf.compact_rows, xf.shape[-1]), dtype=xf.dtype), np.empty(self._per, dtype=np.intp), relu
            rows, index, relu = found
            used = len(xf.compact(sample, rows, index)[0])
            self._relu(rows[shared:used], relu[shared:used])
            self._samples[sample] = found
        return found

    def _gather(self, lo: int, hi: int, out: np.ndarray, relu: bool) -> np.ndarray:
        """Rows [lo, hi) of the input plane, or with ``relu`` of its ReLU, gathered from the samples' compact rows into ``out``."""
        per = self._per
        for s in range(lo // per, (hi - 1) // per + 1) if lo < hi else ():
            a, b = max(lo, s * per), min(hi, (s + 1) * per)
            rows, index, relus = self._sample(s)
            np.take(relus if relu else rows, index[a - s * per : b - s * per], axis=0, out=out[a - lo : b - lo], mode="clip")
        return out

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        self._out = _scratch(self._out, hi - lo, self.shape[-1], self.dtype)
        out = self._out[: hi - lo]
        if isinstance(self._xf, np.ndarray):
            self._relu(self._xf[lo:hi], out)
        else:
            self._gather(lo, hi, out, relu=True)
        out = out.view()
        out.flags.writeable = False
        return out

    def backward(self, lo: int, rows: np.ndarray) -> None:
        """Add the gradient ``rows[1:]`` of rows [lo, lo + len(rows) - 1) to the 1x1 conv's; tiles come in order from row 0.

        ``rows[0]`` is scratch for ``_running_sum``. The input rows are a
        slice of an array input, or gathered from the compact rows.
        """
        conv, grad = self._conv, rows[1:]
        hi = lo + len(grad)
        if isinstance(self._xf, np.ndarray):
            x = self._xf[lo:hi]
        else:
            self._in = _scratch(self._in, len(grad), self._xf.shape[-1], self._xf.dtype)
            x = self._gather(lo, hi, self._in[: len(grad)], relu=False)
        dw = conv.dw.reshape(x.shape[1], -1)
        if lo == 0:
            dw[...] = 0
            conv.db[...] = 0
        conv.db[...] = _running_sum(conv.db, rows)
        dw += x.T @ grad


class ReluPool(PlaneRows):
    """A conv's output after its ReLU and a max pool, made a block of whole samples at a time.

    ``Conv2d.forward(x, pool=(ph, pw))`` makes this in place of its output
    plane. A block is one sample's plane, or as many whole samples as fit in
    POOL_ROWS rows. Per block, it computes the conv's output rows into one
    scratch plane, tile by tile as the plane path does, then adds the bias,
    takes the ReLU and pools, each as the plane path would over the whole
    batch. So ``out`` and the index have the plane path's bits, and no pass
    holds the conv's output plane. A training pass also keeps, per window,
    the index of its first max, or ``ph * pw`` where the value there is not
    > 0, so that the ReLU's gate drops its gradient. The ReLU passes this
    on, and the pool hands ``out`` on.

    The pool's backward hands its output gradient to ``backward``, which
    returns this as the flat (samples * h * w, channels) rows of the conv's
    zero-padded output gradient, a block's rows per plane. A block's planes
    are rebuilt from the index when a slice first reaches them, into one of
    two buffers that the blocks take in turn, so a slice's rows are valid
    until the next slice. A block adds its rows, zeros included, to ``db``
    the first time it is built (``_running_sum``).
    """

    def __init__(self, conv: "Conv2d", xf, in_shape: tuple, window: tuple[int, int], train: bool):
        n, h, wd, cin = in_shape
        kh, kw, _, cout = conv.w.shape
        ph, pw = window
        oh, ow = h - kh + 1, wd - kw + 1
        if oh // ph < 1 or ow // pw < 1:
            raise ValueError(f"maxpool2d: input {oh}x{ow} smaller than window {ph}x{pw}")
        self._block = max(1, min(n, POOL_ROWS // (h * wd)))  # samples per block
        super().__init__((n * h * wd, cout), np.result_type(xf.dtype, conv.w.dtype), self._block * h * wd)
        self._plane_shape, self._crop, self._window = (h, wd, cout), (oh, ow), window
        self.out = np.empty((n, oh // ph, ow // pw, cout), dtype=self.dtype)
        self._arg = np.empty(self.out.shape, dtype=np.min_scalar_type(ph * pw)) if train else None
        plane = np.empty((self._per, cout), dtype=self.dtype)
        part = np.empty((min(len(plane), _forward_rows(cin)), cout), dtype=self.dtype)
        mats, shifts = conv.w.reshape(-1, cin, cout), conv._shifts(wd)
        for s in range(0, n, self._block):
            m = min(self._block, n - s)
            rows = _shifted_gemms(xf, mats, shifts, s * h * wd, plane[: m * h * wd], part)
            rows += conv.b
            np.maximum(rows, 0, out=rows)
            cells = _cells(rows.reshape(m, h, wd, cout)[:, :oh, :ow], ph, pw)
            out = _pool(cells, self.out[s : s + m])
            if train:
                # The value at the first max: the max, or for a NaN max the last cell, where its index points.
                top = np.where(out == out, out, cells[-1])
                self._arg[s : s + m] = np.where(top > 0, _first_max(cells, out), ph * pw)

    def _reset(self) -> None:
        self._planes: dict[int, np.ndarray] = {}
        self._summed = 0  # blocks whose rows db holds
        self.db = np.zeros(self.shape[1], dtype=self.dtype)

    def backward(self, dout: np.ndarray) -> "ReluPool":
        """These rows as the conv's zero-padded output gradient, for the pool's output gradient ``dout``."""
        self._dout = dout
        self._reset()
        return self

    def done(self) -> np.ndarray:
        """The bias gradient, once every row has been read; the planes and the output gradient are dropped."""
        self._planes = self._dout = None
        return self.db

    def _plane(self, block: int) -> np.ndarray:
        """Block ``block``'s read-only (samples * h * w, channels) gradient rows, rebuilt on first use."""
        buf = self._planes.get(block)
        if buf is None:
            h, wd, c = self._plane_shape
            if len(self._planes) == 2:
                buf = self._planes.pop(next(iter(self._planes)))
            else:
                buf = np.zeros((1 + self._per, c), dtype=self.dtype)  # row 0 for db; crop and floor stay +0.0
            s = block * self._block
            m = min(self._block, len(self.out) - s)
            oh, ow = self._crop
            for k, cell in enumerate(_cells(buf[1 : 1 + m * h * wd].reshape(m, h, wd, c)[:, :oh, :ow], *self._window)):
                _gate(self._dout[s : s + m], self._arg[s : s + m] == k, out=cell)
            if block == self._summed:
                self.db = _running_sum(self.db, buf[: 1 + m * h * wd])
                self._summed += 1
            self._planes[block] = buf
        rows = buf[1:].view()
        rows.flags.writeable = False
        return rows


class Layer:
    """What every layer shares: no parameters, and the arrays a training forward keeps.

    ``kept`` names the attributes a training forward fills for backward.
    """

    kept: tuple[str, ...] = ()

    def __init__(self):
        self.forget()

    def params(self):
        return []

    def grads(self):
        return []

    def forget(self) -> None:
        """Drop what the last training pass kept."""
        for name in self.kept:
            setattr(self, name, None)


class Conv2d(Layer):
    """Valid 2-D convolution, kernel (kh, kw), weights (kh, kw, cin, cout).

    Forward and backward both run one GEMM per kernel offset on row-shifted
    slices of the flat input plane (see the module docstring), tile by tile
    (TILE_ROWS rows in backward, ``_forward_rows`` in forward). Untiled,
    each offset's whole-batch product (60 MB for a 32x121x121x32 float32
    input) would stream through memory once per offset; a tile's products
    stay in cache for all offsets. There is no im2col copy: one GEMM per
    tile over its concatenated offsets was ~2.7x slower in forward at that
    shape.
    """

    kept = ("_xf", "_in_shape", "_out")

    def __init__(self, kh: int, kw: int, cin: int, cout: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        scale = np.sqrt(2.0 / (kh * kw * cin))
        self.w = (rng.standard_normal((kh, kw, cin, cout)) * scale).astype(dtype)
        self.b = np.zeros(cout, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def _shifts(self, wd: int) -> list[int]:
        """Row shift ki*wd + kj of every kernel offset, in weight order (the zero shift first)."""
        kh, kw = self.w.shape[:2]
        return [ki * wd + kj for ki in range(kh) for kj in range(kw)]

    def forward(self, x, train: bool = True, relu_rows: bool = False, pool: tuple[int, int] | None = None):
        """The output plane; with ``relu_rows`` (a 1x1 conv only), its ReLU as a ``ReluRows`` instead.

        With ``pool``, the (ph, pw) window of the max pool after its ReLU,
        that pool of its ReLU as a ``ReluPool`` instead, made a block of
        whole samples at a time.
        """
        kh, kw, cin, cout = self.w.shape
        n, h, wd, c = x.shape
        if c != cin:
            raise ValueError(f"conv2d: expected {cin} input channels, got {c}")
        if h < kh or wd < kw:
            raise ValueError(f"conv2d: input {h}x{wd} smaller than kernel {kh}x{kw}")
        if not train:
            self.forget()
        xf = x.reshape(-1, cin)
        if relu_rows:
            if (kh, kw) != (1, 1):
                raise ValueError(f"conv2d: only a 1x1 conv hands out ReLU rows, not a {kh}x{kw} one")
            out = ReluRows(self, xf, (n, h, wd, cout))
        elif pool:
            out = ReluPool(self, xf, x.shape, pool, train)
        else:
            dtype = np.result_type(xf.dtype, self.w.dtype)
            rows = xf.shape[0]
            out = np.empty((rows, cout), dtype=dtype)
            _shifted_gemms(xf, self.w.reshape(-1, cin, cout), self._shifts(wd), 0, out, np.empty((min(rows, _forward_rows(cin)), cout), dtype=dtype))
            out += self.b
        if train:
            self._xf, self._in_shape, self._out = xf, x.shape, out
        if relu_rows or pool:
            return out
        return out.reshape(n, h, wd, cout)[:, : h - kh + 1, : wd - kw + 1]

    def backward(self, dout, input_grad: bool = True, spent: bool = False):
        """The parameter gradients, then the input gradient unless ``input_grad`` is false.

        The zero-padded output gradient is built in the flat output array the
        training forward kept, or, for a ``dout`` that is the ``ReluPool``
        this conv's forward made, read from its rows a sample plane at a
        time. With ``spent``, nothing reads the input after this call, and
        the input gradient is written into the input's array. If the input is
        a ``ReluRows``, each input gradient tile is gated by ``input > 0`` in
        a scratch tile and handed to their ``backward``, which adds it to the
        1x1 conv's gradients, and the rows come back in place of the
        gradient. A conv that handed out ReLU rows gets those back as
        ``dout``: its gradients are then already done.

        Runs tile by tile: a tile's weight gradient terms, then its rows of
        the input gradient, which are written only once every later tile's
        terms no longer read them.
        """
        if isinstance(dout, ReluRows):
            return None
        xf = self._xf
        n, h, wd, cin = self._in_shape
        pooled = isinstance(dout, ReluPool)
        if pooled:
            gf = dout
        else:
            oh, ow = dout.shape[1:3]
            self.db[...] = dout.sum(axis=(0, 1, 2))
            # The forward output's array, which every later layer's backward has read by now.
            g = self._out.reshape(n, h, wd, -1)
            g[:, oh:] = 0
            g[:, :oh, ow:] = 0
            g[:, :oh, :ow] = dout
            gf = g.reshape(xf.shape[0], -1)
        rows = gf.shape[0]
        shifts = self._shifts(wd)
        dw = self.dw.reshape(len(shifts), cin, -1)
        dw[...] = 0
        streamed = isinstance(xf, ReluRows)
        if input_grad:
            # A C-contiguous copy: reshaping the transposed view would merge the kernel axes without copying.
            wt = np.ascontiguousarray(self.w.transpose(0, 1, 3, 2)).reshape(len(shifts), -1, cin)
            back = [-s for s in shifts]
            part = np.empty((min(rows, TILE_ROWS), cin), dtype=np.result_type(gf.dtype, wt.dtype))
            # Streamed, a scratch tile after one row for the rows' running bias sum.
            dx = np.empty((1 + len(part), cin), dtype=part.dtype) if streamed else xf if spent else np.empty((rows, cin), dtype=part.dtype)
        # The weight gradient is summed tile by tile in a fixed order: short
        # GEMMs whose result does not depend on the BLAS thread count.
        for r0 in range(0, rows, TILE_ROWS):
            r1 = min(r0 + TILE_ROWS, rows)
            src = xf[r0 : min(r1 + shifts[-1], rows)]  # the tile's input rows and those its shifts reach
            # The tile's output gradient rows and those its input gradient's shifts reach, read once.
            lo = max(r0 - shifts[-1], 0)
            grad = gf[lo:r1]
            for k, s in enumerate(shifts):
                e = min(r1, rows - s)
                if e <= r0:
                    break
                dw[k] += src[s : e - r0 + s].T @ grad[r0 - lo : e - lo]
            if input_grad:
                tile = _shifted_tile(grad, wt, back, r0 - lo, r1 - lo, dx[1 : 1 + r1 - r0] if streamed else dx[r0:r1], part)
                if streamed:
                    _gate(tile, src[: r1 - r0] > 0, out=tile)
                    xf.backward(r0, dx[: 1 + r1 - r0])
            del grad  # a copy where the tile spans two samples, freed before the next tile reads
        if pooled:
            self.db[...] = gf.done()
        if not input_grad:
            return None
        return xf if streamed else dx.reshape(self._in_shape)


class MaxPool2d(Layer):
    """Max pooling with window (ph, pw), stride equal to the window.

    Each window cell is one strided view of the input. A training forward
    keeps a view of its input and, per output cell, the row-major index of
    the first window cell holding the max, which is where backward sends
    the whole gradient. An input that is a ``ReluPool`` was pooled by the
    conv before: its ``out`` is the output, and backward hands the gradient
    to it.
    """

    kept = ("_arg", "_x")

    def __init__(self, ph: int, pw: int):
        super().__init__()
        self.ph, self.pw = ph, pw

    def forward(self, x, train: bool = True) -> np.ndarray:
        if not train:
            self.forget()
        if isinstance(x, ReluPool):
            self._x = x if train else None
            return x.out
        n, h, w, c = x.shape
        if h // self.ph < 1 or w // self.pw < 1:
            raise ValueError(f"maxpool2d: input {h}x{w} smaller than window {self.ph}x{self.pw}")
        cells = _cells(x, self.ph, self.pw)
        out = _pool(cells, np.empty(cells[0].shape, dtype=x.dtype))
        if train:
            self._arg, self._x = _first_max(cells, out), x
        return out

    def backward(self, dout: np.ndarray):
        """The input gradient: ``dout`` at each window's first max, +0.0 elsewhere and in floored cells."""
        if isinstance(self._x, ReluPool):
            return self._x.backward(dout)
        dx = np.zeros(self._x.shape, dtype=dout.dtype)
        for k, cell in enumerate(_cells(dx, self.ph, self.pw)):
            _gate(dout, self._arg == k, out=cell)
        return dx


class ReLU(Layer):
    """Rectifier; backward gates on the kept output, which is > 0 exactly where x > 0.

    Works in place on a writable ``x`` and on a writable ``dout``.
    """

    kept = ("_out",)

    def forward(self, x, train: bool = True):
        """``max(x, 0)``; a ``PlaneRows`` (``ReluRows``, a ``ReluPool``) is rectified already and passes as it is."""
        out = x if isinstance(x, PlaneRows) else np.maximum(x, 0, out=x if x.flags.writeable else None)
        self._out = out if train else None
        return out

    def backward(self, dout):
        """``dout`` where the kept output is > 0; a ``PlaneRows`` is gated already and comes back as is."""
        if isinstance(dout, PlaneRows):
            return dout
        return _gate(dout, self._out > 0, out=dout if dout.flags.writeable else None)


class Flatten(Layer):
    kept = ("_in_shape",)

    def forward(self, x, train: bool = True):
        self._in_shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._in_shape)


class Dense(Layer):
    """Affine map ``x @ w + b``, run as GEMMs of DENSE_ROWS rows each."""

    kept = ("_x",)

    def __init__(self, nin: int, nout: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        scale = np.sqrt(2.0 / nin)
        self.w = (rng.standard_normal((nin, nout)) * scale).astype(dtype)
        self.b = np.zeros(nout, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def forward(self, x, train: bool = True):
        if x.shape[1] != self.w.shape[0]:
            raise ValueError(f"dense: expected {self.w.shape[0]} inputs, got {x.shape[1]}")
        self._x = x if train else None
        n = x.shape[0]
        tiles = np.zeros((-(-n // DENSE_ROWS), DENSE_ROWS, x.shape[1]), dtype=x.dtype)
        tiles.reshape(-1, x.shape[1])[:n] = x
        return (tiles @ self.w).reshape(-1, self.w.shape[1])[:n] + self.b

    def backward(self, dout, input_grad: bool = True):
        self.dw[...] = self._x.T @ dout
        self.db[...] = dout.sum(axis=0)
        if not input_grad:
            return None
        return dout @ self.w.T


class Sigmoid(Layer):
    kept = ("_out",)

    def forward(self, x, train: bool = True):
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        self._out = out if train else None
        return out

    def backward(self, dout):
        # Clamp mirrors the loss clamp so the product (p - y) stays exact
        # and bounded even when the activation saturates in float32.
        q = np.clip(self._out, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
        return dout * q * (1.0 - q)
