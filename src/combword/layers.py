"""From-scratch NHWC layers with explicit forward/backward passes.

Convolutions are valid (no padding) and stride 1. A sample batch is viewed
as one flat (n*h*w, cin) matrix, in which kernel offset (ki, kj) is a shift
of ki*w + kj rows, so a conv is kh*kw GEMMs on row-shifted slices of that
matrix summed into one (n*h*w, cout) buffer. Rows whose window straddles a
row wrap or two samples get wrong sums and are cropped away; backward pads
the output gradient with zeros onto the input plane, so those rows add
nothing to the weight or input gradients. Pooling floors odd extents.

``backward(dout, input_grad=False)`` computes only the parameter gradients
and returns None; the network asks this of its first layer, whose input
gradient nobody reads. No layer writes into its ``x`` or ``dout`` argument
(so ReLU is not applied in place): gradient checks call the same layer again
on the same arrays, and a conv keeps a view of its input. All layers
preserve the dtype of their parameters/input, so the same code runs in
float32 for training and float64 for finite-difference checks.
"""

from __future__ import annotations

import numpy as np

SIGMOID_CLAMP = 1e-7


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


class Conv2d:
    """Valid 2-D convolution, kernel (kh, kw), weights (kh, kw, cin, cout).

    Forward and backward both run one GEMM per kernel offset on row-shifted
    slices of the flat input plane (see the module docstring). That needs no
    im2col copy, and no temporary larger than one output- or input-sized
    product, so the batch is never split into chunks.
    """

    def __init__(self, kh: int, kw: int, cin: int, cout: int, rng: np.random.Generator, dtype=np.float32):
        scale = np.sqrt(2.0 / (kh * kw * cin))
        self.w = (rng.standard_normal((kh, kw, cin, cout)) * scale).astype(dtype)
        self.b = np.zeros(cout, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._xf = None
        self._in_shape = None

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def _shifts(self, wd: int):
        """(ki, kj, row shift) for every kernel offset, the zero shift first."""
        kh, kw = self.w.shape[:2]
        return [(ki, kj, ki * wd + kj) for ki in range(kh) for kj in range(kw)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        kh, kw, cin, cout = self.w.shape
        n, h, wd, c = x.shape
        if c != cin:
            raise ValueError(f"conv2d: expected {cin} input channels, got {c}")
        if h < kh or wd < kw:
            raise ValueError(f"conv2d: input {h}x{wd} smaller than kernel {kh}x{kw}")
        xf = x.reshape(-1, cin)
        rows = xf.shape[0]
        out = xf @ self.w[0, 0]
        for ki, kj, s in self._shifts(wd)[1:]:
            out[: rows - s] += xf[s:] @ self.w[ki, kj]
        out += self.b
        self._xf, self._in_shape = xf, x.shape
        return out.reshape(n, h, wd, cout)[:, : h - kh + 1, : wd - kw + 1]

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        xf = self._xf
        n, h, wd, cin = self._in_shape
        oh, ow = dout.shape[1:3]
        self.db[...] = dout.sum(axis=(0, 1, 2))
        if (oh, ow) == (h, wd):
            gf = dout.reshape(xf.shape[0], -1)
        else:
            g = np.zeros((n, h, wd, dout.shape[3]), dtype=dout.dtype)
            g[:, :oh, :ow] = dout
            gf = g.reshape(xf.shape[0], -1)
        rows = gf.shape[0]
        for ki, kj, s in self._shifts(wd):
            self.dw[ki, kj] = xf[s:].T @ gf[: rows - s]
        if not input_grad:
            return None
        dxf = gf @ self.w[0, 0].T
        for ki, kj, s in self._shifts(wd)[1:]:
            dxf[s:] += gf[: rows - s] @ self.w[ki, kj].T
        return dxf.reshape(self._in_shape)


class MaxPool2d:
    """Max pooling with window (ph, pw), stride equal to the window.

    Each window cell is one strided view of the input. Forward keeps, per
    output cell, the row-major index of the first window cell holding the
    max, which is where backward sends the whole gradient.
    """

    def __init__(self, ph: int, pw: int):
        self.ph, self.pw = ph, pw
        self._arg = None
        self._in_shape = None

    def params(self):
        return []

    def grads(self):
        return []

    def _cells(self, x: np.ndarray) -> list[np.ndarray]:
        """Strided views of x, one per window cell in row-major order."""
        ph, pw = self.ph, self.pw
        hc, wc = x.shape[1] // ph * ph, x.shape[2] // pw * pw
        return [x[:, di:hc:ph, dj:wc:pw] for di in range(ph) for dj in range(pw)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        if h // self.ph < 1 or w // self.pw < 1:
            raise ValueError(f"maxpool2d: input {h}x{w} smaller than window {self.ph}x{self.pw}")
        cells = self._cells(x)
        out = cells[0].copy()
        for cell in cells[1:]:
            np.maximum(cell, out, out=out)  # on equal values this keeps out, the earlier cell
        # Index of the first cell equal to the max, by Horner's rule from the last cell back.
        arg = np.zeros(out.shape, dtype=np.min_scalar_type(len(cells) - 1))
        for cell in reversed(cells[:-1]):
            arg = (cell != out) * (arg + 1)
        self._arg, self._in_shape = arg, x.shape
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        if not input_grad:
            return None
        dx = np.zeros(self._in_shape, dtype=dout.dtype)
        for k, cell in enumerate(self._cells(dx)):
            _gate(dout, self._arg == k, out=cell)
        return dx


class ReLU:
    """Rectifier; backward gates on the kept output, which is > 0 exactly where x > 0."""

    def __init__(self):
        self._out = None

    def params(self):
        return []

    def grads(self):
        return []

    def forward(self, x):
        self._out = np.maximum(x, 0)
        return self._out

    def backward(self, dout, input_grad: bool = True):
        if not input_grad:
            return None
        return _gate(dout, self._out > 0)


class Flatten:
    def __init__(self):
        self._in_shape = None

    def params(self):
        return []

    def grads(self):
        return []

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, input_grad: bool = True):
        if not input_grad:
            return None
        return dout.reshape(self._in_shape)


class Dense:
    def __init__(self, nin: int, nout: int, rng: np.random.Generator, dtype=np.float32):
        scale = np.sqrt(2.0 / nin)
        self.w = (rng.standard_normal((nin, nout)) * scale).astype(dtype)
        self.b = np.zeros(nout, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def forward(self, x):
        if x.shape[1] != self.w.shape[0]:
            raise ValueError(f"dense: expected {self.w.shape[0]} inputs, got {x.shape[1]}")
        self._x = x
        return x @ self.w + self.b

    def backward(self, dout, input_grad: bool = True):
        self.dw[...] = self._x.T @ dout
        self.db[...] = dout.sum(axis=0)
        if not input_grad:
            return None
        return dout @ self.w.T


class Sigmoid:
    def __init__(self):
        self._out = None

    def params(self):
        return []

    def grads(self):
        return []

    def forward(self, x):
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        self._out = out
        return out

    def backward(self, dout, input_grad: bool = True):
        if not input_grad:
            return None
        # Clamp mirrors the loss clamp so the product (p - y) stays exact
        # and bounded even when the activation saturates in float32.
        q = np.clip(self._out, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
        return dout * q * (1.0 - q)
