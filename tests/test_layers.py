import tracemalloc

import numpy as np
import pytest

from combword import layers
from combword.gradcheck import DEFAULT_TOLERANCE, LAYER_KINDS, check_layer, run_gradcheck
from combword.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid

from oracles import conv2d_direct


def test_conv_known_1x1():
    rng = np.random.default_rng(0)
    conv = Conv2d(1, 1, 2, 1, rng, dtype=np.float64)
    conv.w[...] = np.array([[[[2.0], [3.0]]]])  # out = 2*c0 + 3*c1
    conv.b[...] = 0.5
    x = np.zeros((1, 2, 2, 2))
    x[0, 0, 0] = [1.0, 1.0]
    x[0, 1, 1] = [0.0, 2.0]
    out = conv.forward(x)
    assert out.shape == (1, 2, 2, 1)
    assert out[0, 0, 0, 0] == pytest.approx(5.5)
    assert out[0, 1, 1, 0] == pytest.approx(6.5)
    assert out[0, 0, 1, 0] == pytest.approx(0.5)


def test_conv_valid_shrinks_plane():
    rng = np.random.default_rng(0)
    conv = Conv2d(3, 3, 1, 4, rng)
    out = conv.forward(np.zeros((2, 7, 5, 1), dtype=np.float32))
    assert out.shape == (2, 5, 3, 4)


def test_conv_rejects_small_plane():
    rng = np.random.default_rng(0)
    conv = Conv2d(3, 3, 1, 4, rng)
    with pytest.raises(ValueError, match="conv2d"):
        conv.forward(np.zeros((1, 2, 5, 1), dtype=np.float32))


def test_conv_rejects_channel_mismatch():
    rng = np.random.default_rng(0)
    conv = Conv2d(1, 1, 3, 4, rng)
    with pytest.raises(ValueError, match="channels"):
        conv.forward(np.zeros((1, 4, 4, 2), dtype=np.float32))


CONV_KERNELS = [(1, 1), (3, 3), (3, 1), (2, 3)]


# Tile sizes in rows of the flat 90-row input: 1, 7 and one row below the kernel's
# largest shift make shifted slices straddle tiles and leave a partial last tile.
@pytest.mark.parametrize(
    "kernel, tile",
    [
        pytest.param(kernel, tile, id=f"kernel{i}" if tile == "default" else f"kernel{i}-tile_{tile}")
        for tile in ("default", 1, 7, "below_largest_shift")
        for i, kernel in enumerate(CONV_KERNELS)
    ],
)
def test_conv_matches_direct_reference(kernel, tile, monkeypatch):
    # Batch > 1 and h != w: the flat layout's cropped rows straddle row wraps and samples.
    rng = np.random.default_rng(sum(kernel))
    conv = Conv2d(*kernel, 3, 4, rng, dtype=np.float64)
    conv.b[...] = rng.standard_normal(4)
    x = rng.standard_normal((3, 6, 5, 3))
    x_before = x.copy()
    out_view = conv.forward(x)
    out_default = out_view.copy()  # backward pads its output gradient in the forward output's array
    dout = rng.standard_normal(out_default.shape)
    dout_before = dout.copy()
    dx_default = conv.backward(dout)
    if out_default.shape[1:3] != x.shape[1:3]:
        padded = np.zeros((*x.shape[:3], 4))
        padded[:, : dout.shape[1], : dout.shape[2]] = dout
        assert np.shares_memory(out_view, conv._out) and conv._out.tobytes() == padded.tobytes()
    if tile != "default":
        largest_shift = (kernel[0] - 1) * x.shape[2] + kernel[1] - 1
        monkeypatch.setattr(layers, "TILE_ROWS", max(largest_shift - 1, 1) if tile == "below_largest_shift" else tile)
    out = conv.forward(x)
    assert out.tobytes() == out_default.tobytes()
    assert np.allclose(out, conv2d_direct(x, conv.w, conv.b), rtol=1e-12, atol=1e-12)
    dx = conv.backward(dout)
    assert dx.tobytes() == dx_default.tobytes()
    dw, db, dx_ref = conv2d_direct(x, conv.w, conv.b, dout)
    assert np.allclose(conv.dw, dw, rtol=1e-12, atol=1e-12)
    assert np.allclose(conv.db, db, rtol=1e-12, atol=1e-12)
    assert np.allclose(dx, dx_ref, rtol=1e-12, atol=1e-12)
    assert np.array_equal(x, x_before) and np.array_equal(dout, dout_before)
    conv.dw[...] = 0.0
    assert conv.backward(dout, input_grad=False) is None
    assert np.allclose(conv.dw, dw, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("tile", ["default", 1, 7])
@pytest.mark.parametrize("kernel", CONV_KERNELS)
def test_spent_conv_backward_writes_its_input_gradient_into_its_input(kernel, tile, monkeypatch):
    if tile != "default":
        monkeypatch.setattr(layers, "TILE_ROWS", tile)
    rng = np.random.default_rng(sum(kernel) + 2)
    conv = Conv2d(*kernel, 3, 4, rng, dtype=np.float32)
    x = rng.standard_normal((3, 6, 5, 3)).astype(np.float32)
    dout = rng.standard_normal(conv.forward(x).shape).astype(np.float32)
    expected = conv.backward(dout)
    dw = conv.dw.tobytes()
    dx = conv.backward(dout, spent=True)
    assert np.shares_memory(dx, x)  # written into the spent input, a pool's output in a network
    assert dx.tobytes() == expected.tobytes() and conv.dw.tobytes() == dw


def test_maxpool_picks_maxima_and_floors():
    pool = MaxPool2d(2, 2)
    x = np.arange(1 * 5 * 5 * 1, dtype=np.float64).reshape(1, 5, 5, 1)
    out = pool.forward(x)
    assert out.shape == (1, 2, 2, 1)
    assert out[0, 0, 0, 0] == 6  # max of rows 0-1, cols 0-1
    assert out[0, 1, 1, 0] == 18


def test_maxpool_backward_routes_to_argmax():
    pool = MaxPool2d(2, 2)
    x = np.array([[[[1.0], [5.0]], [[2.0], [3.0]]]])
    pool.forward(x)
    dx = pool.backward(np.array([[[[7.0]]]]))
    assert dx[0, 0, 1, 0] == 7.0
    assert dx.sum() == 7.0


def test_maxpool_ties_go_to_first_cell_once_and_floored_cells_get_zero():
    pool = MaxPool2d(2, 3)
    x = np.zeros((2, 5, 7, 2))  # floor drops row 4 and column 6
    x[1, 2:4, 3:6, 1] = [[-0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]  # max 1.0 first at window cell 2
    x[0, 0:2, 0:3, 0] = [[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]  # equal zeros, -0.0 first
    out = pool.forward(x)
    assert out.shape == (2, 2, 2, 2)
    assert np.signbit(out[0, 0, 0, 0]) and out[1, 1, 1, 1] == 1.0
    dout = -1.0 - np.arange(out.size, dtype=np.float64).reshape(out.shape)
    dx = pool.backward(dout)
    expected = np.zeros_like(x)
    expected[:, 0:4:2, 0:6:3] = dout  # every all-equal window: its top-left cell
    expected[1, 2:4, 3:6, 1] = 0.0
    expected[1, 2, 5, 1] = dout[1, 1, 1, 1]
    assert dx.tobytes() == expected.tobytes()  # also no -0.0 in unrouted cells
    assert np.abs(dx).sum() == np.abs(dout).sum()


def test_relu_pool_gradient_rows_are_the_relu_backward_of_the_pools_input_gradient():
    # The tie and signed-zero windows above, a NaN, negative cells, and positive floored cells,
    # through a conv whose (0, 0) offset copies its input and whose others see only zeros.
    conv = Conv2d(2, 2, 2, 2, np.random.default_rng(0), dtype=np.float64)
    conv.w[...] = 0
    conv.w[0, 0] = np.eye(2)
    x = np.zeros((2, 6, 8, 2))
    core = x[:, :5, :7]  # what the conv's output copies
    core[...] = np.random.default_rng(15).standard_normal(core.shape)
    core[1, 2:4, 3:6, 1] = [[-0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    core[0, 0:2, 0:3, 0] = [[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    core[0, 2:4, 0:3, 1] = [[2.0, np.nan, 1.0], [-1.0, 3.0, 0.5]]
    core[1, 0:2, 0:3, 0] = -1.0
    core[:, 4] = core[:, :, 6] = 5.0  # dropped by the floor
    relu, pool = ReLU(), MaxPool2d(2, 3)
    plane = relu.forward(conv.forward(x))
    out = pool.forward(plane)
    dout = -1.0 - np.arange(out.size, dtype=np.float64).reshape(out.shape)
    dout[0, 0, 1] = -0.0
    dout[1, 0, 0] = np.nan
    expected = np.zeros((2, 6, 8, 2))  # the plane path's zero-padded output gradient
    expected[:, :5, :7] = relu.backward(pool.backward(dout))
    fused = conv.forward(x, pool=(2, 3))
    assert fused.out.tobytes() == out.tobytes()
    rows = fused.backward(dout)
    got = rows[0 : rows.shape[0]].reshape(expected.shape)
    assert got.tobytes() == expected.tobytes()
    g = got[:, :5, :7]
    assert np.isnan(g).sum() == 1 and np.signbit(g[0, 0:2, 3:6]).sum() == 2  # a kept NaN; a kept -0.0 per channel
    assert not np.signbit(got[:, 4:]).any() and not got[:, 4:].any() and not got[:, :, 6:].any()
    assert rows.done().tobytes() == expected.sum(axis=(0, 1, 2)).tobytes()


def test_relu_and_sigmoid_values():
    relu = ReLU()
    out = relu.forward(np.array([[-1.0, 0.0, 2.0]]))
    assert list(out[0]) == [0.0, 0.0, 2.0]
    sig = Sigmoid()
    assert sig.forward(np.array([[0.0]]))[0, 0] == pytest.approx(0.5)
    assert sig.forward(np.array([[50.0]]))[0, 0] == pytest.approx(1.0)
    assert sig.forward(np.array([[-500.0]]))[0, 0] == pytest.approx(0.0)  # no overflow


def test_flatten_roundtrip():
    fl = Flatten()
    x = np.arange(24.0).reshape(2, 3, 2, 2)
    out = fl.forward(x)
    assert out.shape == (2, 12)
    assert np.array_equal(fl.backward(out), x)


def test_dense_affine():
    rng = np.random.default_rng(0)
    d = Dense(3, 2, rng, dtype=np.float64)
    d.w[...] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    d.b[...] = [10.0, 20.0]
    out = d.forward(np.array([[1.0, 2.0, 3.0]]))
    assert list(out[0]) == [14.0, 25.0]


@pytest.mark.parametrize("nin, nout", [(1152, 64), (64, 1)], ids=["L9", "L11"])
def test_dense_rows_do_not_depend_on_batch_size(nin, nout):
    # The two dense shapes of the n=10 tensor CNN; the 64->1 head is a one-column product.
    rng = np.random.default_rng(nin)
    d = Dense(nin, nout, rng)
    d.b[...] = rng.standard_normal(nout)
    x = np.maximum(rng.standard_normal((33, nin)), 0).astype(np.float32)
    rows = d.forward(x)
    assert rows[:32].tobytes() == (x[:32] @ d.w + d.b).tobytes()  # a full batch of 32 keeps its bits
    for n in range(1, 34):
        assert d.forward(x[:n]).tobytes() == rows[:n].tobytes(), n
        assert d.forward(x[33 - n :]).tobytes() == rows[33 - n :].tobytes(), n


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_layer_gradients_small(kind):
    rng = np.random.default_rng(123)
    assert check_layer(kind, rng) < DEFAULT_TOLERANCE


def test_run_gradcheck_covers_all_kinds():
    errors = run_gradcheck(seed=5)
    assert set(errors) == set(LAYER_KINDS)
    assert max(errors.values()) < DEFAULT_TOLERANCE


def batch_state(layer) -> list[str]:
    """Names of the arrays a layer holds besides its parameters and their gradients."""
    own = [id(a) for a in layer.params() + layer.grads()]
    return [k for k, v in vars(layer).items() if isinstance(v, np.ndarray) and id(v) not in own]


def one_of_each_layer(rng):
    """(layer, input) per layer kind, float64, with negative inputs for ReLU and ties for pooling."""
    plane = rng.standard_normal((3, 6, 5, 4))
    plane[0, :2, :2, 0] = 0.5
    return [
        (Conv2d(3, 3, 4, 2, rng, dtype=np.float64), plane),
        (MaxPool2d(2, 2), plane),
        (ReLU(), plane),
        (Flatten(), plane),
        (Dense(4, 3, rng, dtype=np.float64), rng.standard_normal((5, 4))),
        (Sigmoid(), rng.standard_normal((5, 1))),
    ]


def test_inference_forward_keeps_nothing_and_matches_training_forward():
    for layer, x in one_of_each_layer(np.random.default_rng(11)):
        kept = layer.forward(x.copy()).copy()  # copies: ReLU rectifies its input in place
        assert batch_state(layer) or isinstance(layer, Flatten)
        out = layer.forward(x.copy(), train=False)
        assert out.tobytes() == kept.tobytes(), type(layer).__name__
        assert batch_state(layer) == [], type(layer).__name__


@pytest.mark.parametrize("layer", [ReLU(), MaxPool2d(2, 2)], ids=["relu", "maxpool2d"])
def test_standalone_forward_leaves_x_intact_and_backward_runs(layer):
    # Gradient checks call a layer on their own arrays, then again on the same ones;
    # ReLU would rectify a writable x in place, so it gets a read-only view, as there.
    x = np.random.default_rng(12).standard_normal((2, 4, 6, 3))
    x_before = x.copy()
    view = x.view()
    view.flags.writeable = not isinstance(layer, ReLU)
    out = layer.forward(view)
    assert np.array_equal(x, x_before)
    dout = np.ones_like(out)
    dx = layer.backward(dout)
    assert dx.shape == x.shape and np.array_equal(x, x_before)
    assert np.shares_memory(dx, dout) == isinstance(layer, ReLU)  # ReLU gates a writable dout in place
    assert np.array_equal(dx != 0, x > 0) if isinstance(layer, ReLU) else dx.sum() == out.size


@pytest.mark.parametrize("train", [False, True])
def test_inference_relu_rectifies_writable_input_in_place_and_never_a_read_only_one(train):
    x = np.random.default_rng(13).standard_normal((2, 7))
    expected = np.maximum(x, 0)
    guarded = x.copy()
    guarded.flags.writeable = False
    out = ReLU().forward(guarded, train=train)
    assert out.tobytes() == expected.tobytes() and not np.shares_memory(out, guarded)
    assert ReLU().forward(x, train=train) is x
    assert x.tobytes() == expected.tobytes()


def _peak_bytes(fn) -> int:
    """Peak bytes that ``fn()`` allocates above what is live when it starts."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_pool_and_relu_allocate_only_their_output():
    # Without a backward to come, the pool builds no first-max index and ReLU no new array.
    x = np.random.default_rng(14).standard_normal((8, 128, 128, 8)).astype(np.float32)
    pooled = x[:, ::2, ::2].nbytes
    index = x.size // 4  # one byte per output cell
    assert _peak_bytes(lambda: MaxPool2d(2, 2).forward(x)) > pooled + index  # with the index, for contrast
    assert _peak_bytes(lambda: MaxPool2d(2, 2).forward(x, train=False)) < pooled + index // 2
    assert _peak_bytes(lambda: ReLU().forward(x, train=False)) < 4096
