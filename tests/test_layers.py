import numpy as np
import pytest

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


@pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (3, 1), (2, 3)])
def test_conv_matches_direct_reference(kernel):
    # Batch > 1 and h != w: the flat layout's cropped rows straddle row wraps and samples.
    rng = np.random.default_rng(sum(kernel))
    conv = Conv2d(*kernel, 3, 4, rng, dtype=np.float64)
    conv.b[...] = rng.standard_normal(4)
    x = rng.standard_normal((3, 6, 5, 3))
    x_before = x.copy()
    out = conv.forward(x)
    assert np.allclose(out, conv2d_direct(x, conv.w, conv.b), rtol=1e-12, atol=1e-12)
    dout = rng.standard_normal(out.shape)
    dout_before = dout.copy()
    dx = conv.backward(dout)
    dw, db, dx_ref = conv2d_direct(x, conv.w, conv.b, dout)
    assert np.allclose(conv.dw, dw, rtol=1e-12, atol=1e-12)
    assert np.allclose(conv.db, db, rtol=1e-12, atol=1e-12)
    assert np.allclose(dx, dx_ref, rtol=1e-12, atol=1e-12)
    assert np.array_equal(x, x_before) and np.array_equal(dout, dout_before)
    conv.dw[...] = 0.0
    assert conv.backward(dout, input_grad=False) is None
    assert np.allclose(conv.dw, dw, rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_layer_gradients_small(kind):
    rng = np.random.default_rng(123)
    assert check_layer(kind, rng) < DEFAULT_TOLERANCE


def test_run_gradcheck_covers_all_kinds():
    errors = run_gradcheck(seed=5)
    assert set(errors) == set(LAYER_KINDS)
    assert max(errors.values()) < DEFAULT_TOLERANCE
