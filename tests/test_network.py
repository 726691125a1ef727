import math
import tracemalloc

import numpy as np
import pytest

from combword import layers
from combword.datasets import TASKS, task_alphabet
from combword.encoding import BatchEncoder, EncodingConfig, channel_count
from combword.gradcheck import check_model_gradients
from combword.layers import ReluPool, ReluRows
from combword.network import (
    Network,
    binary_cross_entropy,
    build_char_cnn,
    build_combinatorial_cnn,
    conv,
    dense,
    flatten,
    pool,
    read_meta,
    relu,
    sample_shapes,
    sigmoid,
)


def test_combinatorial_cnn_shapes_n10():
    cfg = EncodingConfig.for_length(10)
    model = build_combinatorial_cnn(cfg, seed=0)
    assert model.input_shape == (56, 56, 56)
    x = np.zeros((3, 56, 56, 56), dtype=np.float32)
    assert model.forward(x).shape == (3,)


def test_combinatorial_cnn_shapes_n20_capped():
    cfg = EncodingConfig.for_length(20, nu_cap_len=3)
    model = build_combinatorial_cnn(cfg, seed=0)
    assert model.input_shape == (211, 211, 58)
    assert channel_count(cfg) == 58


def test_combinatorial_cnn_rejects_tiny_words():
    with pytest.raises(ValueError, match="conv2d|maxpool2d"):
        build_combinatorial_cnn(EncodingConfig.for_length(2), seed=0)


def test_filters_decrease_along_depth():
    cfg = EncodingConfig.for_length(10)
    model = build_combinatorial_cnn(cfg, seed=0)
    conv_filters = [s.filters for s in model.specs if s.kind == "conv2d"]
    assert conv_filters == sorted(conv_filters, reverse=True) == [32, 16, 8]


def test_zero_weight_model_outputs_half():
    cfg = EncodingConfig.for_length(6)
    model = build_combinatorial_cnn(cfg, seed=0)
    for p in model.params():
        p[...] = 0
    x = np.random.default_rng(0).random((4, *model.input_shape), dtype=np.float32)
    assert np.allclose(model.forward(x), 0.5)


def test_char_cnn_shapes():
    model = build_char_cnn(20, 26, seed=0)
    assert model.input_shape == (20, 1, 26)
    x = np.zeros((5, 20, 1, 26), dtype=np.float32)
    assert model.forward(x).shape == (5,)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 15])
def test_char_cnn_builds_for_all_supported_lengths(n):
    model = build_char_cnn(n, 26, seed=1)
    x = np.zeros((2, n, 1, 26), dtype=np.float32)
    probs = model.forward(x)
    assert probs.shape == (2,)


def test_char_cnn_rejects_short_words():
    with pytest.raises(ValueError, match=">= 4"):
        build_char_cnn(3, 26, seed=0)


def test_forward_validates_input_shape():
    model = build_char_cnn(8, 4, seed=0)
    with pytest.raises(ValueError, match="input shape"):
        model.forward(np.zeros((1, 8, 1, 5), dtype=np.float32))


def test_single_dense_head_hand_computed():
    model = Network([flatten(), dense(1), sigmoid()], (2, 1, 1), seed=0, dtype=np.float64)
    d = model.layers[1]
    d.w[...] = [[2.0], [-1.0]]
    d.b[...] = [0.25]
    x = np.array([[[[1.0]], [[3.0]]]])
    logit = 2.0 * 1.0 - 1.0 * 3.0 + 0.25
    assert model.forward(x)[0] == pytest.approx(1.0 / (1.0 + np.exp(-logit)))


def test_duplicated_sample_contributes_identically():
    model = Network([flatten(), dense(1), sigmoid()], (3, 1, 1), seed=2, dtype=np.float64)
    x1 = np.random.default_rng(3).random((1, 3, 1, 1))
    x2 = np.concatenate([x1, x1])
    y1, y2 = np.array([1.0]), np.array([1.0, 1.0])
    p1 = model.forward(x1)
    _, d1 = binary_cross_entropy(p1, y1)
    model.backward(d1)
    g1 = [g.copy() for g in model.grads()]
    p2 = model.forward(x2)
    _, d2 = binary_cross_entropy(p2, y2)
    model.backward(d2)
    g2 = [g.copy() for g in model.grads()]
    for a, b in zip(g1, g2):
        assert np.allclose(a, b)  # mean over identical samples equals single sample


def test_bce_matches_hand_value_and_gradient_sign():
    probs = np.array([0.9, 0.2])
    labels = np.array([1.0, 0.0])
    loss, dp = binary_cross_entropy(probs, labels)
    assert loss == pytest.approx(-(np.log(0.9) + np.log(0.8)) / 2)
    assert dp[0] < 0 < dp[1]


def test_bce_gradient_near_zero_at_perfect_prediction():
    model = Network([flatten(), dense(1), sigmoid()], (2, 1, 1), seed=4, dtype=np.float64)
    x = np.random.default_rng(5).random((4, 2, 1, 1))
    probs = model.forward(x)
    _, dp = binary_cross_entropy(probs, probs.copy())  # labels equal predictions
    model.backward(dp)
    bias_grad = model.layers[1].db
    assert np.abs(bias_grad).max() < 1e-9


def test_full_model_gradient_check():
    cfg = EncodingConfig(word_length=4, pad_to=11, nu_cap_len=None, normalization="none")
    model = build_combinatorial_cnn(cfg, seed=6, dtype=np.float64, filters=(4, 3, 2), dense_units=5)
    rng = np.random.default_rng(7)
    x = rng.random((2, 11, 11, 11))
    y = np.array([1.0, 0.0])
    assert check_model_gradients(model, x, y) < 1e-4


def test_char_model_gradient_check():
    model = build_char_cnn(8, 5, seed=8, dtype=np.float64)
    rng = np.random.default_rng(9)
    x = rng.random((2, 8, 1, 5))
    y = np.array([0.0, 1.0])
    assert check_model_gradients(model, x, y) < 1e-4


def test_network_starting_with_relu_never_writes_into_its_input():
    # An inference pass rectifies in place only the arrays it made itself.
    model = Network([relu(), flatten(), dense(1), sigmoid()], (3, 2, 1), seed=3, dtype=np.float64)
    x = np.random.default_rng(4).standard_normal((5, 3, 2, 1))
    before = x.copy()
    kept = model.forward(x)
    assert np.array_equal(x, before)
    assert model.forward(x, train=False).tobytes() == kept.tobytes()
    assert np.array_equal(x, before)


def step_bits(model, x, dprobs) -> bytes:
    probs = model.forward(x)
    model.backward(dprobs)
    return probs.tobytes() + b"".join(g.tobytes() for g in model.grads())


@pytest.mark.parametrize(
    "specs",
    [
        [relu(), flatten(), dense(4), relu(), dense(1), sigmoid()],
        [flatten(), dense(1), relu()],  # backward starts at a ReLU
    ],
    ids=["relu-first", "relu-last"],
)
def test_repeated_step_matches_and_writes_no_caller_array(specs):
    model = Network(specs, (3, 2, 1), seed=5, dtype=np.float64)
    x = np.random.default_rng(6).standard_normal((5, 3, 2, 1))
    dprobs = np.random.default_rng(7).standard_normal(5)
    x_before, d_before = x.copy(), dprobs.copy()
    first = step_bits(model, x, dprobs)
    assert step_bits(model, x, dprobs) == first
    assert x.tobytes() == x_before.tobytes() and dprobs.tobytes() == d_before.tobytes()


def plain_forward(model, x, train: bool = True) -> np.ndarray:
    """Each layer's own forward in turn, every plane built whole: no conv reads ReLU rows."""
    if isinstance(x, np.ndarray):
        x = x.view()
        x.flags.writeable = False
    for layer in model.layers:
        x = layer.forward(x, train)
    return x[:, 0]


def plain_backward(model, dprobs) -> None:
    """Each layer's own backward in turn, last to first, with no gate fused into a conv."""
    d = dprobs[:, None]
    for layer in model.layers[:0:-1]:
        d = layer.backward(d)
    if model.layers[0].params():
        model.layers[0].backward(d, input_grad=False)


def fused_and_plain_grads(model, x, dprobs) -> tuple[list[bytes], list[bytes]]:
    model.forward(x)
    model.backward(dprobs)
    fused = [g.tobytes() for g in model.grads()]
    plain_forward(model, x)
    plain_backward(model, dprobs)
    return fused, [g.tobytes() for g in model.grads()]


def test_fused_backward_matches_each_layers_own_backward_over_several_tiles():
    model = build_combinatorial_cnn(EncodingConfig.for_length(5), seed=3, filters=(8, 4, 2), dense_units=6)
    rng = np.random.default_rng(4)
    h, w, _ = model.input_shape
    for batch, tiles in ((1, 1), (9, 3), (30, 8)):  # tiles of TILE_ROWS rows of L2's flat input plane
        assert -(-batch * h * w // layers.TILE_ROWS) == tiles
        x = rng.random((batch, *model.input_shape), dtype=np.float32)
        dprobs = rng.standard_normal(batch).astype(np.float32)
        fused, plain = fused_and_plain_grads(model, x, dprobs)
        assert fused == plain, batch


def random_words(n: int, count: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return ["".join(rng.choice(list("abcdefgh"), n)) for _ in range(count)]


@pytest.mark.parametrize(
    "n, batch",
    # At n=6 a 1024-row tile holds two samples' 484-row planes; at n=8 (1369 rows) and n=10
    # (3136) the tiles straddle samples; one n=15 batch of 14641-row planes.
    [(6, 1), (6, 9), (8, 1), (8, 7), (10, 1), (10, 6), (15, 3)],
)
def test_fused_step_and_inference_match_each_layers_own_on_the_tensor_model(n, batch):
    cfg = EncodingConfig.for_length(n)
    model = build_combinatorial_cnn(cfg, seed=n)
    x = BatchEncoder(cfg)(random_words(n, batch, seed=batch))
    dprobs = np.random.default_rng(batch).standard_normal(batch).astype(np.float32)
    fused, plain = fused_and_plain_grads(model, x, dprobs)
    assert fused == plain
    assert model.forward(x, train=False).tobytes() == plain_forward(model, x, train=False).tobytes()


@pytest.mark.parametrize(
    "specs, shape",
    [
        # A cropping conv's output is copied by the next conv; a 1x1 conv's is reshaped in place.
        ([conv(3, 3, 4), relu(), conv(1, 1, 3), relu(), conv(3, 3, 2), relu(), pool(2, 2), flatten(), dense(1), sigmoid()], (9, 9, 2)),
        ([relu(), conv(3, 1, 4), relu(), conv(3, 1, 2), relu(), flatten(), dense(1), sigmoid()], (8, 1, 3)),
        # Odd extents at both pools: each floors a column, whose fused gradient must be +0.0.
        ([conv(1, 1, 4), relu(), conv(3, 3, 3), relu(), pool(2, 2), conv(2, 2, 2), relu(), pool(2, 2), flatten(), dense(1), sigmoid()], (12, 11, 3)),
        # The first layer with parameters pools its ReLU: (2, 3) windows floor a row and two columns.
        ([conv(3, 3, 4), relu(), pool(2, 3), flatten(), dense(1), sigmoid()], (11, 13, 2)),
        # (3, 3) windows over ReLU rows floor two rows and a column.
        ([conv(1, 1, 3), relu(), conv(2, 2, 4), relu(), pool(3, 3), flatten(), dense(1), sigmoid()], (12, 11, 2)),
    ],
    ids=["conv-first", "relu-first", "odd-extents", "pool-2x3-first", "pool-3x3"],
)
@pytest.mark.parametrize("batch", [1, 5])
def test_fused_backward_matches_in_float64(specs, shape, batch, monkeypatch):
    monkeypatch.setattr(layers, "TILE_ROWS", 7)
    model = Network(specs, shape, seed=6, dtype=np.float64)
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, *shape))
    dprobs = rng.standard_normal(batch)
    x_before, d_before = x.copy(), dprobs.copy()
    fused, plain = fused_and_plain_grads(model, x, dprobs)
    assert fused == plain
    assert model.forward(x, train=False).tobytes() == plain_forward(model, x, train=False).tobytes()
    assert x.tobytes() == x_before.tobytes() and dprobs.tobytes() == d_before.tobytes()


@pytest.mark.parametrize("pool_rows", [1, 300, 10**6])  # 132-row planes: blocks of 1, 2 (the last one short) and 5 samples
def test_fused_step_and_inference_match_each_layers_own_for_any_block_of_samples(pool_rows, monkeypatch):
    monkeypatch.setattr(layers, "POOL_ROWS", pool_rows)
    monkeypatch.setattr(layers, "TILE_ROWS", 50)
    specs = [conv(1, 1, 4), relu(), conv(3, 3, 3), relu(), pool(2, 2), conv(2, 2, 2), relu(), pool(2, 2), flatten(), dense(1), sigmoid()]
    model = Network(specs, (12, 11, 3), seed=4, dtype=np.float64)
    model.layers[0].b[...] = [-0.5, 0.25, 0.0, -1.0]
    rng = np.random.default_rng(pool_rows)
    x = rng.standard_normal((5, 12, 11, 3))
    fused, plain = fused_and_plain_grads(model, x, rng.standard_normal(5))
    assert fused == plain
    assert model.forward(x, train=False).tobytes() == plain_forward(model, x, train=False).tobytes()


def step_and_plain_bits(model, x, dprobs) -> tuple[list[bytes], list[bytes]]:
    """Probabilities and every gradient: the network's step, then each layer's own forward and backward."""
    steps = []
    for forward, backward in ((model.forward, model.backward), (lambda x: plain_forward(model, x), lambda d: plain_backward(model, d))):
        probs = forward(x)
        backward(dprobs)
        steps.append([probs.tobytes()] + [g.tobytes() for g in model.grads()])
    return steps[0], steps[1]


# A read of ReLU rows spans a tile plus L2's largest shift: tiles of 1 and 7 rows, one row
# below a sample's plane (so that reads straddle two samples), and the default.
RELU_ROW_TILES = ["default", 1, 7, "below_a_plane"]


def tile_rows(tile, plane_rows: int, monkeypatch) -> None:
    if tile != "default":
        monkeypatch.setattr(layers, "TILE_ROWS", plane_rows - 1 if tile == "below_a_plane" else tile)


@pytest.mark.parametrize("tile", RELU_ROW_TILES)
def test_relu_rows_step_matches_the_plane_path_in_float32_from_an_encoded_batch(tile, monkeypatch):
    cfg = EncodingConfig.for_length(6)
    model = build_combinatorial_cnn(cfg, seed=5, filters=(8, 4, 2), dense_units=6)
    tile_rows(tile, cfg.pad_to**2, monkeypatch)
    words = ["abcdef", "abcabc", "aabbcc", "abccba", "aaaaab"]
    x = BatchEncoder(cfg)(words)
    dprobs = np.random.default_rng(5).standard_normal(len(words)).astype(np.float32)
    rows, plane = step_and_plain_bits(model, x, dprobs)
    assert rows == plane
    model.forward(x)
    assert isinstance(model.layers[1]._out, ReluRows)  # for contrast: the step read ReLU rows
    model.backward(dprobs)


@pytest.mark.parametrize("tile", RELU_ROW_TILES)
@pytest.mark.parametrize("batch", [1, 4])
def test_relu_rows_step_matches_the_plane_path_in_float64_from_an_array(tile, batch, monkeypatch):
    # Odd extents; negative inputs and bias so that the ReLU gates some rows of every tile.
    specs = [conv(1, 1, 4), relu(), conv(3, 3, 3), relu(), pool(2, 2), flatten(), dense(1), sigmoid()]
    model = Network(specs, (7, 6, 3), seed=7, dtype=np.float64)
    model.layers[0].b[...] = [-0.5, 0.25, 0.0, -1.0]
    tile_rows(tile, 7 * 6, monkeypatch)
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 7, 6, 3))
    dprobs = rng.standard_normal(batch)
    x_before = x.copy()
    rows, plane = step_and_plain_bits(model, x, dprobs)
    assert rows == plane
    assert x.tobytes() == x_before.tobytes()


@pytest.mark.parametrize("tile", RELU_ROW_TILES)
def test_relu_rows_inference_matches_the_plane_path_at_batch_1_7_and_32(tile, monkeypatch):
    cfg = EncodingConfig.for_length(5)
    model = build_combinatorial_cnn(cfg, seed=8, filters=(8, 4, 2), dense_units=6)
    tile_rows(tile, cfg.pad_to**2, monkeypatch)
    rng = np.random.default_rng(8)
    words = ["".join(rng.choice(list("abcd"), 5)) for _ in range(32)]
    for batch in (1, 7, 32):
        x = BatchEncoder(cfg)(words[:batch])
        rows = model.forward(x, train=False)
        assert rows.tobytes() == plain_forward(model, x, train=False).tobytes(), batch


def test_a_1x1_conv_before_a_relu_and_a_pool_pools_per_sample_with_the_plane_bits():
    # No conv reads the ReLU's output, so the 1x1 conv hands out no ReLU rows: it pools its ReLU itself.
    model = Network([conv(1, 1, 3), relu(), pool(2, 2), flatten(), dense(1), sigmoid()], (6, 5, 2), seed=2, dtype=np.float64)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 6, 5, 2))
    dprobs = rng.standard_normal(3)
    network, plane = step_and_plain_bits(model, x, dprobs)
    assert network == plane
    model.forward(x)
    assert isinstance(model.layers[1]._out, ReluPool) and model.layers[0]._out is model.layers[1]._out
    model.backward(dprobs)


GATED, SPENT = {}, {"spent": True}
POOL_2X2, POOL_2X1 = {"pool": (2, 2)}, {"pool": (2, 1)}


@pytest.mark.parametrize(
    "build, expected",
    [
        (
            lambda: build_combinatorial_cnn(EncodingConfig.for_length(6), seed=0),
            # conv 1x1, relu, conv 3x3, relu, pool, conv 3x3, relu, pool, flatten, dense, relu, dense, sigmoid
            [({"relu_rows": True}, {"input_grad": False}), ({}, GATED), (POOL_2X2, {}), ({}, GATED), ({}, {}), (POOL_2X2, SPENT)]
            + [({}, GATED)] + [({}, {})] * 6,
        ),
        (
            lambda: build_char_cnn(6, 4, seed=0),
            # conv, relu, pool, flatten, dense, relu, dense, sigmoid
            [(POOL_2X1, {"input_grad": False}), ({}, GATED), ({}, {})] + [({}, {})] * 5,
        ),
        (
            lambda: build_char_cnn(15, 4, seed=0),
            # conv, relu, pool, conv, relu, pool, flatten, dense, relu, dense, sigmoid
            [(POOL_2X1, {"input_grad": False}), ({}, GATED), ({}, {}), (POOL_2X1, SPENT), ({}, GATED), ({}, {})] + [({}, {})] * 5,
        ),
    ],
    ids=["combinatorial", "char-6", "char-15"],
)
def test_the_plan_of_each_package_model(build, expected):
    assert build()._plan == expected


@pytest.mark.parametrize("first", [[relu()], [relu(), pool(2, 1)]], ids=["relu", "relu-pool"])
def test_backward_stops_at_the_first_layer_with_parameters(first, monkeypatch):
    model = Network([*first, conv(3, 1, 4), relu(), flatten(), dense(1), sigmoid()], (8, 1, 3), seed=2)
    start = len(first)
    assert [kwargs for _, kwargs in model._plan[:start]] == [None] * start
    assert model._plan[start][1]["input_grad"] is False
    backward, returned = model.layers[start].backward, []

    def spy(*args, **kwargs):
        returned.append(backward(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(model.layers[start], "backward", spy)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 8, 1, 3)).astype(np.float32)
    dprobs = rng.standard_normal(5).astype(np.float32)
    network, plain = step_and_plain_bits(model, x, dprobs)
    assert returned[0] is None  # the network's step; the plain one builds the conv's input gradient
    assert returned[1].shape == (5, *sample_shapes(model.specs, model.input_shape)[start])
    assert network == plain


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("n", [4, 6, 10, 15])
def test_read_meta_gives_the_input_shape_of_a_char_model(n, task):
    model = build_char_cnn(n, len(task_alphabet(task)), seed=0)
    model.meta["task"] = task
    reads = read_meta(model.meta)
    assert (reads.task, reads.encoding, reads.word_length, reads.shape) == (task, None, n, model.input_shape)


@pytest.mark.parametrize("with_task", [False, True])
@pytest.mark.parametrize("n, cap", [(4, None), (6, None), (6, 1), (8, 2), (10, 99), (15, 3), (20, 3)])
def test_read_meta_gives_the_input_shape_of_a_tensor_model(n, cap, with_task):
    cfg = EncodingConfig.for_length(n, nu_cap_len=cap)
    model = build_combinatorial_cnn(cfg, seed=0, filters=(2, 2, 2), dense_units=2)
    if with_task:
        model.meta["task"] = "password"
    reads = read_meta(model.meta)
    assert (reads.task, reads.encoding, reads.word_length) == ("password" if with_task else "palindrome", cfg, n)
    assert reads.shape == model.input_shape


@pytest.mark.parametrize("tile", ["default", 1, 7])
@pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (3, 1), (2, 3)])
def test_a_conv_after_an_array_relu_matches_each_layers_own_backward(kernel, tile, monkeypatch):
    # The first conv is no 1x1 conv, so its ReLU's output is an array, which the second conv's
    # backward leaves to that ReLU's own backward to gate. A 1x1 second conv crops nothing.
    if tile != "default":
        monkeypatch.setattr(layers, "TILE_ROWS", tile)
    specs = [conv(2, 2, 3), relu(), conv(*kernel, 4), relu(), flatten(), dense(1), sigmoid()]
    model = Network(specs, (6, 5, 2), seed=sum(kernel), dtype=np.float32)
    model.layers[0].b[...] = [-0.5, 0.25, 0.0]  # so that the ReLU gates some rows of every tile
    assert model._plan[1:3] == [({}, {}), ({}, {})]
    rng = np.random.default_rng(sum(kernel))
    x = rng.standard_normal((3, 6, 5, 2)).astype(np.float32)
    dprobs = rng.standard_normal(3).astype(np.float32)
    network, plain = step_and_plain_bits(model, x, dprobs)
    assert network == plain
    model.forward(x)
    assert isinstance(model.layers[1]._out, np.ndarray)  # for contrast: an array ReLU, not ReLU rows
    model.backward(dprobs)


@pytest.mark.parametrize("n", [6, 8, 9, 12, 15])
def test_fused_backward_matches_on_the_char_model(n, monkeypatch):
    # (2, 1) pools after each conv's ReLU; at n=9 and 15 a pool floors an odd length.
    monkeypatch.setattr(layers, "TILE_ROWS", 5)
    model = build_char_cnn(n, 4, seed=n, dtype=np.float64)
    assert sum(spec.kind == "maxpool2d" for spec in model.specs) == (1 if n < 12 else 2)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((6, *model.input_shape))
    fused, plain = fused_and_plain_grads(model, x, rng.standard_normal(6))
    assert fused == plain
    assert model.forward(x, train=False).tobytes() == plain_forward(model, x, train=False).tobytes()


def ties_and_floored_nans(k: int) -> tuple[Network, np.ndarray]:
    """The tie and zero windows of test_maxpool_ties_go_to_first_cell_once_and_floored_cells_get_zero
    through a k x k conv that copies its input's centre cell, with NaN in the input's last row and
    column, which reach only the cells that the pool's floor drops and the conv crops."""
    model = Network([conv(k, k, 2), relu(), pool(2, 3), flatten(), dense(1), sigmoid()], (4 + k, 6 + k, 2), seed=1, dtype=np.float64)
    model.layers[0].w[...] = 0
    model.layers[0].w[k // 2, k // 2] = np.eye(2)
    x = np.zeros((2, 4 + k, 6 + k, 2))
    out = x[:, k // 2 :, k // 2 :]  # the conv's output cell (i, j) copies out[i, j]
    out[1, 2:4, 3:6, 1] = [[-0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    out[0, 0:2, 0:3, 0] = [[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    out[0, 2:4, 0:3, 1] = [[2.0, -1.0, 1.0], [-1.0, 3.0, 0.5]]
    x[:, -1] = x[:, :, -1] = np.nan
    return model, x


def test_fused_pool_backward_matches_on_ties_and_drops_a_floored_nan():
    model, x = ties_and_floored_nans(1)
    fused, plain = fused_and_plain_grads(model, x, np.array([-0.0, -1.5]))
    assert fused == plain
    assert np.isfinite(model.layers[0].db).all()  # the conv's output gradient holds +0.0, not NaN, there


def test_fused_pool_backward_matches_on_ties_and_floored_nans_through_a_3x3_conv():
    model, x = ties_and_floored_nans(3)
    fused, plain = fused_and_plain_grads(model, x, np.array([-0.0, -1.5]))
    assert fused == plain
    assert np.isfinite(model.layers[0].db).all()
    assert model.forward(x, train=False).tobytes() == plain_forward(model, x, train=False).tobytes()


def test_backward_of_a_conv_after_a_relu_allocates_no_plane():
    model = build_combinatorial_cnn(EncodingConfig.for_length(8), seed=2)
    x = np.random.default_rng(3).random((20, *model.input_shape), dtype=np.float32)
    l2 = model.layers[2]
    plane = x.shape[0] * x.shape[1] * x.shape[2] * l2.w.shape[2] * x.itemsize
    peaks = []

    def measured(fn):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        return call

    l2.backward = measured(l2.backward)
    model.forward(x)
    tracemalloc.start()
    try:
        model.backward(np.ones(len(x), dtype=np.float32))
    finally:
        tracemalloc.stop()
    # Neither the padded output gradient nor the gated input gradient takes a new plane.
    assert len(peaks) == 1 and peaks[0] < plane / 4, (peaks, plane)


def test_whole_backward_allocates_less_than_a_quarter_plane():
    # Every input gradient goes into a spent forward array or a scratch tile: L2's, tile by
    # tile, into L0's gradients, the pool L4's into L2's plane, L5's into L4's output, the
    # pool L7's into L5's plane.
    model = build_combinatorial_cnn(EncodingConfig.for_length(8), seed=2)
    x = np.random.default_rng(3).random((32, *model.input_shape), dtype=np.float32)
    model.forward(x)
    plane = len(x) * math.prod(sample_shapes(model.specs, model.input_shape)[3]) * x.itemsize  # L2's cropped plane
    tracemalloc.start()
    try:
        model.backward(np.ones(len(x), dtype=np.float32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < plane / 4, (peak, plane)


def test_backward_drops_what_forward_kept():
    model = build_char_cnn(8, 5, seed=1)
    x = np.random.default_rng(2).random((3, *model.input_shape), dtype=np.float32)

    def held() -> list[tuple[int, str]]:
        return [(i, name) for i, layer in enumerate(model.layers) for name in layer.kept if getattr(layer, name) is not None]

    model.forward(x)
    assert {i for i, _ in held()} == set(range(len(model.layers)))  # for contrast: every layer keeps state
    model.backward(np.ones(len(x), dtype=np.float32))
    assert held() == []
