import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from combword import layers
from combword.datasets import PALINDROME_ALPHABET, LabeledDataset, gen_palindrome_dataset, gen_password_dataset, permute_dataset
from combword.encoding import BatchEncoder, EncodedBatch, EncodingConfig
from combword.layers import ReluPool, ReluRows
from combword.network import binary_cross_entropy, build_char_cnn, build_combinatorial_cnn, sample_shapes
from combword.training import (
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    accuracy_by_pattern,
    batch_gradients,
    char_encoder,
    evaluate,
    make_optimizer,
    predict_probs,
    records_to_csv_lines,
    train,
)
from combword.words import Word, pattern_key


@pytest.fixture(scope="module")
def tiny_task():
    tr, va, _ = gen_palindrome_dataset(6, (40, 16, 1), seed=21)
    cfg_enc = EncodingConfig.for_length(6)
    return tr, va, cfg_enc


def fresh_model(cfg_enc, seed=3):
    return build_combinatorial_cnn(cfg_enc, seed=seed)


def test_zero_epochs_returns_initial_model(tiny_task):
    tr, va, cfg_enc = tiny_task
    model = fresh_model(cfg_enc)
    before = [p.copy() for p in model.params()]
    model, records = train(model, tr, va, TrainConfig(epochs=0, seed=1), BatchEncoder(cfg_enc))
    assert records == []
    for p, q in zip(model.params(), before):
        assert np.array_equal(p, q)


def test_training_is_deterministic(tiny_task):
    tr, va, cfg_enc = tiny_task
    cfg = TrainConfig(epochs=2, batch_size=8, steps_per_epoch=4, seed=11)
    _, rec_a = train(fresh_model(cfg_enc), tr, va, cfg, BatchEncoder(cfg_enc))
    _, rec_b = train(fresh_model(cfg_enc), tr, va, cfg, BatchEncoder(cfg_enc))
    assert rec_a == rec_b


def median_loss_drops(tr, va, cfg_enc, seed):
    from combword.network import binary_cross_entropy

    model = fresh_model(cfg_enc, seed=seed)
    enc = BatchEncoder(cfg_enc)
    words = tr.words()[:16]
    labels = np.asarray(tr.labels()[:16], dtype=np.float64)
    initial_loss, _ = binary_cross_entropy(model.forward(enc(words)), labels)
    cfg = TrainConfig(epochs=5, batch_size=8, steps_per_epoch=3, seed=11)
    _, records = train(model, tr, va, cfg, enc)
    return float(np.median([r.train_loss for r in records])), initial_loss


def test_loss_decreases_palindrome_task(tiny_task):
    tr, va, cfg_enc = tiny_task
    median, initial = median_loss_drops(tr, va, cfg_enc, seed=5)
    assert median < initial


def test_loss_decreases_password_task():
    from combword.datasets import gen_password_dataset

    tr, va, _ = gen_password_dataset((16, 8, 1), seed=31)
    median, initial = median_loss_drops(tr, va, EncodingConfig.for_length(15), seed=5)
    assert median < initial


def test_epoch_records_fields(tiny_task):
    tr, va, cfg_enc = tiny_task
    cfg = TrainConfig(epochs=2, batch_size=8, steps_per_epoch=3, seed=7)
    _, records = train(fresh_model(cfg_enc), tr, va, cfg, BatchEncoder(cfg_enc))
    assert [r.epoch for r in records] == [1, 2]
    for r in records:
        assert 0.0 <= r.train_acc <= 1.0 and 0.0 <= r.val_acc <= 1.0


def test_early_stop(tiny_task):
    tr, va, cfg_enc = tiny_task
    cfg = TrainConfig(epochs=50, batch_size=8, steps_per_epoch=4, seed=11, stop_at_val_acc=0.5)
    _, records = train(fresh_model(cfg_enc), tr, va, cfg, BatchEncoder(cfg_enc))
    assert len(records) < 50
    assert records[-1].val_acc >= 0.5


def test_divergence_raises(tiny_task):
    tr, va, cfg_enc = tiny_task
    model = fresh_model(cfg_enc)
    model.layers[-2].b[...] = np.nan  # output-layer bias, makes every logit NaN
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        train(
            model,
            tr,
            va,
            TrainConfig(epochs=1, batch_size=4, steps_per_epoch=1, seed=1),
            BatchEncoder(cfg_enc),
        )


def test_evaluate_tie_counts_as_class_zero(tiny_task):
    tr, _, cfg_enc = tiny_task
    model = fresh_model(cfg_enc)
    for p in model.params():
        p[...] = 0  # constant 0.5 output
    acc = evaluate(model, tr, BatchEncoder(cfg_enc))
    zeros = 1.0 - sum(tr.labels()) / len(tr)
    assert acc == pytest.approx(zeros)


def test_predict_probs_batching_consistent(tiny_task):
    # A word's probability does not depend on the size of its batch, to the bit.
    tr, _, cfg_enc = tiny_task
    model = fresh_model(cfg_enc, seed=9)
    enc = BatchEncoder(cfg_enc)
    reference = predict_probs(model, tr, enc, batch_size=32)
    for batch_size in (1, 5, 7, 64):
        assert predict_probs(model, tr, enc, batch_size=batch_size).tobytes() == reference.tobytes(), batch_size


def batch_state(model) -> dict[int, list[str]]:
    """Per layer index, the arrays and array stand-ins it holds besides its parameters and their gradients."""
    out = {}
    for i, layer in enumerate(model.layers):
        own = [id(a) for a in layer.params() + layer.grads()]
        held = (np.ndarray, EncodedBatch, ReluRows, ReluPool)
        names = [k for k, v in vars(layer).items() if isinstance(v, held) and id(v) not in own]
        if names:
            out[i] = names
    return out


class KeepingEncoder:
    """Wraps an encoder and keeps every batch it hands out, with a dense copy of it."""

    def __init__(self, encode):
        self.encode = encode
        self.batches: list[tuple[np.ndarray | EncodedBatch, np.ndarray]] = []

    def __call__(self, words):
        x = self.encode(words)
        self.batches.append((x, np.array(x)))
        return x


def model_and_encoder(cfg_enc, kind: str):
    if kind == "char":
        return build_char_cnn(cfg_enc.word_length, len(PALINDROME_ALPHABET), seed=8), char_encoder("palindrome")
    return fresh_model(cfg_enc, seed=8), BatchEncoder(cfg_enc)


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_inference_drops_the_training_state_and_keeps_none(tiny_task, kind):
    tr, va, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    x = enc(tr.words()[:8])
    model.forward(x)
    assert len(batch_state(model)) == len(model.layers) - 1  # a training forward: all but Flatten keep what backward reads
    predict_probs(model, va, enc, batch_size=7)
    assert batch_state(model) == {}
    model.forward(x)
    evaluate(model, va, enc)
    assert batch_state(model) == {}


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_inference_leaves_the_encoded_batches_intact(tiny_task, kind):
    tr, _, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    keeping = KeepingEncoder(enc)
    predict_probs(model, tr, keeping, batch_size=32)
    assert len(keeping.batches) == 3
    for x, before in keeping.batches:
        assert np.asarray(x).tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_predict_probs_equals_the_state_keeping_forward(tiny_task, kind):
    tr, _, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    kept = model.forward(enc(tr.words()))  # the training pass: every layer keeps its arrays
    for batch_size in (1, 7, 32, 64):
        assert predict_probs(model, tr, enc, batch_size=batch_size).tobytes() == kept.tobytes(), batch_size


def train_by_hand(model, tr, va, cfg, enc) -> list[EpochRecord]:
    """``train``'s loop by hand, with each epoch's validation as one whole-split pass."""
    opt = make_optimizer(cfg, model.params())
    rng = np.random.default_rng(cfg.seed)
    labels = np.asarray(tr.labels(), dtype=np.float64)
    val_x, val_y = enc(va.words()), np.asarray(va.labels())
    per_epoch = cfg.batch_size * cfg.steps_per_epoch
    records = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(tr))
        while order.size < per_epoch:
            order = np.concatenate([order, rng.permutation(len(tr))])
        losses, correct = [], 0
        for step in range(cfg.steps_per_epoch):
            take = order[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            probs, loss = batch_gradients(model, [tr.items[i][0] for i in take], labels[take], enc)
            opt.step(model.grads())
            losses.append(loss)
            correct += int(np.sum((probs > 0.5) == (labels[take] > 0.5)))
        # A row's bits do not depend on its batch, so one whole-split pass gives validation's probabilities.
        val_acc = float(np.mean((model.forward(val_x, train=False) > 0.5).astype(np.int64) == val_y))
        records.append(EpochRecord(epoch, float(np.mean(losses)), correct / per_epoch, val_acc))
    return records


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_train_matches_a_hand_written_loop_bit_for_bit(tiny_task, kind):
    tr, va, cfg_enc = tiny_task
    # An epoch of 21 words takes part of one permutation of the 80; one of 90 takes two.
    for cfg in (TrainConfig(epochs=2, batch_size=7, steps_per_epoch=3, seed=12), TrainConfig(epochs=2, batch_size=30, steps_per_epoch=3, seed=12)):
        model, enc = model_and_encoder(cfg_enc, kind)
        ref, _ = model_and_encoder(cfg_enc, kind)
        _, records = train(model, tr, va, cfg, enc)
        assert records == train_by_hand(ref, tr, va, cfg, enc)
        for p, q in zip(model.params(), ref.params()):
            assert p.tobytes() == q.tobytes()


class WeakEncoder:
    """Wraps an encoder and keeps a weak reference to every batch it hands out."""

    def __init__(self, encode):
        self.encode = encode
        self.refs: list[weakref.ref] = []

    def __call__(self, words):
        x = self.encode(words)
        self.refs.append(weakref.ref(x))
        return x


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_a_training_step_frees_its_batch_when_it_returns(tiny_task, kind):
    tr, _, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    weak = WeakEncoder(enc)
    words, labels = tr.words()[:8], np.asarray(tr.labels()[:8], dtype=np.float64)
    for _ in range(2):
        batch_gradients(model, words, labels, weak)
        assert len(batch_state(model)) == 0
    assert len(weak.refs) == 2 and all(ref() is None for ref in weak.refs)


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_every_layer_runs_forward_and_backward_once_per_step(tiny_task, kind):
    tr, va, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    calls = {}

    def counted(i, name, fn):
        def call(*args, **kwargs):
            calls[i, name] = calls.get((i, name), 0) + 1
            return fn(*args, **kwargs)

        return call

    for i, layer in enumerate(model.layers):
        layer.forward, layer.backward = counted(i, "forward", layer.forward), counted(i, "backward", layer.backward)
    steps, val_batches = 3, -(-len(va) // 8)
    train(model, tr, va, TrainConfig(epochs=1, batch_size=8, steps_per_epoch=steps, seed=2), enc)
    for i in range(len(model.layers)):
        assert calls[i, "forward"] == steps + val_batches and calls[i, "backward"] == steps, i


def held_arrays(model) -> list[str]:
    """Where the network and its layers, at any depth, hold an array that is not a parameter or gradient."""
    own = {id(a) for a in model.params() + model.grads()}
    found, seen = [], set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if id(obj) not in own:
                found.append(path)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}[{k!r}]")
        elif hasattr(obj, "__dict__"):
            for k, v in vars(obj).items():
                walk(v, f"{path}.{k}")

    walk(model, "model")
    return found


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_no_batch_array_outlives_train_predict_probs_or_evaluate(tiny_task, kind):
    tr, va, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    words, labels = tr.words()[:8], np.asarray(tr.labels()[:8], dtype=np.float64)
    batch_gradients(model, words, labels, enc)
    assert held_arrays(model) == []
    train(model, tr, va, TrainConfig(epochs=1, batch_size=8, steps_per_epoch=2, seed=1), enc)
    assert held_arrays(model) == []
    predict_probs(model, va, enc, batch_size=7)
    assert held_arrays(model) == []
    evaluate(model, va, enc)
    assert held_arrays(model) == []


@pytest.mark.parametrize("kind", ["tensor", "char"])
@pytest.mark.parametrize("use", ["fresh", "step_and_inference", "train"])
def test_a_dropped_model_is_freed_without_the_cyclic_collector(tiny_task, kind, use):
    # A reference cycle through a model would keep it, and all its arrays, until the collector runs.
    tr, va, cfg_enc = tiny_task
    enabled = gc.isenabled()
    gc.disable()
    try:
        model, enc = model_and_encoder(cfg_enc, kind)
        if use == "step_and_inference":
            batch_gradients(model, tr.words()[:8], np.asarray(tr.labels()[:8], dtype=np.float64), enc)
            predict_probs(model, va, enc, batch_size=7)
        elif use == "train":
            model, _ = train(model, tr, va, TrainConfig(epochs=1, batch_size=8, steps_per_epoch=2, seed=1), enc)
        refs = [weakref.ref(model)] + [weakref.ref(layer) for layer in model.layers]
        del model
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_diverged_train_leaves_no_batch_array(tiny_task):
    tr, va, cfg_enc = tiny_task
    model = fresh_model(cfg_enc)
    model.layers[-2].b[...] = np.nan
    with pytest.raises(TrainingDiverged):
        train(model, tr, va, TrainConfig(epochs=1, batch_size=8, steps_per_epoch=2, seed=1), BatchEncoder(cfg_enc))
    assert held_arrays(model) == []


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_train_leaves_the_encoded_batches_intact(tiny_task, kind):
    tr, va, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    keeping = KeepingEncoder(enc)
    train(model, tr, va, TrainConfig(epochs=1, batch_size=8, steps_per_epoch=3, seed=2), keeping)
    assert len(keeping.batches) == 3 + -(-len(va) // 8)  # the steps, then validation's batches
    for x, before in keeping.batches:
        assert np.asarray(x).tobytes() == before.tobytes()


def test_train_and_inference_never_build_the_dense_batch(tiny_task, monkeypatch):
    tr, va, cfg_enc = tiny_task

    def refuse(self, *args, **kwargs):
        raise AssertionError("the dense batch was built")

    monkeypatch.setattr(EncodedBatch, "__array__", refuse)
    enc = BatchEncoder(cfg_enc)
    with pytest.raises(AssertionError, match="dense batch"):
        np.asarray(enc(va.words()[:2]))
    model, records = train(fresh_model(cfg_enc), tr, va, TrainConfig(epochs=2, batch_size=8, steps_per_epoch=3, seed=2), enc)
    assert predict_probs(model, va, enc).tobytes() == records[-1].val_probs.tobytes()
    assert evaluate(model, va, enc) == records[-1].val_acc


def forward_bytes(model) -> tuple[int, int]:
    """Bytes per sample of the arrays that each layer's own training and inference forward allocate: conv and pool outputs.

    These are the plane path's arrays; the network's passes make fewer of them.
    """
    item = model.dtype.itemsize
    shapes = sample_shapes(model.specs, model.input_shape)
    step = infer = 0
    for spec, shape, out in zip(model.specs, shapes, shapes[1:]):
        if spec.kind == "conv2d":
            step += conv_plane_bytes(model, shape, spec)
            infer += conv_plane_bytes(model, shape, spec)
        elif spec.kind == "maxpool2d":
            step += math.prod(out) * (item + 1)  # the output and each window's first-max index
            infer += math.prod(out) * item
    return step, infer


def conv_plane_bytes(model, shape: tuple, spec) -> int:
    """Bytes per sample of a conv's flat output, which covers the uncropped plane."""
    return math.prod(shape[:2]) * spec.filters * model.dtype.itemsize


def test_a_step_and_an_inference_pass_peak_below_their_forward_arrays_less_half_the_l1_plane():
    """Traced memory at n=10: no pass holds the first conv's ReLU'd output, the L1 plane, nor the 3x3 conv's output plane.

    Half of the L1 plane is the room left for what a pass holds besides its
    other forward arrays: the batch's sample planes, a window of ReLU rows,
    a sample's scratch plane and scratch tiles. A pass that builds either
    plane peaks above that.
    """
    tr = gen_palindrome_dataset(10, (16, 1, 1), seed=12)[0]
    words, labels = tr.words(), np.asarray(tr.labels(), dtype=np.float64)
    cfg_enc = EncodingConfig.for_length(10)
    model = fresh_model(cfg_enc)
    step, infer = forward_bytes(model)
    shapes = sample_shapes(model.specs, model.input_shape)
    l1 = math.prod(shapes[1]) * model.dtype.itemsize
    assert model.specs[0].kernel == (1, 1) and l1 > step / 2  # the L1 plane: the largest forward array
    assert model.specs[2].kernel == (3, 3)
    l2 = conv_plane_bytes(model, shapes[2], model.specs[2])  # the 3x3 conv's plane, the next largest
    distinct = list({pattern_key(w.text): w for w in words}.values())
    rows = len(distinct)

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stepped = peak(lambda: batch_gradients(model, words, labels, BatchEncoder(cfg_enc)))
    assert stepped < rows * (step - l1 // 2 - l2), (stepped, rows * step, rows * l1, rows * l2)
    inferred = peak(lambda: model.forward(BatchEncoder(cfg_enc)(distinct), train=False))
    assert inferred < rows * (infer - l1 // 2 - l2), (inferred, rows * infer, rows * l1, rows * l2)


def test_val_accuracy_split_by_pattern_adds_up_to_the_last_record(tiny_task):
    tr, va, cfg_enc = tiny_task
    model, records = train(
        fresh_model(cfg_enc), tr, va, TrainConfig(epochs=2, batch_size=8, steps_per_epoch=3, seed=5), BatchEncoder(cfg_enc)
    )
    assert records[-1].val_probs.tobytes() == predict_probs(model, va, BatchEncoder(cfg_enc)).tobytes()
    split = accuracy_by_pattern(records[-1].val_probs, tr, va)
    seen_keys = {pattern_key(w.text) for w in tr.words()}
    assert split["seen"]["words"] == sum(pattern_key(w.text) in seen_keys for w in va.words())
    assert split["seen"]["words"] + split["unseen"]["words"] == len(va)
    assert split["seen"]["correct"] + split["unseen"]["correct"] == round(records[-1].val_acc * len(va))
    assert records[-1].val_acc * len(va) == pytest.approx(split["seen"]["correct"] + split["unseen"]["correct"])
    for group in split.values():
        assert group["accuracy"] == (group["correct"] / group["words"] if group["words"] else None)


def test_val_accuracy_split_by_pattern_reports_an_empty_group_as_null(tiny_task):
    tr, _, cfg_enc = tiny_task
    split = accuracy_by_pattern(predict_probs(fresh_model(cfg_enc), tr, BatchEncoder(cfg_enc)), tr, tr)
    assert split["unseen"] == {"words": 0, "correct": 0, "accuracy": None}
    assert split["seen"]["words"] == len(tr)


class RecordingEncoder:
    """Wraps an encoder and keeps the word texts of every call."""

    def __init__(self, encode):
        self.encode = encode
        self.calls: list[list[str]] = []

    def __call__(self, words):
        self.calls.append([w.text for w in words])
        return self.encode(words)


def twin_batch(tr, size=16):
    """``size`` training words and their alphabet-permuted twins: every pattern at least twice."""
    head = LabeledDataset(tr.items[:size], tr.task, tr.split, tr.seed, tr.word_length)
    items = head.items + permute_dataset(head, seed=4).items
    return [w for w, _ in items], np.asarray([y for _, y in items], dtype=np.float64)


def test_deduplicated_step_matches_full_batch(tiny_task):
    tr, _, cfg_enc = tiny_task
    words, labels = twin_batch(tr)
    enc = RecordingEncoder(BatchEncoder(cfg_enc))
    model, ref = fresh_model(cfg_enc, seed=4), fresh_model(cfg_enc, seed=4)
    probs, loss = batch_gradients(model, words, labels, enc)
    assert len(enc.calls) == 1 and len(enc.calls[0]) == len({pattern_key(w.text) for w in words}) < len(words)

    full = ref.forward(enc.encode(words))
    ref_loss, dprobs = binary_cross_entropy(full, labels)
    ref.backward(dprobs.astype(full.dtype))
    assert probs.tobytes() == full.tobytes()
    assert loss == ref_loss
    for g, g_ref in zip(model.grads(), ref.grads()):
        assert np.allclose(g, g_ref, rtol=1e-4, atol=1e-7)


def test_train_encodes_each_pattern_once_per_call(tiny_task):
    tr, va, cfg_enc = tiny_task
    enc = RecordingEncoder(BatchEncoder(cfg_enc))
    cfg = TrainConfig(epochs=2, batch_size=8, steps_per_epoch=3, seed=11)
    _, records = train(fresh_model(cfg_enc), tr, va, cfg, enc)
    val_batches = -(-len(va) // cfg.batch_size)
    assert len(enc.calls) == len(records) * (cfg.steps_per_epoch + val_batches)
    for texts in enc.calls:
        keys = [pattern_key(t) for t in texts]
        assert texts and len(set(keys)) == len(keys)
    assert sum(map(len, enc.calls)) < len(enc.calls) * cfg.batch_size  # some batch repeated a pattern


def test_predict_probs_encodes_each_input_of_the_split_once(tiny_task):
    _, va, cfg_enc = tiny_task
    enc = RecordingEncoder(BatchEncoder(cfg_enc))
    predict_probs(fresh_model(cfg_enc), va, enc, batch_size=8)
    seen, expected = set(), []
    for i in range(0, len(va), 8):
        expected.append([])
        for w in va.words()[i : i + 8]:
            if pattern_key(w.text) not in seen:
                seen.add(pattern_key(w.text))
                expected[-1].append(w.text)
    assert enc.calls == expected  # one call per batch, each on the inputs no earlier batch ran
    assert sum(map(len, expected)) == len(seen) < len(va)


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_a_batch_of_seen_inputs_calls_the_encoder_on_no_words(tiny_task, kind):
    tr, _, cfg_enc = tiny_task
    model, enc = model_and_encoder(cfg_enc, kind)
    head = LabeledDataset(tr.items[:4], tr.task, tr.split, tr.seed, tr.word_length)
    # The tensor model's row is the pattern's, so alphabet-permuted twins repeat it; the char model's is the word's.
    twins = permute_dataset(head, seed=4).items if kind == "tensor" else head.items
    ds = LabeledDataset(head.items + twins, tr.task, tr.split, tr.seed, tr.word_length)
    recording = RecordingEncoder(enc)
    probs = predict_probs(model, ds, recording, batch_size=4)
    assert [len(c) for c in recording.calls] == [len({pattern_key(w.text) for w in head.words()}) if kind == "tensor" else 4, 0]
    assert probs[4:].tobytes() == probs[:4].tobytes()


@pytest.mark.parametrize("n", [10, 15])
def test_predict_probs_matches_the_per_batch_path_on_seeded_splits(n):
    if n == 10:
        _, va, _ = gen_palindrome_dataset(10, (1, 32, 1), seed=23)
    else:
        _, va, _ = gen_password_dataset((1, 32, 1), seed=24, n=15)
    cfg_enc = EncodingConfig.for_length(n)
    model, enc = fresh_model(cfg_enc, seed=5), BatchEncoder(cfg_enc)
    words = va.words()
    per_batch = np.concatenate([model.forward(enc(words[i : i + 32]), train=False) for i in range(0, len(words), 32)])
    for ds in (va, permute_dataset(va, seed=6)):
        recording = RecordingEncoder(enc)
        assert predict_probs(model, ds, recording).tobytes() == per_batch.tobytes()
        assert sum(map(len, recording.calls)) == len({pattern_key(w.text) for w in words})


def test_char_model_runs_pattern_twins_as_separate_rows():
    # The char baseline reads letters, so only equal words share a row.
    texts = ["abcabc", "xyzxyz", "abcabc", "abccba"]
    ds = LabeledDataset([(Word(t, PALINDROME_ALPHABET), 0) for t in texts], "palindrome", "test", None, 6)
    model = build_char_cnn(6, len(PALINDROME_ALPHABET), seed=2)
    enc = RecordingEncoder(char_encoder("palindrome"))
    probs = predict_probs(model, ds, enc)
    assert enc.calls == [["abcabc", "xyzxyz", "abccba"]]
    assert probs.tobytes() == model.forward(enc.encode(ds.words())).tobytes()
    assert probs[0] != probs[1]


@pytest.mark.parametrize("kind", ["tensor", "char"])
def test_every_conv_gemm_reads_a_c_contiguous_right_operand(kind, monkeypatch):
    # A transposed right operand gives the same bits but makes each tile GEMM
    # up to twice as slow, so only the spy sees it.
    tr, va, _ = gen_palindrome_dataset(8, (16, 16, 1), seed=25)
    model, enc = model_and_encoder(EncodingConfig.for_length(8), kind)
    matmul, seen = layers._matmul, []

    def spy(a, b, out):
        seen.append((b.shape, b.strides, b.flags.c_contiguous))
        return matmul(a, b, out)

    monkeypatch.setattr(layers, "_matmul", spy)
    batch_gradients(model, tr.words()[:8], np.asarray(tr.labels()[:8], dtype=np.float64), enc)
    after_step = len(seen)
    predict_probs(model, va, enc)
    assert 0 < after_step < len(seen)
    assert [op for op in seen if not op[2]] == []


def test_csv_lines_format():
    recs = [EpochRecord(1, 0.5, 0.75, 0.8125), EpochRecord(2, 0.25, 1.0, 1.0)]
    lines = records_to_csv_lines(recs)
    assert lines[0] == "epoch,train_loss,train_acc,val_acc"
    assert lines[1] == "1,0.500000,0.750000,0.812500"


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, optimizer="adagrad")


def test_sgd_momentum_trains(tiny_task):
    tr, va, cfg_enc = tiny_task
    cfg = TrainConfig(epochs=2, batch_size=8, steps_per_epoch=4, seed=11, optimizer="sgd-momentum", learning_rate=0.05)
    _, records = train(fresh_model(cfg_enc), tr, va, cfg, BatchEncoder(cfg_enc))
    assert len(records) == 2
    assert all(np.isfinite(r.train_loss) for r in records)
