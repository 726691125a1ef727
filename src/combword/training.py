"""Training and evaluation loops with deterministic, seeded batching.

Each epoch draws a fresh seeded shuffle of the training split and consumes a
fixed number of fixed-size batches, cycling the shuffle if the split is
smaller than one epoch's worth. The tensor model's encoder
(``encoding.BatchEncoder``) is called once per step and once per inference
batch. It keeps the sparse upper-half counts of every repetition pattern it
has seen, so a word that comes back in a later epoch, in validation or as
an alphabet-permuted twin is not counted again. That cache grows with the
distinct patterns of a run: about 7 KB each at n=10, 38 KB at n=15 and
150 KB at n=20 with channels capped at length 3. It never changes a bit of
a batch.

A batch runs through the network once per distinct input: the encoder gets
one representative word per key of ``input_key`` (the repetition pattern
for the tensor model, the letters for the char baseline; ``input_key`` and
``encoder_for`` tell the two apart by ``network.read_meta``), and the
probabilities are gathered back to every word of the batch. ``predict_probs``
goes further and runs each key once per call: a batch encodes and runs only
the keys no earlier batch of the split ran, which can be none. A row's bits do
not depend on the batch it runs in (see ``layers``), so each word gets the
probability a full forward pass would give it. The loss and accuracy stay
means over all the batch's words; backward gets each representative's
summed loss gradient, which is the full batch's parameter gradient up to
rounding, since duplicate rows have identical activations. A batch of 32
holds about 20 patterns on n=10 palindromes and 27-28 on n=15 passwords.
Everything is sequential, so identical seeds reproduce identical epoch
records byte for byte.

The encoder returns an ``encoding.EncodedBatch``, not a dense array, so no
step and no inference pass builds the whole dense batch, and no pass builds
the output plane of a conv that a ReLU and a pool follow: that conv pools a
block of whole samples at a time, so the largest arrays of a tensor-model
step are its first pool's output and index, under a third of that plane. A
training step's forward keeps every layer's activations, and the encoded
batch, for its backward; ``Network.backward`` drops them all when it is
done, so nothing of a step outlives ``batch_gradients``. ``predict_probs`` (and so ``evaluate``
and each epoch's validation) runs inference passes, which keep nothing. What
a pass allocates and where a step peaks follow from the in-place rules in
the ``layers`` docstring. When a step, ``train`` or ``predict_probs``
returns, or ``train`` stops on a diverged loss, the model holds no
batch-sized array.

``train`` keeps each epoch's validation probabilities in its record, so
``cli train`` splits the final model's validation accuracy by pattern
(``accuracy_by_pattern``) without a second pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, task_alphabet
from .encoding import BatchEncoder, onehot_batch
from .network import Network, binary_cross_entropy, read_meta
from .words import as_text, pattern_key


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    steps_per_epoch: int = 30
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # "adam" | "sgd-momentum"
    seed: int = 0
    stop_at_val_acc: float | None = None

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1 or self.steps_per_epoch < 1:
            raise ValueError("batch_size and steps_per_epoch must be >= 1")
        if self.optimizer not in ("adam", "sgd-momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.stop_at_val_acc is not None and not 0.0 <= self.stop_at_val_acc <= 1.0:
            raise ValueError(f"stop-at-val-acc must be in [0, 1], got {self.stop_at_val_acc}")


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's figures; ``val_probs`` holds each validation word's probability after the epoch."""

    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    val_probs: np.ndarray | None = field(default=None, compare=False, repr=False)


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= (self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)).astype(p.dtype, copy=False)


class SGDMomentum:
    def __init__(self, params: list[np.ndarray], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr, self.momentum = lr, momentum
        self.vel = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g, v in zip(self.params, grads, self.vel):
            v *= self.momentum
            v -= self.lr * g
            p += v.astype(p.dtype, copy=False)


def make_optimizer(cfg: TrainConfig, params: list[np.ndarray]):
    if cfg.optimizer == "adam":
        return Adam(params, cfg.learning_rate)
    return SGDMomentum(params, cfg.learning_rate)


def char_encoder(task: str):
    alphabet = task_alphabet(task)
    return lambda words: onehot_batch(words, alphabet)


def encoder_for(model: Network, task: str):
    """The batch encoder matching what a model reads (``network.read_meta``)."""
    encoding = read_meta(model.meta).encoding
    return char_encoder(task) if encoding is None else BatchEncoder(encoding)


def input_key(model: Network):
    """Per word, the key that determines the model's input row.

    The tensor model's input is a function of the word's repetition pattern,
    so pattern twins share a row; the char baseline reads the letters, and
    only equal words do.
    """
    return as_text if read_meta(model.meta).encoding is None else lambda w: pattern_key(as_text(w))


def _rows_of(words: list, key, slots: dict) -> tuple[list, np.ndarray]:
    """Each word's row under ``slots`` (``input_key`` -> row number), adding a row for each key not in it yet.

    Returns the words that start new rows, the first word of each new key in
    order, and every word's row number.
    """
    reps = []
    inv = np.empty(len(words), dtype=np.intp)
    for i, w in enumerate(words):
        k = key(w)
        slot = slots.get(k)
        if slot is None:
            slot = slots[k] = len(slots)
            reps.append(w)
        inv[i] = slot
    return reps, inv


def batch_gradients(model: Network, words: list, labels: np.ndarray, encoder) -> tuple[np.ndarray, float]:
    """Fill the model's gradients of the batch's mean BCE; return each word's probability and the loss.

    Forward and backward run once per distinct input row, and a row's loss
    gradient is the sum over the words that share it.
    """
    reps, inv = _rows_of(words, input_key(model), {})
    probs = model.forward(encoder(reps), train=True)[inv]
    loss, dprobs = binary_cross_entropy(probs, labels)
    model.backward(np.bincount(inv, weights=dprobs).astype(probs.dtype))
    return probs, loss


def evaluate(model: Network, ds: LabeledDataset, encoder, batch_size: int = 32) -> float:
    """Fraction of samples with (probability > 0.5) == label; 0.5 counts as class 0."""
    return _accuracy(predict_probs(model, ds, encoder, batch_size), ds)


def predict_probs(model: Network, ds: LabeledDataset, encoder, batch_size: int = 32) -> np.ndarray:
    """Per-word probabilities, with one forward row per distinct input of the whole split.

    The split is walked in batches of ``batch_size`` words. Each batch calls
    the encoder once, on the words whose input no earlier batch of this call
    ran, and runs them forward; a batch with none calls the encoder on no
    words and runs nothing, so a wrapped encoder still sees one call per
    batch. A row does not depend on its batch, so the bits are those of any
    other batching.
    """
    words = ds.words()
    key, slots = input_key(model), {}
    rows, inv = [], []
    for i in range(0, len(words), batch_size):
        reps, batch_inv = _rows_of(words[i : i + batch_size], key, slots)
        x = encoder(reps)
        if reps:
            rows.append(model.forward(x, train=False))
        inv.append(batch_inv)
    return np.concatenate(rows)[np.concatenate(inv)]


def _hits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return (probs > 0.5).astype(np.int64) == labels


def _accuracy(probs: np.ndarray, ds: LabeledDataset) -> float:
    return float(np.mean(_hits(probs, np.asarray(ds.labels()))))


def accuracy_by_pattern(probs: np.ndarray, seen_ds: LabeledDataset, ds: LabeledDataset) -> dict:
    """``ds``'s words, correct predictions and accuracy, split by whether a word's pattern occurs in ``seen_ds``.

    ``probs`` holds a model's probability of each word of ``ds``
    (``predict_probs``, or the last ``EpochRecord.val_probs`` of ``train``).
    The tensor model is a function of the repetition pattern, so on a word
    whose pattern was trained on it recalls that pattern; only the "unseen"
    group measures generalization. An empty group's accuracy is None.
    """
    seen = {pattern_key(as_text(w)) for w in seen_ds.words()}
    hits = _hits(probs, np.asarray(ds.labels()))
    known = np.array([pattern_key(as_text(w)) in seen for w in ds.words()], dtype=bool)
    out = {}
    for group, mask in (("seen", known), ("unseen", ~known)):
        words, correct = int(mask.sum()), int(hits[mask].sum())
        out[group] = {"words": words, "correct": correct, "accuracy": correct / words if words else None}
    return out


def train(
    model: Network,
    train_ds: LabeledDataset,
    val_ds: LabeledDataset,
    cfg: TrainConfig,
    encoder,
) -> tuple[Network, list[EpochRecord]]:
    """Run the seeded training loop, returning the model and per-epoch records.

    Train loss and accuracy are accumulated from each batch's pre-update
    forward pass; validation accuracy is measured after each epoch, and
    each record keeps that validation's probabilities. Stops
    early once stop_at_val_acc is reached, and aborts on non-finite loss.
    Each batch is encoded and run once per distinct input (module docstring).
    """
    params = model.params()
    opt = make_optimizer(cfg, params)
    rng = np.random.default_rng(cfg.seed)
    items = train_ds.items
    labels_all = np.asarray(train_ds.labels(), dtype=np.float64)
    per_epoch = cfg.batch_size * cfg.steps_per_epoch
    records: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        order = np.concatenate([rng.permutation(len(items)) for _ in range(-(-per_epoch // len(items)))])
        losses = []
        correct = 0
        for step in range(cfg.steps_per_epoch):
            take = order[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            words = [items[i][0] for i in take]
            y = labels_all[take]
            probs, loss = batch_gradients(model, words, y, encoder)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} at epoch {epoch} step {step + 1}")
            opt.step(model.grads())
            losses.append(loss)
            correct += int(np.sum(_hits(probs, y)))
        val_probs = predict_probs(model, val_ds, encoder, cfg.batch_size)
        val_acc = _accuracy(val_probs, val_ds)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                train_acc=correct / (cfg.steps_per_epoch * cfg.batch_size),
                val_acc=val_acc,
                val_probs=val_probs,
            )
        )
        if cfg.stop_at_val_acc is not None and val_acc >= cfg.stop_at_val_acc:
            break
    return model, records


def records_to_csv_lines(records: list[EpochRecord]) -> list[str]:
    lines = ["epoch,train_loss,train_acc,val_acc"]
    lines.extend(f"{r.epoch},{r.train_loss:.6f},{r.train_acc:.6f},{r.val_acc:.6f}" for r in records)
    return lines
