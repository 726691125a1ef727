"""Workloads, timed pipeline and metrics of the combword benchmark.

Every workload runs the same pipeline through the package's public API, with
one caller and batch size 32 (the package default):

    set-up:  generate the splits, permute the test split, build the model
    timed:   training.train for a fixed number of epochs, validating after
             each; save and load the trained model; predict_probs on the
             test split and on its permuted image, which must agree bit for
             bit; check_theorem on (word, permuted word) and (word, other
             word) pairs, in chunks spread between the package's steps and
             batches so that they sample the whole run

A run repeats this in `rounds` rounds on fresh test words, continuing from
the trained model, so that inference too samples the whole run.

The workloads differ in word length and task, so they stress the package at
two input sizes: small planes, where the conv and encoding share the step,
and large planes, where memory dominates. Sizes are fixed per run length,
never per machine: a faster program does the same work sooner. Step and
batch boundaries are timed in the encoder callable the benchmark passes to
the package, so the untraced run wraps nothing inside the package.

With tracing on, an untraced pass of one round is followed by a traced
repeat of the same work on a fresh set-up; its spans give the per-layer
numbers, and the difference between the two run times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from combword import checkpoint, datasets, encoding, equivalence, network, training
from combword.combinatorics import combinatorics_map
from combword.encoding import NORM_NONE, EncodingConfig, encode_dense
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

REF_SECONDS = 50  # a run of this length does each workload's `rounds` rounds
BATCH = 32
# set_up runs this many times per run and setup_s is their median. Imports,
# which one process can do only once, are reported as import_s beside it.
SETUP_REPS = 15
PAIR_CHUNK = 4  # check_theorem pairs per timed chunk, spread between the package's calls
CROSSCHECK_WORDS = 3


@dataclass(frozen=True)
class Workload:
    """One round of a workload; a REF_SECONDS run does `rounds` of them."""

    task: str
    n: int
    rounds: int
    epochs: int  # of one training.train call, validating after each
    steps: int  # per epoch
    train_words: int
    val_words: int
    eval_words: int  # fresh clean test words; as many permuted ones follow
    pairs: int  # theorem pairs, alternately (word, permuted word) and (word, other word)

    def __post_init__(self) -> None:
        if self.val_words % BATCH or self.eval_words % BATCH or self.pairs % PAIR_CHUNK:
            raise ValueError("val and eval words must fill whole batches, pairs whole chunks")

    def scaled(self, seconds: float) -> "Workload":
        return replace(self, rounds=max(1, round(self.rounds * seconds / REF_SECONDS)))


# Each round's train() call starts a fresh optimizer, which these tasks tolerate.
WORKLOADS = {
    "train-pal10": Workload("palindrome", 10, 2, 4, 10, 1000, 96, 128, 192),
    "train-pwd15": Workload("password", 15, 3, 3, 2, 1000, 32, 64, 48),
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    wl: Workload
    train: datasets.LabeledDataset
    val: datasets.LabeledDataset
    test: datasets.LabeledDataset
    permuted: datasets.LabeledDataset
    model: network.Network


def set_up(wl: Workload, seed: int) -> Setup:
    counts = (wl.train_words // 2, wl.val_words // 2, wl.eval_words * wl.rounds // 2)
    if wl.task == datasets.TASK_PALINDROME:
        train, val, test = datasets.gen_palindrome_dataset(wl.n, counts, seed)
    else:
        train, val, test = datasets.gen_password_dataset(counts, seed, n=wl.n)
    permuted = datasets.permute_dataset(test, seed + 1)
    model = network.build_combinatorial_cnn(EncodingConfig.for_length(wl.n), seed)
    return Setup(wl, train, val, test, permuted, model)


def round_trip(model: network.Network, workdir: Path, checks: list[bool]) -> network.Network:
    """Save and reload a model, recording whether every parameter came back bit for bit."""
    path = workdir / "model.ckpt"
    checkpoint.save_checkpoint(model, path)
    loaded = checkpoint.load_checkpoint(path)
    checks.append(all(np.array_equal(a.view(np.uint32), b.view(np.uint32)) for a, b in zip(model.params(), loaded.params())))
    return loaded


# ---------------------------------------------------------------------------
# Timed pipeline
# ---------------------------------------------------------------------------


def pattern_key(text: str) -> tuple[int, ...]:
    """First-occurrence renumbering: the key a pattern-level cache would use."""
    order: dict[str, int] = {}
    return tuple(order.setdefault(ch, len(order)) for ch in text)


class StampedEncoder:
    """The encoder callable handed to the package.

    The package calls it once per training step or inference batch, and it
    times each call up to the next call (or to `intervals()`), which splits
    the package's work into steps and batches without touching the package.
    Before each call's interval starts it runs `between`, side work that is
    timed on its own. With `count` set it tallies what it encodes.
    """

    def __init__(self, encode, between, count: bool):
        self.encode = encode
        self.between = between
        self.count = count
        self.words = 0
        self.nonzero = 0
        self.entries = 0
        self.patterns: set[tuple[int, ...]] = set()
        self._start: float | None = None
        self._done: list[float] = []

    def _close(self) -> None:
        if self._start is not None:
            self._done.append(perf_counter() - self._start)
            self._start = None

    def __call__(self, words):
        self._close()
        self.between()
        self._start = perf_counter()
        x = self.encode(words)
        if self.count:
            self.words += len(words)
            self.nonzero += int(np.count_nonzero(x))
            self.entries += x.size
            self.patterns.update(pattern_key(w.text) for w in words)
        return x

    def intervals(self) -> list[float]:
        """The intervals timed since the last call of this method."""
        self._close()
        out, self._done = self._done, []
        return out


@dataclass
class Run:
    run_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    infer_batch_s: list[float] = field(default_factory=list)
    pair_chunk_s: list[float] = field(default_factory=list)
    pairs: int = 0
    val_accs: list[float] = field(default_factory=list)  # after every epoch
    attempted: int = 0
    failures: dict[str, int] = field(default_factory=lambda: dict.fromkeys(FAILURE_KINDS, 0))
    disagreements: int = 0


FAILURE_KINDS = ("nonfinite_loss", "permuted_probs_differ", "theorem", "checkpoint", "encode_vs_map")


def bitwise_mismatches(a: np.ndarray, b: np.ndarray) -> int:
    """Number of samples whose probabilities differ in any bit."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return max(len(a), len(b))
    return int(np.count_nonzero(np.any(a.reshape(len(a), -1).view(np.uint8) != b.reshape(len(b), -1).view(np.uint8), axis=1)))


def theorem_pairs(st: Setup) -> list[tuple[str, str, bool]]:
    """Alternately (word, its permuted image, True) and (word, a word of the other class, False).

    Words alternate between the two labels, so every chunk of pairs has the
    same class mix whatever the seed.
    """
    by_label = [[j for j, (_, y) in enumerate(st.test.items) if y == label] for label in (1, 0)]
    order = [j for both in zip(*by_label) for j in both]
    clean = [w.text for w in st.test.words()]
    perm = [w.text for w in st.permuted.words()]
    out = []
    for k in range(st.wl.pairs * st.wl.rounds):
        i = (k // 2) % len(order)
        j = order[i]
        out.append((clean[j], perm[j], True) if k % 2 == 0 else (clean[j], clean[order[(i + 1) % len(order)]], False))
    return out


def part(ds: datasets.LabeledDataset, r: int, size: int) -> datasets.LabeledDataset:
    """Round r's share of a split."""
    return datasets.LabeledDataset(ds.items[r * size : (r + 1) * size], ds.task, ds.split, ds.seed, ds.word_length)


def fit(model, st: Setup, enc: StampedEncoder, seed: int, run: Run):
    """training.train for the workload's epochs; each epoch's steps are followed by its validation batches."""
    wl = st.wl
    cfg = training.TrainConfig(epochs=wl.epochs, batch_size=BATCH, steps_per_epoch=wl.steps, seed=seed)
    model, records = training.train(model, st.train, st.val, cfg, enc)
    intervals = enc.intervals()
    per_epoch = wl.steps + wl.val_words // BATCH
    if len(intervals) != len(records) * per_epoch:
        raise RuntimeError(f"expected {per_epoch} encoder calls per epoch, saw {len(intervals)} in {len(records)}")
    for e in range(len(records)):
        run.step_s += intervals[e * per_epoch : e * per_epoch + wl.steps]
        run.infer_batch_s += intervals[e * per_epoch + wl.steps : (e + 1) * per_epoch]
    run.attempted += len(records) * wl.steps
    run.failures["nonfinite_loss"] += sum(not math.isfinite(r.train_loss) for r in records)
    run.val_accs += [r.val_acc for r in records]
    return model


def infer(model, clean: datasets.LabeledDataset, permuted: datasets.LabeledDataset, enc: StampedEncoder, run: Run):
    """predict_probs on clean words and on their permuted images, which must agree bit for bit."""
    p_clean = training.predict_probs(model, clean, enc, BATCH)
    p_perm = training.predict_probs(model, permuted, enc, BATCH)
    run.infer_batch_s += enc.intervals()
    run.attempted += len(clean)
    run.failures["permuted_probs_differ"] += bitwise_mismatches(p_clean, p_perm)


class TheoremChecks:
    """check_theorem on the pairs in chunks, spread evenly over a run's encoder calls.

    Run between the package's steps and batches, the checks sample the whole
    run as the steps do, not one short window of a machine whose speed drifts.
    """

    def __init__(self, pairs: list[tuple[str, str, bool]], calls: int, run: Run):
        self.chunks = [pairs[c : c + PAIR_CHUNK] for c in range(0, len(pairs), PAIR_CHUNK)]
        self.calls = calls
        self.seen = 0
        self.done = 0
        self.run = run

    def __call__(self) -> None:
        while self.done < len(self.chunks) and self.done * self.calls <= self.seen * len(self.chunks):
            self._check(self.chunks[self.done])
        self.seen += 1

    def finish(self) -> None:
        while self.done < len(self.chunks):
            self._check(self.chunks[self.done])

    def _check(self, chunk) -> None:
        t = perf_counter()
        reports = [(equivalence.check_theorem(a, b), related) for a, b, related in chunk]
        self.run.pair_chunk_s.append(perf_counter() - t)
        self.done += 1
        self.run.pairs += len(reports)
        self.run.attempted += len(reports)
        self.run.disagreements += sum(not r.agree for r, _ in reports)
        self.run.failures["theorem"] += sum(not r.agree or (related and not r.tensor_equal) for r, related in reports)


def run_timed(st: Setup, seed: int, workdir: Path, tracer: Tracer | None = None) -> tuple[Run, StampedEncoder]:
    wl = st.wl
    model = st.model
    encode = training.encoder_for(model, wl.task)
    if tracer is not None:
        encode = tracer.span("encoding.encode_batch", encode)
        instrument(tracer, model)
    run = Run()
    calls = wl.rounds * (wl.epochs * (wl.steps + wl.val_words // BATCH) + 2 * wl.eval_words // BATCH)
    theorem = TheoremChecks(theorem_pairs(st), calls, run)
    enc = StampedEncoder(encode, between=theorem, count=tracer is not None)
    checks: list[bool] = []

    t0 = perf_counter()
    for r in range(wl.rounds):
        model = fit(model, st, enc, seed + r, run)
        model = round_trip(model, workdir, checks)
        if tracer is not None:
            instrument(tracer, model)
        infer(model, part(st.test, r, wl.eval_words), part(st.permuted, r, wl.eval_words), enc, run)
    theorem.finish()
    run.run_s = perf_counter() - t0

    run.attempted += len(checks)
    run.failures["checkpoint"] += sum(not ok for ok in checks)
    return run, enc


def crosscheck(st: Setup, run: Run) -> None:
    """Un-normalized dense entries must equal the sparse map's counts within the channel cap."""
    cfg = replace(EncodingConfig.for_length(st.wl.n), normalization=NORM_NONE)
    cap = cfg.word_length if cfg.nu_cap_len is None else cfg.nu_cap_len
    words = [w.text for w in st.test.words()[:CROSSCHECK_WORDS]]
    for word in words:
        dense = encode_dense(word, cfg, np.float64)
        expect = np.zeros_like(dense)
        sparse = combinatorics_map(word)
        for (lam, mu, nu), c in sparse.counts.items():
            if sparse.table[nu].length <= cap:
                expect[lam, mu, nu] = c
        run.failures["encode_vs_map"] += not np.array_equal(dense, expect)
    run.attempted += len(words)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples (never beyond the largest)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "run_s": run.run_s,
        "train_examples_per_s": len(run.step_s) * BATCH / sum(run.step_s),
        "train_step_ms.p50": 1e3 * statistics.median(run.step_s),
        # The tail at p75, not p90: train-pwd15 times only 18 steps, which
        # leave two samples beyond p90 and four beyond p75.
        "train_step_ms.p75": 1e3 * quantile(run.step_s, 75),
        "infer_words_per_s": len(run.infer_batch_s) * BATCH / sum(run.infer_batch_s),
        "infer_batch_ms.p50": 1e3 * statistics.median(run.infer_batch_s),
        "equiv_pairs_per_s": run.pairs / sum(run.pair_chunk_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        # The best epoch, as --stop-at-val-acc judges one: steady across seeds
        # even when a short fine-tune has not settled.
        "val_acc": max(run.val_accs),
    }


def layer_shapes(model: network.Network) -> list[tuple[str, network.LayerSpec, tuple, tuple]]:
    """(metric prefix, spec, input shape, output shape) per layer, per sample."""
    out = []
    shape = model.input_shape
    for i, spec in enumerate(model.specs):
        nxt = network.shape_after(spec, shape, f"layer {i}")
        out.append((f"layers.L{i}_{spec.kind}", spec, shape, nxt))
        shape = nxt
    return out


def computed_counters(model: network.Network) -> dict[str, float]:
    """Sizes and operation counts derived from shapes, per batch of 32."""
    out: dict[str, float] = {}
    for prefix, spec, shp_in, shp_out in layer_shapes(model):
        out[f"{prefix}.out_mb"] = BATCH * math.prod(shp_out) * 4 / 1e6
        if spec.kind == "conv2d":
            kh, kw = spec.kernel
            out[f"{prefix}.gflop"] = 2 * BATCH * shp_out[0] * shp_out[1] * kh * kw * shp_in[2] * spec.filters / 1e9
        elif spec.kind == "dense":
            out[f"{prefix}.gflop"] = 2 * BATCH * shp_in[0] * spec.units / 1e9
    out["encoding.batch_mb"] = BATCH * math.prod(model.input_shape) * 4 / 1e6
    # train() discards the input gradient that the first layer's backward builds.
    out["layers.L0_conv2d.dx_unused_mb"] = out["encoding.batch_mb"]
    return out


def instrument(tracer: Tracer, model: network.Network) -> None:
    tracer.patch(model, "forward", "network.forward")
    tracer.patch(model, "backward", "network.backward")
    for (prefix, *_), layer in zip(layer_shapes(model), model.layers):
        tracer.patch(layer, "forward", f"{prefix}.fwd")
        tracer.patch(layer, "backward", f"{prefix}.bwd")


def install(tracer: Tracer) -> None:
    """Trace the package's public entry points used by the pipeline."""
    for owner, attr, name in (
        (datasets, "gen_palindrome_dataset", "datasets.gen"),
        (datasets, "gen_password_dataset", "datasets.gen"),
        (datasets, "permute_dataset", "datasets.permute"),
        (checkpoint, "save_checkpoint", "checkpoint.save"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
        (training, "train", "training.train"),
        (training, "predict_probs", "training.predict_probs"),
        (training, "binary_cross_entropy", "network.loss"),
        (training.Adam, "step", "training.optimizer_step"),
        (encoding, "dense_counts", "combinatorics.dense_counts"),
        (equivalence, "combinatorics_map", "combinatorics.map"),
        (equivalence, "check_theorem", "equivalence.check_theorem"),
    ):
        tracer.patch(owner, attr, name)


STEP_SPANS = ("encoding.encode_batch", "network.forward", "network.loss", "network.backward", "training.optimizer_step")


def step_self_times(tracer: Tracer) -> list[float]:
    """Per training step, the time its traced calls cover (encode, forward, loss, backward, optimizer)."""
    trains = {i for i, s in enumerate(tracer.spans) if s[0] == "training.train"}
    steps: list[float] = []
    for name, t0, t1, parent in tracer.spans:
        if parent in trains and name in STEP_SPANS:
            if name == STEP_SPANS[0]:
                steps.append(0.0)
            steps[-1] += t1 - t0
    return steps


def per_layer(tracer: Tracer, traced: Run, enc: StampedEncoder, untraced: Run, model, ckpt_path: Path) -> dict[str, float]:
    out = {f"{name}_s": t for name, t in tracer.self_times().items()}
    trains = {i for i, s in enumerate(tracer.spans) if s[0] == "training.train"}
    out["training.validation_s"] = sum(
        t1 - t0 for name, t0, t1, parent in tracer.spans if name == "training.predict_probs" and parent in trains
    )
    out.update(computed_counters(model))
    out["encoding.words"] = enc.words
    out["encoding.nonzero_frac"] = enc.nonzero / enc.entries
    out["encoding.unique_pattern_ratio"] = len(enc.patterns) / enc.words
    out["checkpoint.mb"] = ckpt_path.stat().st_size / 1e6
    out["equivalence.pairs"] = traced.pairs
    out["equivalence.disagreements"] = traced.disagreements
    step_self = statistics.median(step_self_times(tracer))
    out["trace.run_s"] = traced.run_s
    out["trace.overhead_s"] = traced.run_s - untraced.run_s
    out["trace.step_self_ms.p50"] = 1e3 * step_self
    out["trace.step_accounted_frac"] = step_self / statistics.median(untraced.step_s)
    out["trace.spans"] = len(tracer.spans)
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """The declared metrics, in declared order, each with its unit; a missing one is an error."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def measure(wl: Workload, seed: int, trace: bool, import_s: float, workdir: Path, run_id: str):
    """All numbers of one run: (metrics, attempted, failed, notes)."""
    if trace:
        # Both passes of a traced run do one round, so that together they
        # take about as long as one untraced run.
        wl = replace(wl, rounds=1)
    times = []
    for _ in range(SETUP_REPS):
        t = perf_counter()
        st = set_up(wl, seed)
        times.append(perf_counter() - t)
    base, _ = run_timed(st, seed, workdir)
    crosscheck(st, base)
    failed = sum(base.failures.values())
    notes = {
        "import_s": import_s,
        "setup_reps_s": times,
        "train_steps": len(base.step_s),
        "infer_batches": len(base.infer_batch_s),
        "pair_chunks": len(base.pair_chunk_s),
        "val_acc_by_epoch": base.val_accs,
        "ops_failed_frac": failed / base.attempted,
        "failures": base.failures,
    }
    if not trace:
        return end_to_end(base, statistics.median(times)), base.attempted, failed, notes
    del st
    tracer = Tracer(run_id)
    install(tracer)
    try:
        st = set_up(wl, seed)
        traced, enc = run_timed(st, seed, workdir, tracer)
    finally:
        tracer.restore()
    tracer.write(OUT_DIR / f"spans-{run_id}.jsonl")
    values = per_layer(tracer, traced, enc, base, st.model, workdir / "model.ckpt")
    return values, base.attempted + traced.attempted, failed + sum(traced.failures.values()), notes


def main(argv: list[str], import_s: float) -> int:
    ap = argparse.ArgumentParser(description="Run one combword benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run length the workload sizes scale to")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spec = load_spec()
    wl = WORKLOADS[args.workload].scaled(args.seconds)
    run_id = f"{args.workload}-seed{args.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        values, attempted, failed, notes = measure(wl, args.seed, bool(args.trace), import_s, Path(tmp), run_id)
    metrics = select(values, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed, **notes}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops_failed_frac = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
