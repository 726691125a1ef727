"""Single entry point: dataset generation, tensor inspection, equivalence
checking, training, evaluation, and the gradient self-test.

Exit codes: 0 success, 1 usage error (a flag, a word or a word length the
command cannot take, or an input too large for memory), 2 invariant
violation (equivalence disagreement, gradient check failure, training
divergence, or any other internal error), 3 I/O error.
Every training or evaluation run writes one JSON manifest beside its outputs.
`tensor` writes one lam row at a time, so it never holds the text of the
whole map or tensor; its --nu-cap and --norm apply to --format dense only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .combinatorics import combinatorics_map
from .datasets import (
    DatasetFormatError,
    gen_palindrome_dataset,
    gen_password_dataset,
    permute_dataset,
    read_dataset,
    task_alphabet,
    write_dataset,
)
from .encoding import NORM_LOG, NORM_NONE, EncodingConfig, encode_dense
from .equivalence import EXHAUSTIVE_MAX_LETTERS, check_theorem
from .gradcheck import DEFAULT_TOLERANCE, run_gradcheck
from .network import build_char_cnn, build_combinatorial_cnn, read_meta
from .training import (
    TrainConfig,
    TrainingDiverged,
    accuracy_by_pattern,
    encoder_for,
    evaluate,
    predict_probs,
    records_to_csv_lines,
    train,
)
from .words import word_over_own_letters

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _fail(kind: str, message: str) -> None:
    print(f"error: {kind}: {message}", file=sys.stderr)


@contextmanager
def _flags():
    """Report the ValueError of a check on what the command line asked for as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_manifest(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _memory() -> dict:
    """This process's peak resident memory and minor page faults so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_mb": round(usage.ru_maxrss * 1024 / 1e6, 1), "minor_page_faults": usage.ru_minflt}


def _seed(text: str) -> int:
    """A seed flag: numpy's generators take only integers >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _word(text: str):
    """A word argument over its own letters; bytes that are not UTF-8 reach argv as lone surrogates."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"word is not valid UTF-8 at character {exc.start + 1}") from None
    return word_over_own_letters(text)


def _nu_cap(text: str) -> int:
    """A channel cap flag: subwords of length up to an integer >= 1."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"nu_cap_len must be an integer >= 1, got {text!r}")
    return int(text)


def _encoding_config(n: int, nu_cap: int | None, norm: str) -> EncodingConfig:
    """The encoding of --nu-cap (None keeps the length's default cap) and --norm."""
    normalization = {"none": NORM_NONE, "log": NORM_LOG}[norm]
    if nu_cap is None:
        return EncodingConfig.for_length(n, normalization=normalization)
    return EncodingConfig.for_length(n, nu_cap_len=nu_cap, normalization=normalization)


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = (args.train, args.val, args.test)
    with _flags():
        if args.task == "palindromes":
            splits = gen_palindrome_dataset(args.len, counts, args.seed)
            task = "palindrome"
        else:
            splits = gen_password_dataset(counts, args.seed, n=args.len)
            task = "password"
    for ds in splits:
        write_dataset(ds, out / f"{ds.split}.tsv")
    _write_manifest(
        out / "manifest.json",
        {
            "subcommand": "gen",
            "task": task,
            "word_length": args.len,
            "per_class_counts": {"train": args.train, "val": args.val, "test": args.test},
            "seed": args.seed,
            "alphabet_size": len(task_alphabet(task)),
            "weak_pool_sizes": [2, 11] if task == "password" else None,
            "artifact_version": __version__,
        },
    )
    print(f"wrote {out}/train.tsv val.tsv test.tsv (seed={args.seed})")
    return EXIT_OK


def cmd_tensor(args) -> int:
    with _flags():
        word = _word(args.word)
    if args.format == "sparse":
        given = [flag for flag, value in (("--nu-cap", args.nu_cap), ("--norm", args.norm)) if value is not None]
        if given:
            raise UsageError(f"--format sparse takes no {' or '.join(given)} (dense format only)")
        for lam, row in enumerate(combinatorics_map(word).sparse.rows()):
            sys.stdout.write("".join(f"{lam} {mu} {nu} {c}\n" for mu, nu, c in row))
        return EXIT_OK
    with _flags():
        cfg = _encoding_config(len(word), args.nu_cap, args.norm or "log")
    tensor = encode_dense(word, cfg)
    print(*tensor.shape)
    for plane in tensor:  # one lam row at a time, so the text of the whole tensor is never held
        # Each distinct value (by its bits, so -0.0 stays apart) is formatted once per row.
        bits, inverse = np.unique(plane.ravel().view(f"u{plane.itemsize}"), return_inverse=True)
        text = np.array([f"{v:.9g}\n" for v in bits.view(plane.dtype).tolist()], dtype=object)
        sys.stdout.write("".join(text[inverse].tolist()))
    return EXIT_OK


def cmd_equiv(args) -> int:
    with _flags():
        a, b = _word(args.a), _word(args.b)
    if args.oracle and max(len(a.distinct_letters), len(b.distinct_letters)) > EXHAUSTIVE_MAX_LETTERS:
        raise UsageError(f"--oracle searches words of at most {EXHAUSTIVE_MAX_LETTERS} distinct letters")
    report = check_theorem(a, b, use_oracle=args.oracle)
    if report.bijection is None:
        bij = "none"
    else:
        bij = ",".join(f"{s}->{t}" for s, t in report.bijection.pairs)
    print(f"equal={str(report.tensor_equal).lower()} bijection={bij} agree={str(report.agree).lower()}")
    if not report.agree:
        _fail("invariant", "equivalence routes disagree")
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.time()
    data = Path(args.data)
    train_ds = read_dataset(data / "train.tsv", task=args.task, split="train")
    val_ds = read_dataset(data / "val.tsv", task=args.task, split="val")
    n = train_ds.word_length
    if val_ds.word_length != n:
        raise DatasetFormatError(f"{data / 'val.tsv'}: words of length {val_ds.word_length} do not match train.tsv's length {n}")
    with _flags():
        if args.model == "char":
            model = build_char_cnn(n, len(task_alphabet(args.task)), seed=args.seed)
        else:
            enc_cfg = _encoding_config(n, args.nu_cap, args.norm)
            model = build_combinatorial_cnn(enc_cfg, seed=args.seed)
        cfg = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            steps_per_epoch=args.steps_per_epoch,
            learning_rate=args.lr,
            optimizer=args.optimizer,
            seed=args.seed,
            stop_at_val_acc=args.stop_at_val_acc,
        )
    model.meta["task"] = args.task
    encoder = encoder_for(model, args.task)
    model, records = train(model, train_ds, val_ds, cfg, encoder)
    # Memory and the pattern split go to the manifest only: metrics.csv and the checkpoint stay byte-identical.
    # The last epoch validated the final model; with no epoch, the untrained model is validated here.
    val_probs = records[-1].val_probs if records else predict_probs(model, val_ds, encoder, cfg.batch_size)
    val_by_pattern = accuracy_by_pattern(val_probs, train_ds, val_ds)
    memory = _memory()
    if args.model == "combinatorial":
        memory["encoder_cache"] = {"patterns": len(encoder), "cache_mb": round(encoder.nbytes / 1e6, 3)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text("\n".join(records_to_csv_lines(records)) + "\n", encoding="utf-8")
    save_checkpoint(model, out / "model.ckpt")
    _write_manifest(
        out / "manifest.json",
        {
            "subcommand": "train",
            "task": args.task,
            "model": args.model,
            "data": str(data),
            "epochs_requested": args.epochs,
            "epochs_run": len(records),
            "batch_size": cfg.batch_size,
            "steps_per_epoch": cfg.steps_per_epoch,
            "learning_rate": cfg.learning_rate,
            "optimizer": cfg.optimizer,
            "seed": args.seed,
            "stop_at_val_acc": args.stop_at_val_acc,
            "outputs": ["metrics.csv", "model.ckpt"],
            "artifact_version": __version__,
            "wall_clock_seconds": round(time.time() - started, 3),
            "val_by_pattern": val_by_pattern,
            **memory,
        },
    )
    if records:
        last = records[-1]
        print(
            f"epoch {last.epoch}: train_loss={last.train_loss:.4f} "
            f"train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f}"
        )
    print(f"wrote {out}/model.ckpt metrics.csv manifest.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.time()
    model = load_checkpoint(args.checkpoint)
    reads = read_meta(model.meta)
    ds = read_dataset(args.data, task=reads.task, split="eval")
    if ds.word_length != reads.word_length:
        raise DatasetFormatError(
            f"{args.data}: words of length {ds.word_length} do not fit the model {args.checkpoint}, "
            f"built for length {reads.word_length}"
        )
    if args.permute_seed is not None:
        ds = permute_dataset(ds, args.permute_seed)
    acc = evaluate(model, ds, encoder_for(model, reads.task))
    print(f"accuracy={acc:.6f}")
    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        out / "manifest-eval.json",
        {
            "subcommand": "eval",
            "checkpoint": str(args.checkpoint),
            "data": str(args.data),
            "permute_seed": args.permute_seed,
            "accuracy": acc,
            "artifact_version": __version__,
            "wall_clock_seconds": round(time.time() - started, 3),
            **_memory(),
        },
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    errors = run_gradcheck(args.seed)
    ok = True
    for kind, err in errors.items():
        passed = err < DEFAULT_TOLERANCE
        ok = ok and passed
        print(f"{kind}: max_rel_err={err:.3e} {'PASS' if passed else 'FAIL'}")
    if not ok:
        _fail("invariant", f"gradient check exceeded tolerance {DEFAULT_TOLERANCE}")
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="combword", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate labeled dataset splits")
    p.add_argument("task", choices=["palindromes", "passwords"])
    p.add_argument("--len", type=int, required=True, help="word length")
    p.add_argument("--train", type=int, required=True, help="train items per class")
    p.add_argument("--val", type=int, required=True, help="val items per class")
    p.add_argument("--test", type=int, required=True, help="test items per class")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tensor", help="print a word's count map or dense tensor")
    p.add_argument("--word", required=True)
    p.add_argument("--format", choices=["sparse", "dense"], default="sparse")
    p.add_argument("--nu-cap", type=_nu_cap, default=None, help="channel cap (dense format only)")
    p.add_argument("--norm", choices=["none", "log"], default=None, help="count normalization (dense format only; default log)")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("equiv", help="compare two words by bijection and by count map")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with the exhaustive search")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("train", help="train a classifier on generated splits")
    p.add_argument("--task", choices=["palindrome", "password"], required=True)
    p.add_argument("--data", required=True, help="directory with train.tsv and val.tsv")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["combinatorial", "char"], default="combinatorial")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--steps-per-epoch", type=int, default=30)
    p.add_argument("--nu-cap", type=_nu_cap, default=None)
    p.add_argument("--norm", choices=["none", "log"], default="log")
    p.add_argument("--optimizer", choices=["adam", "sgd-momentum"], default="adam")
    p.add_argument("--stop-at-val-acc", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--permute-seed", type=_seed, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference self-test of every layer kind")
    p.add_argument("--seed", type=_seed, default=7)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _fail("usage", str(exc))
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DatasetFormatError, CheckpointError, OSError) as exc:
        _fail("io", str(exc))
        return EXIT_IO
    except TrainingDiverged as exc:
        _fail("invariant", str(exc))
        return EXIT_INVARIANT
    except UsageError as exc:
        _fail("usage", str(exc))
        return EXIT_USAGE
    except MemoryError as exc:
        _fail("usage", f"memory ran out, the input is too large: {' '.join(str(exc).split()) or type(exc).__name__}")
        return EXIT_USAGE
    except ValueError as exc:
        # Every check on the command line's values raised UsageError above, so this is the package's fault.
        _fail("invariant", f"internal error: {' '.join(str(exc).split())}")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
