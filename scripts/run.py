#!/usr/bin/env python3
"""Run one bundled experiment end to end through the combword CLI.

Presets (each generates 1000/500/500 words per class under OUT/data):

  palindrome-desk  length-10 palindromes, 50 epochs; accuracy on the clean
                   and on an alphabet-permuted validation set
  password         length-15 passwords, 25 epochs; accuracy on the test split
  robustness       the tensor model and the raw-character baseline, 12 epochs
                   each; per model, clean vs alphabet-permuted validation
                   accuracy and their delta (exactly zero for the tensor model)
  palindrome-full  length-20 palindromes, 48 epochs, channels capped at
                   subwords of length <= 3; tensors are 211x211x58 per word,
                   so expect a multi-hour run without early stopping
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from combword.checkpoint import load_checkpoint
from combword.cli import main as cli
from combword.datasets import permute_dataset, read_dataset
from combword.network import read_meta
from combword.training import encoder_for, evaluate

# Defaults of the flags that differ between presets.
PRESETS = {
    "palindrome-desk": {"len": 10, "seed": 7, "epochs": 50},
    "password": {"len": 15, "seed": 11, "epochs": 25},
    "robustness": {"len": 10, "seed": 7, "epochs": 12},
    "palindrome-full": {"len": 20, "seed": 7, "epochs": 48},
}


def accuracy_pair(ckpt_path: Path, val_path: Path, permute_seed: int) -> tuple[float, float]:
    model = load_checkpoint(ckpt_path)
    task = read_meta(model.meta).task
    val = read_dataset(val_path, task=task, split="val")
    encoder = encoder_for(model, task)
    return evaluate(model, val, encoder), evaluate(model, permute_dataset(val, permute_seed), encoder)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("preset", choices=PRESETS)
    ap.add_argument("--out", default=None, help="output directory (default runs/<preset>, '-' as '_')")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--len", type=int, default=None, help="word length")
    ap.add_argument("--epochs", type=int, default=None)
    ap.add_argument("--stop-at-val-acc", type=float, default=None)
    ap.add_argument("--permute-seed", type=int, default=5, help="palindrome-desk and robustness only")
    args = ap.parse_args()
    for key, value in PRESETS[args.preset].items():
        if getattr(args, key) is None:
            setattr(args, key, value)

    out = Path(args.out or "runs/" + args.preset.replace("-", "_"))
    data = out / "data"
    task = "password" if args.preset == "password" else "palindrome"
    rc = cli(["gen", task + "s", "--len", str(args.len), "--train", "1000", "--val", "500",
              "--test", "500", "--seed", str(args.seed), "--out", str(data)])
    if rc:
        return rc
    if args.preset == "robustness":
        runs = {model: ["--model", model] for model in ("combinatorial", "char")}
    else:
        runs = {"run": ["--nu-cap", "3"] if args.preset == "palindrome-full" else []}
    for name, flags in runs.items():
        train_args = ["train", "--task", task, "--data", str(data), *flags,
                      "--epochs", str(args.epochs), "--seed", str(args.seed), "--out", str(out / name)]
        if args.stop_at_val_acc is not None:
            train_args += ["--stop-at-val-acc", str(args.stop_at_val_acc)]
        rc = cli(train_args)
        if rc:
            return rc

    if args.preset == "robustness":
        for name in runs:
            clean, permuted = accuracy_pair(out / name / "model.ckpt", data / "val.tsv", args.permute_seed)
            print(f"{name}: clean={clean:.4f} permuted={permuted:.4f} delta={clean - permuted:+.4f}")
        return 0
    ckpt = str(out / "run" / "model.ckpt")
    if args.preset == "palindrome-desk":
        print("clean validation:")
        clean = cli(["eval", "--checkpoint", ckpt, "--data", str(data / "val.tsv")])
        print("alphabet-permuted validation:")
        permuted = cli(["eval", "--checkpoint", ckpt, "--data", str(data / "val.tsv"),
                        "--permute-seed", str(args.permute_seed)])
        return clean or permuted
    return cli(["eval", "--checkpoint", ckpt, "--data", str(data / "test.tsv")])


if __name__ == "__main__":
    sys.exit(main())
