"""Print SHA-256 digests of everything a short, fixed experiment writes.

A change that claims to keep every number is checked by running this on
the parent commit and on the change and comparing the output:

    python3 tools/same_numbers.py
    OPENBLAS_NUM_THREADS=1 python3 tools/same_numbers.py

The output does not depend on the BLAS thread count (the tests check
1 against 2 threads), but it does on numpy's build and the CPU, so
compare runs made on one machine.  Everything runs through `vslct.cli.main` (the rows
are read back with `load_rows`, in the order of the run_ids that
summary.json lists, as `vslct roc` reads them) in a temporary directory,
which is removed afterwards:

* `gen-data` at seeds 101/202 (the README's train and test sets), a
  3-epoch `sweep` of configs/directional.json, then `roc` and `analyze`:
  one line per sweep row, a digest of its run_id, kind, seed, AUC hex,
  score bytes and label bytes as `load_rows` decodes them (so a change of
  the row file format can still show that no number moved); one line per
  file summary.json, roc.csv and report.json, of its bytes; and one
  digest over those lines;
* `train` of a baseline and of an affine conditioned model (3 epochs):
  one line per checkpoint, a digest of its config and meta (as sorted
  JSON) and its parameter bytes as `load_checkpoint` returns them, so a
  change of the checkpoint layout can show the same;
* the conditioned model's `scores` on a fixed set of 10^5 rows, and one
  digest of `roc_curve`'s fpr, tpr and thresholds on those scores;
* the `scores` of an untrained additive model on the same rows at one
  conditioning row: its weights are a seeded init with non-zero FiLM
  output weights and biases drawn from a second seed, so this line moves
  only when scoring does, not when training does.

It imports vslct from this checkout's src/ and needs nothing beyond it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vslct.analysis import load_rows  # noqa: E402
from vslct.cli import main as vslct_main  # noqa: E402
from vslct.config import load_json, summary_rows_from_json  # noqa: E402
from vslct.data import load_csv  # noqa: E402
from vslct.metrics import roc_curve  # noqa: E402
from vslct.network import MlpFilmModel, ModelConfig, load_checkpoint  # noqa: E402
from vslct.training import evaluate  # noqa: E402

EPOCHS = 3
TRAIN = {"epochs": EPOCHS, "batch_size": 128, "lr": 0.1, "seed": 0}
CHECKPOINTS = {
    "baseline.json": {"mode": "baseline", "hyper": {"omega": 0.9, "gamma": 0.2, "tau": 1.0}, "train": TRAIN},
    "lct-affine.json": {
        "mode": "lct",
        "lct": {
            "base": {"omega": 0.5, "gamma": 0.0, "tau": 0.0},
            "conditioned": {"omega": {"a": 0.0, "b": 1.0, "h_b": 1.0}, "tau": {"a": 0.0, "b": 3.0, "h_b": 0.0}},
        },
        "train": TRAIN,
        "model": {"film_affine": True},
        "eval_lambda": 0.5,
    },
}


def run(*argv) -> None:
    """`vslct` with argv, its output kept back unless it fails."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = vslct_main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"vslct {' '.join(map(str, argv))} exited {code}:\n{captured.getvalue()}")


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_row(row) -> str:
    """Digest of a decoded sweep row's numbers; scores and labels have equal lengths, so their bytes cannot run together."""
    digest = hashlib.sha256(f"{row.run_id}\0{row.kind}\0{row.seed}\0{float(row.auc).hex()}\0".encode())
    digest.update(row.scores.tobytes())
    digest.update(row.labels.tobytes())
    return digest.hexdigest()


def sha256_checkpoint(path) -> str:
    """Digest of a loaded checkpoint: its config and meta as sorted JSON, then its parameter bytes."""
    model, meta = load_checkpoint(path)
    digest = hashlib.sha256(json.dumps({"config": asdict(model.config), "meta": meta}, sort_keys=True).encode())
    digest.update(model.flat.tobytes())
    return digest.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="same-numbers-") as tmp:

        def at(*parts) -> str:
            return os.path.join(tmp, *parts)

        run("gen-data", "--out", at("train.csv"), "--n0", 2000, "--n1", 20, "--dim", 2, "--sep", 2.5, "--seed", 101)
        run("gen-data", "--out", at("test.csv"), "--n0", 500, "--n1", 500, "--dim", 2, "--sep", 2.5, "--seed", 202)
        with open(os.path.join(ROOT, "configs", "directional.json"), encoding="utf-8") as fh:
            sweep = json.load(fh)["sweep"]
        sweep["train"]["epochs"] = EPOCHS
        with open(at("sweep.json"), "w", encoding="utf-8") as fh:
            json.dump(sweep, fh)
        run("sweep", "--config", at("sweep.json"), "--train-data", at("train.csv"), "--test-data", at("test.csv"), "--out-dir", at("out", "runs"))
        run("roc", "--rows-dir", at("out", "runs"), "--out", at("out", "roc.csv"))
        run("analyze", "--summary", at("out", "runs", "summary.json"), "--out", at("out", "report.json"))
        summary = at("out", "runs", "summary.json")
        run_ids = [row["run_id"] for row in summary_rows_from_json(load_json(summary), summary)]
        lines = [f"{sha256_row(row)}  row {row.run_id}" for row in load_rows(at("out", "runs"), run_ids)]
        lines += [f"{sha256_file(at('out', name))}  {name}" for name in (os.path.join("runs", "summary.json"), "roc.csv", "report.json")]
        listing = "".join(f"{line}\n" for line in lines)
        print(listing, end="")
        print(f"{hashlib.sha256(listing.encode()).hexdigest()}  ({len(lines)} lines above)")

        for name, config in CHECKPOINTS.items():
            with open(at(name), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            run("train", "--config", at(name), "--data", at("train.csv"), "--out", at("model-" + name))
            print(f"{sha256_checkpoint(at('model-' + name))}  checkpoint of {name}")

        run("gen-data", "--out", at("large.csv"), "--n0", 50_000, "--n1", 50_000, "--dim", 2, "--sep", 2.5, "--seed", 303)
        model, _ = load_checkpoint(at("model-lct-affine.json"))
        scored = evaluate(model, load_csv(at("large.csv")), [0.5, 0.5])
        print(f"{hashlib.sha256(scored.scores.tobytes()).hexdigest()}  scores of lct-affine.json on {len(scored.scores)} rows")
        curve = roc_curve(scored)
        # the three arrays have one length, so their bytes cannot run together
        digest = hashlib.sha256(curve.fpr.tobytes())
        digest.update(curve.tpr.tobytes())
        digest.update(curve.thresholds.tobytes())
        print(f"{digest.hexdigest()}  roc_curve of those scores: fpr, tpr and thresholds ({curve.fpr.size} points)")

        untrained = MlpFilmModel.init(ModelConfig(input_dim=2, film_zero_init=False), np.random.default_rng(404))
        biases = np.random.default_rng(505)
        for key in ("trunk0_b", "trunk1_b", "film0_b", "film1_b", "head_b"):
            untrained.params[key][:] = biases.normal(scale=0.5, size=untrained.params[key].shape)
        scored = evaluate(untrained, load_csv(at("large.csv")), [1.5])
        print(f"{hashlib.sha256(scored.scores.tobytes()).hexdigest()}  scores of an untrained additive model on {len(scored.scores)} rows")


if __name__ == "__main__":
    main()
