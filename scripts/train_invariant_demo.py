#!/usr/bin/env python3
"""Train a one-layer graded model on the invariant-style proxy task.

Inputs carry the grading 2,4,6,10 (the degrees of a classical generator
set for genus-2 invariants); targets are a fixed positive linear form in
those inputs, so a single identity layer can interpolate and the run shows
the grade-scaled rates converging.  Writes metrics.jsonl and model.json
under --out-dir.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from gradednn.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grading", default="2,4,6,10")
    parser.add_argument("--count", type=int, default=256)
    parser.add_argument("--iters", type=int, default=400)
    parser.add_argument("--learning-rate", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="invariant_run")
    args = parser.parse_args(argv)

    doc = {
        "grading": args.grading,
        "model": {
            "type": "feedforward",
            "layers": [{"grading": "1", "activation": "identity"}],
        },
        "loss": "graded_mse",
        "optimizer": {
            "learning_rate": args.learning_rate,
            "max_iters": args.iters,
        },
        "dataset": {"source": "invariant_proxy", "count": args.count},
        "out_dir": str(Path(args.out_dir).resolve()),
        "seed": args.seed,
    }
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        cfg_path = fh.name
    try:
        return cli_main(["train", "--config", cfg_path])
    finally:
        os.remove(cfg_path)


if __name__ == "__main__":
    sys.exit(main())
