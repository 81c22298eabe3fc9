"""Scaled-down CLI walkthrough: run every artifact-writing command, print each artifact's sha256.

Usage: python3 tools/walkthrough.py <out-dir>

The README walkthrough at a small config (d_model 16, 150 steps per
training run), in one process through ``plugner.cli.main``. Every command
has fixed flags and seeds, so the printed ``sha256  file`` lines are the
byte-identity gate for a change that must not move an artifact: run it at
two commits (or twice at one) and compare the lists.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plugner.cli import main  # noqa: E402

CONFIG = """\
d_model = 16
n_heads = 2
enc_layers = 1
dec_layers = 1
ffn_dim = 32
max_len = 48
prompt_len = 4
total_steps = 150
"""

ARTIFACTS = ("src.ckpt", "tgt.prompt", "tgt2.prompt", "mixed.prompt", "preds.jsonl", "mixed_preds.jsonl",
             "pretrain.json", "tune.json", "eval.json", "results.csv")


def commands(cfg: str) -> list[list[str]]:
    return [
        ["gen-synth", "--domain", "source", "--n", "40", "--seed", "11", "--out", "src_train.bio"],
        ["gen-synth", "--domain", "source", "--n", "15", "--seed", "12", "--out", "src_dev.bio"],
        ["gen-synth", "--domain", "target", "--n", "60", "--seed", "13", "--out", "tgt_pool.bio"],
        ["gen-synth", "--domain", "target", "--n", "20", "--seed", "14", "--out", "tgt_test.bio"],
        ["pretrain", "--train", "src_train.bio", "--dev", "src_dev.bio", "--vocab-extra", "tgt_pool.bio",
         "--config", cfg, "--seed", "1", "--out", "src.ckpt", "--metrics", "pretrain.json"],
        ["sample", "--input", "tgt_pool.bio", "--k", "3", "--seed", "1", "--out", "fewshot.bio"],
        ["tune", "--checkpoint", "src.ckpt", "--train", "fewshot.bio", "--dev", "tgt_test.bio", "--config", cfg,
         "--seed", "1", "--out-prompt", "tgt.prompt", "--metrics", "tune.json", "--csv", "results.csv",
         "--k-shot", "3", "--source", "source"],
        ["tune", "--checkpoint", "src.ckpt", "--train", "fewshot.bio", "--config", cfg, "--seed", "2",
         "--fresh-guidance", "--out-prompt", "tgt2.prompt"],
        ["decode", "--checkpoint", "src.ckpt", "--prompt", "tgt.prompt", "--config", cfg,
         "--input", "tgt_test.bio", "--out", "preds.jsonl"],
        ["eval", "--gold", "tgt_test.bio", "--pred", "preds.jsonl", "--out", "eval.json", "--csv", "results.csv",
         "--k-shot", "3", "--source", "source"],
        ["mix-prompts", "tgt.prompt", "tgt2.prompt", "--out", "mixed.prompt"],
        ["decode", "--checkpoint", "src.ckpt", "--prompt", "mixed.prompt", "--config", cfg,
         "--input", "tgt_test.bio", "--out", "mixed_preds.jsonl"],
    ]


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    Path("walk.cfg").write_text(CONFIG)
    Path("results.csv").unlink(missing_ok=True)  # tune and eval append to it
    for argv in commands("walk.cfg"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            print(f"walkthrough: 'plugner {' '.join(argv)}' exited {code}", file=sys.stderr)
            return code
    for name in ARTIFACTS:
        print(f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.splitlines()[2])
    sys.exit(run(Path(sys.argv[1])))
