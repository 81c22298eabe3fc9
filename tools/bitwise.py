"""Combined sha256 over losses, gradients, greedy decodes and a short pretrain: the bitwise gate.

Usage: python3 tools/bitwise.py

Builds the README's desk config (d_model 64, 4 heads, 2+2 layers, ffn 128,
prompt_len 16) on the built-in domains' vocabulary and redraws every
parameter from a fixed seed: matrices and biases at scale 0.3, layer-norm
gains near 1. At that generic point the attention is far from uniform, so
a change in summation order shows up in the last bits. One sha256 then
covers, in order:

* every teacher-forced loss over 40 source sentences, and the gradient of
  every parameter the mode trains, in ``full`` mode (every parameter) and
  in ``guidance_only`` mode (guidance and verbalizer weights only, so that
  a backward pass that skips frozen parameters hashes the same);
* 20 greedy decodes (index sequences and truncation flags);
* every parameter after a 15-step full-mode pretrain on those sentences.

It prints one ``<sha256>  bitwise`` line. Run it at two commits (or under
two BLAS thread counts) and compare: a change that claims the same bits
must print the same line.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plugner.backbone import Backbone, ModelConfig  # noqa: E402
from plugner.data import BUILTIN_DOMAINS, synthetic_corpus, vocab_for_domains  # noqa: E402
from plugner.head import NerModel, Verbalizer, greedy_decode  # noqa: E402
from plugner.tensor import record  # noqa: E402
from plugner.training import (  # noqa: E402
    TRAINING_MODES,
    OptimizerConfig,
    gold_indices,
    partition_parameters,
    pretrain_backbone,
    sequence_loss,
)

DESK = dict(d_model=64, n_heads=4, enc_layers=2, dec_layers=2, ffn_dim=128, max_len=48, prompt_len=16)
SEED = 20211
WEIGHT_SCALE, GAIN_SCALE = 0.3, 0.1
N_SENTENCES, N_DECODES, PRETRAIN_STEPS = 40, 20, 15


def generic_model() -> NerModel:
    vocab = vocab_for_domains(BUILTIN_DOMAINS.values())
    backbone = Backbone(ModelConfig(vocab_size=len(vocab), **DESK), seed=SEED)
    source = BUILTIN_DOMAINS["source"]
    model = NerModel(backbone, vocab, Verbalizer(source.label_set, vocab, backbone.param("embed.tokens")))
    rng = np.random.default_rng(SEED)
    for p in model.parameters():
        data = p.value.data
        if p.name.endswith(".gain"):
            data[...] = 1.0 + rng.normal(0.0, GAIN_SCALE, size=data.shape)
        else:
            data[...] = rng.normal(0.0, WEIGHT_SCALE, size=data.shape)
    return model


def combined_sha() -> str:
    digest = hashlib.sha256()
    model = generic_model()
    corpus = synthetic_corpus(BUILTIN_DOMAINS["source"], N_SENTENCES, seed=SEED)
    examples = [gold_indices(model, s) for s in corpus.sentences]
    for mode in TRAINING_MODES:
        trainable, _ = partition_parameters(model, mode)
        for token_ids, gold in examples:
            for p in model.parameters():
                p.value.grad = None
            with record() as tape:
                loss = sequence_loss(model, token_ids, gold)
            tape.backward(loss)
            digest.update(loss.data.tobytes())
            for p in trainable:
                digest.update(p.name.encode())
                digest.update(b"none" if p.value.grad is None else p.value.grad.tobytes())
    for token_ids, _ in examples[:N_DECODES]:
        result = greedy_decode(model, token_ids)
        digest.update(np.asarray(result.indices, dtype=np.int64).tobytes() + bytes([result.truncated]))
    pretrain_backbone(model, corpus, None, OptimizerConfig(total_steps=PRETRAIN_STEPS), seed=SEED)
    for p in model.parameters():
        digest.update(p.name.encode())
        digest.update(p.value.data.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__.splitlines()[2])
    print(f"{combined_sha()}  bitwise")
