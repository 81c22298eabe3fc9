"""The workloads: inputs made from the seed, the set-up, the timed part, the checks.

Every amount of work is a constant here, never "as much as fits in the run":
the same seed gives the same inputs, the same work and the same check verdicts.
All models use the desk config of the README.
"""
from __future__ import annotations

import contextlib
import importlib
import resource
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

backbone = importlib.import_module("plugner.backbone")
data = importlib.import_module("plugner.data")
errors = importlib.import_module("plugner.errors")
evaluate = importlib.import_module("plugner.evaluate")
head = importlib.import_module("plugner.head")
persist = importlib.import_module("plugner.persist")
training = importlib.import_module("plugner.training")

DESK = dict(d_model=64, n_heads=4, enc_layers=2, dec_layers=2, ffn_dim=128, max_len=48, prompt_len=16)
BATCH = 8
PRETRAIN_LR = 3e-3  # README pretrain recipe (desk.cfg leaves peak_lr at the pretrain default)
TUNE_LR = 0.05  # README tune.cfg
TRAIN_SENTENCES = 200  # README: source train and target pool
K_SHOT = 20
# Fixed budgets. The README's pretrain stops early at dev F1 0.98, which takes
# a seed-dependent number of steps; a fixed budget keeps set-up work the same
# for every seed. 120 steps reach source dev F1 near 0.99 already.
SETUP_PRETRAIN_STEPS = 120
TUNE_STEPS = 200
SOURCE_CHECK_SENTENCES = 200
# 1000 samples leave ten beyond the 99th percentile.
DECODE_SENTENCES = 1000
# The tuned model of tune-fewshot is the README's (corpus seeds 11 and 13,
# seed 1 everywhere else) in every run. A model tuned this briefly is half
# trained, and how often it fails to emit eos varies from seed to seed: with
# seed-dependent models the decode p99 ranged from 15 to 60 ms over ten seeds.
# With the model fixed, --seed picks the target test sentences it decodes.
README_SEED = 1

# Floors sit well below the F1 spread measured over ten seeds (README).
SOURCE_F1_FLOOR = 0.9
TARGET_F1_FLOOR = 0.25
DENSE_F1_FLOOR = 0.9

# Benchmark-local domain: about 12.5 tokens and 5.3 entities (17 emitted
# indices) per sentence. No sentence is longer than 15 tokens, so the default
# greedy budget 3n + 1 stays below max_len 48.
DENSE_DOMAIN = data.DomainSpec(
    name="dense",
    categories={
        "city": ("oslo", "lima", "quito", "hanoi", "perth", "new york", "san jose"),
        "metal": ("iron", "zinc", "tin", "cobalt", "nickel", "copper"),
        "bird": ("wren", "finch", "robin", "swift", "egret", "stork"),
        "weekday": ("monday", "tuesday", "friday", "sunday", "thursday"),
        "number": ("seven", "nine", "twelve", "forty", "eighty"),
    },
    templates=(
        "on {weekday} a {bird} flew from {city} to {city} with {number} {metal} bars",
        "{number} {bird} crates left {city} on {weekday} packed in {metal} foil",
        "the {metal} ship from {city} met a {bird} near {city} on {weekday}",
        "by {weekday} {number} tons of {metal} reached {city} and then {city}",
        "a {bird} and a {bird} sat on {metal} wire in {city} since {weekday}",
        "{city} sold {number} {metal} bells to {city} last {weekday} for a {bird}",
    ),
)


def corpus_seed(seed: int, role: int) -> int:
    """Seed 0 gives the README's corpus seeds (11 to 14)."""
    return 100 * seed + role


def fresh_model(vocab, label_set, seed: int):
    config = backbone.ModelConfig(vocab_size=len(vocab), **DESK)
    bb = backbone.Backbone(config, seed=seed)
    return head.NerModel(bb, vocab, head.Verbalizer(label_set, vocab, bb.param("embed.tokens")))


def full_training(model, train, steps: int, seed: int):
    """Full-mode pretraining for a fixed number of steps, no dev evaluation."""
    config = training.OptimizerConfig(peak_lr=PRETRAIN_LR, total_steps=steps, batch_size=BATCH)
    return training.pretrain_backbone(model, train, None, config, seed=seed, f1_target=None)


class Untraced:
    """Stands in for the tracer in untraced runs: phases are not recorded."""

    def __init__(self) -> None:
        self.units = {"setup": 0, "train": 0, "decode": 0}

    def in_phase(self, name: str):
        return contextlib.nullcontext()


class Run:
    """One workload run: timings, counts, check verdicts and input make-up."""

    def __init__(self, tracer, process_age, scratch: Path) -> None:
        self.tracer = tracer
        self.process_age = process_age
        self.scratch = scratch
        self.metrics: dict[str, float] = {}
        self.checks: list[dict] = []
        self.makeup: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def phase(self, name: str):
        return self.tracer.in_phase(name)

    def setup_done(self) -> None:
        self.metrics["setup_s"] = self.process_age()

    def train(self, fn, steps: int):
        """Time ``fn``, which runs exactly ``steps`` optimizer steps."""
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0
        if result.steps != steps:
            raise RuntimeError(f"training ran {result.steps} steps, expected {steps}")
        self.metrics["train_steps_per_s"] = steps / elapsed
        self.tracer.units["train"] += steps
        return result

    def decode(self, model, corpus):
        """Greedy-decode and score every sentence; returns the F1 report and emitted indices."""
        predictions, outputs, latencies = [], [], []
        t0 = perf_counter()
        for sent in corpus.sentences:
            t1 = perf_counter()
            try:
                result = head.greedy_decode(model, model.vocab.encode(sent.tokens))
                parse = head.spans_from_indices(result.indices, len(sent.tokens), model.verbalizer.categories)
            except errors.PlugnerError:
                self.failed += 1
                predictions.append([])
                outputs.append(None)
                continue
            latencies.append(perf_counter() - t1)
            predictions.append(parse.spans)
            outputs.append(result.indices)
        report = evaluate.evaluate(corpus, predictions)
        elapsed = perf_counter() - t0
        self.attempted += len(corpus)
        self.tracer.units["decode"] += len(corpus)
        self.metrics["decode_sentences_per_s"] = len(corpus) / elapsed
        self.metrics["decode_sentence_ms_p50"] = 1000 * float(np.quantile(latencies, 0.50))
        self.metrics["decode_sentence_ms_p99"] = 1000 * float(np.quantile(latencies, 0.99))
        self.makeup["latency_samples"] = len(latencies)
        self.makeup["latency_samples_beyond_p99"] = int(
            sum(1 for x in latencies if 1000 * x > self.metrics["decode_sentence_ms_p99"])
        )
        self.makeup["emitted_indices_per_sentence"] = statistics.fmean(
            len(out) for out in outputs if out is not None
        )
        return report, outputs

    def peak_memory(self) -> None:
        """Peak resident memory of this process so far; called when the timed part ends."""
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def describe(self, name: str, corpus) -> None:
        self.makeup[f"{name}_sentences"] = len(corpus)
        self.makeup[f"{name}_tokens_per_sentence"] = statistics.fmean(len(s.tokens) for s in corpus)
        self.makeup[f"{name}_entities_per_sentence"] = statistics.fmean(len(s.spans) for s in corpus)

    def scalars(self, model) -> None:
        """Trainable against total scalars, as the last training left the flags."""
        params = model.parameters()
        self.makeup["trainable_scalars"] = sum(p.numel() for p in params if p.trainable)
        self.makeup["total_scalars"] = sum(p.numel() for p in params)


def tune_fewshot(run: Run, seed: int) -> None:
    with run.phase("setup"), tempfile.TemporaryDirectory(dir=run.scratch) as tmp:
        src_train = data.synthetic_corpus(data.SOURCE_DOMAIN, TRAIN_SENTENCES, corpus_seed(0, 11))
        pool = data.synthetic_corpus(data.TARGET_DOMAIN, TRAIN_SENTENCES, corpus_seed(0, 13))
        test = data.synthetic_corpus(data.TARGET_DOMAIN, DECODE_SENTENCES, corpus_seed(seed, 14))
        src_held_out = data.synthetic_corpus(data.SOURCE_DOMAIN, SOURCE_CHECK_SENTENCES, corpus_seed(seed, 12))
        vocab = data.vocab_for_domains([data.SOURCE_DOMAIN, data.TARGET_DOMAIN])
        source = fresh_model(vocab, data.SOURCE_DOMAIN.label_set, README_SEED)
        full_training(source, src_train, SETUP_PRETRAIN_STEPS, README_SEED)
        path = Path(tmp) / "source.ckpt"
        persist.save_checkpoint(path, source, seed=README_SEED, trained_steps=SETUP_PRETRAIN_STEPS)
        model, _ = persist.load_checkpoint(path)
        sample = data.few_shot_sample(pool, data.SamplerConfig(k=K_SHOT, seed=README_SEED))
        run.tracer.model = model
    run.setup_done()
    run.checks.append(checks.f1_floor("source_f1", training.corpus_f1(model, src_held_out), SOURCE_F1_FLOOR))
    # tune_guidance installs exactly this verbalizer (zero raw weights) again
    model.replace_verbalizer(sample.corpus.label_set, policy="learned")
    probe = sample.corpus.sentences[0]
    tuned = {p.name for p in model.parameters() if p.name.startswith(("guidance.", "verbalizer."))}
    run.checks.append(checks.gradient_check(model, probe, tuned, seed, "before_tuning"))
    frozen_before = checks.section_hash(model, frozen=True)
    guidance_before = checks.section_hash(model, frozen=False)
    config = training.OptimizerConfig(peak_lr=TUNE_LR, total_steps=TUNE_STEPS, batch_size=BATCH)
    with run.phase("train"):
        run.train(lambda: training.tune_guidance(model, sample.corpus, None, config, seed=README_SEED), TUNE_STEPS)
    run.attempted += TUNE_STEPS
    with run.phase("decode"):
        report, outputs = run.decode(model, test)
    run.peak_memory()
    tuned = {p.name for p in model.parameters() if p.name.startswith(("guidance.", "verbalizer."))}
    finish(run, model, test, outputs, [
        checks.check("frozen_backbone", checks.section_hash(model, frozen=True) == frozen_before,
                     "hash of every non-guidance, non-verbalizer array before and after tuning"),
        checks.check("guidance_moved", checks.section_hash(model, frozen=False) != guidance_before,
                     "hash of the guidance arrays before and after tuning"),
        checks.beta_check(model.verbalizer),
        checks.gradient_check(model, probe, tuned, seed, "after_tuning"),
        checks.f1_floor("target_f1", report.f1, TARGET_F1_FLOOR),
    ], sample.corpus)


def decode_dense(run: Run, seed: int) -> None:
    with run.phase("setup"):
        train = data.synthetic_corpus(DENSE_DOMAIN, TRAIN_SENTENCES, corpus_seed(seed, 21))
        test = data.synthetic_corpus(DENSE_DOMAIN, DECODE_SENTENCES, corpus_seed(seed, 22))
        vocab = data.vocab_for_domains([DENSE_DOMAIN])
        model = fresh_model(vocab, DENSE_DOMAIN.label_set, seed)
        run.tracer.model = model
        run.train(lambda: full_training(model, train, SETUP_PRETRAIN_STEPS, seed), SETUP_PRETRAIN_STEPS)
    run.setup_done()
    with run.phase("decode"):
        report, outputs = run.decode(model, test)
    run.peak_memory()
    probe = next(s for s in train.sentences if s.spans)
    every = {p.name for p in model.parameters()}
    # a backbone built again from the same seed is bitwise the untrained one
    untrained = fresh_model(vocab, DENSE_DOMAIN.label_set, seed)
    finish(run, model, test, outputs, [
        checks.gradient_check(untrained, probe, every, seed, "before_training"),
        checks.gradient_check(model, probe, every, seed, "after_training"),
        checks.f1_floor("dense_f1", report.f1, DENSE_F1_FLOOR),
    ], train)


def finish(run: Run, model, decoded, outputs, verdicts: list[dict], trained) -> None:
    run.checks.extend(verdicts)
    run.checks.extend(checks.decode_rederivation(model, decoded.sentences, outputs))
    run.describe("trained", trained)
    run.describe("decoded", decoded)
    run.scalars(model)


WORKLOADS = {
    "tune-fewshot": (tune_fewshot, "train"),
    "decode-dense": (decode_dense, "decode"),
}
