"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Runtime
failures print exactly one ``CODE: detail`` line to stderr so scripts
can branch without scraping prose. Every command takes ``--seed`` and
``--config``; config files are ``key=value`` lines with ``#`` comments.
"""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .backbone import MODEL_KEYS, Backbone, ModelConfig
from .data import (
    BUILTIN_DOMAINS,
    Corpus,
    SamplerConfig,
    Vocab,
    few_shot_sample,
    parse_domain_spec,
    read_column_file,
    read_text,
    synthetic_corpus,
    write_column_file,
)
from .errors import FormatError, PlugnerError, UsageError
from .evaluate import append_csv_row, config_digest, evaluate, read_predictions, write_predictions
from .head import NerModel, Verbalizer
from .persist import (
    apply_prompt,
    check_config_compatible,
    load_checkpoint,
    load_prompt,
    mix_prompts,
    prompt_from_model,
    save_checkpoint,
    save_prompt,
)
from .tensor import FD_STEP_RANGE
from .training import (
    OptimizerConfig,
    decode_corpus,
    eval_cadence,
    guidance_gradcheck,
    param_ratio,
    pretrain_backbone,
    steps_for_epochs,
    tune_guidance,
)

TRAIN_KEYS: dict[str, type] = {
    "peak_lr": float,
    "epochs": int,
    "total_steps": int,
    "batch_size": int,
    "weight_decay": float,
    "clip_norm": float,
    "warmup_fraction": float,
    "eval_every": int,
    "f1_target": float,
}
_KEY_TYPES = {**MODEL_KEYS, **TRAIN_KEYS}
_OPTIMIZER_KEYS = ("peak_lr", "batch_size", "weight_decay", "clip_norm", "warmup_fraction")


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blank lines are fine."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path, UsageError).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value: str):
    try:
        return _KEY_TYPES[key](value)
    except ValueError:
        raise UsageError(f"config key {key}={value!r} is not a valid number") from None


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return {k: _coerce(k, v) for k, v in read_config_file(path).items()}


@contextmanager
def _invalid_is_usage_error(path: str | None):
    """Config objects validate their own fields; a value they reject is a usage error naming the file."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def model_config_from(cfg: dict, path: str | None, base: dict) -> ModelConfig:
    """The file's model keys laid over ``base``: a stored config's dict, or just its vocab_size."""
    with _invalid_is_usage_error(path):
        return ModelConfig.from_dict({**base, **{k: v for k, v in cfg.items() if k in MODEL_KEYS}})


def optimizer_config_from(
    cfg: dict, path: str | None, n_sentences: int, default_epochs: int, default_lr: float
) -> OptimizerConfig:
    """The file's optimizer keys, each missing one at OptimizerConfig's default; eval_every is checked too."""
    with _invalid_is_usage_error(path):
        config = OptimizerConfig(**{"peak_lr": default_lr, **{k: cfg[k] for k in _OPTIMIZER_KEYS if k in cfg}})
        eval_cadence(cfg.get("eval_every"), n_sentences, config.batch_size)
        epochs = cfg.get("epochs", default_epochs)
        steps = cfg.get("total_steps") or steps_for_epochs(n_sentences, epochs, config.batch_size)
        return replace(config, total_steps=steps)


def _load_checked_checkpoint(args, cfg: dict) -> tuple[NerModel, dict]:
    """Load --checkpoint and refuse a --config whose model keys disagree with it."""
    model, meta = load_checkpoint(args.checkpoint)
    stored = model.config
    check_config_compatible(
        stored, model_config_from(cfg, args.config, stored.to_dict()),
        context=f"{args.config}: checkpoint {args.checkpoint}",
    )
    return model, meta


# ---------------------------------------------------------------------------
# commands


def cmd_gen_synth(args, cfg: dict) -> int:
    if bool(args.domain) == bool(args.spec):
        raise UsageError("gen-synth needs exactly one of --domain or --spec")
    if args.domain:
        spec = BUILTIN_DOMAINS.get(args.domain)
        if spec is None:
            raise UsageError(f"unknown built-in domain {args.domain!r}; have {sorted(BUILTIN_DOMAINS)}")
    else:
        spec = parse_domain_spec(args.spec)
    corpus = synthetic_corpus(spec, args.n, args.seed)
    write_column_file(args.out, corpus)
    print(f"wrote {len(corpus)} sentences ({', '.join(spec.label_set)}) to {args.out}")
    return 0


def _load_corpus(path: str, what: str) -> Corpus:
    corpus = read_column_file(path)
    if corpus.repair_count:
        print(f"note: repaired {corpus.repair_count} dangling continuation tags in {what}")
    return corpus


def _load_training_corpus(path: str, what: str) -> Corpus:
    """A corpus the verbalizer is built from: it must name at least one category."""
    corpus = _load_corpus(path, what)
    if not corpus.label_set:
        raise FormatError(f"{path}: {what} names no entity category; the verbalizer needs at least one")
    return corpus


def cmd_pretrain(args, cfg: dict) -> int:
    train = _load_training_corpus(args.train, "the training corpus")
    dev = _load_corpus(args.dev, "the dev corpus") if args.dev else None
    extras = [_load_corpus(p, p) for p in args.vocab_extra]
    token_sources = [s.tokens for c in [train, *([dev] if dev else []), *extras] for s in c.sentences]
    label_sets = [c.label_set for c in [train, *extras]]
    vocab = Vocab.build(token_sources, label_sets)

    config = model_config_from(cfg, args.config, {"vocab_size": len(vocab)})
    backbone = Backbone(config, seed=args.seed)
    model = NerModel(backbone, vocab, Verbalizer(train.label_set, vocab, backbone.param("embed.tokens")))
    opt_cfg = optimizer_config_from(cfg, args.config, len(train), default_epochs=200, default_lr=3e-3)
    result = pretrain_backbone(
        model, train, dev, opt_cfg,
        seed=args.seed,
        eval_every=cfg.get("eval_every"),
        f1_target=cfg.get("f1_target", 0.95),
    )
    save_checkpoint(args.out, model, seed=args.seed, trained_steps=result.steps)
    dev_note = f"dev F1 {result.final_f1:.4f}" if dev is not None else "no dev set"
    print(f"pretrained {result.steps} steps; {dev_note}; checkpoint at {args.out}")
    if args.metrics and dev is not None:
        predictions, malformed = decode_corpus(model, dev)
        report = evaluate(dev, predictions, malformed_outputs=sum(malformed),
                          seed=args.seed, config_digest=config_digest(config.to_dict()))
        report.write_json(args.metrics)
    return 0


def cmd_tune(args, cfg: dict) -> int:
    model, meta = _load_checked_checkpoint(args, cfg)
    train = _load_training_corpus(args.train, "the tuning corpus")
    dev = _load_corpus(args.dev, "the dev corpus") if args.dev else None
    opt_cfg = optimizer_config_from(cfg, args.config, len(train), default_epochs=300, default_lr=1e-2)
    result = tune_guidance(
        model, train, dev, opt_cfg,
        seed=args.seed,
        warm_start=not args.fresh_guidance,
        eval_every=cfg.get("eval_every"),
        f1_target=cfg.get("f1_target", 0.98),
    )
    save_prompt(args.out_prompt, prompt_from_model(model))
    dev_note = f"dev F1 {result.final_f1:.4f}" if dev is not None else "no dev set"
    print(f"tuned {result.steps} steps; {dev_note}; prompt at {args.out_prompt}")
    if dev is not None and (args.metrics or args.csv):
        predictions, malformed = decode_corpus(model, dev)
        report = evaluate(dev, predictions, malformed_outputs=sum(malformed),
                          seed=args.seed, config_digest=config_digest(model.config.to_dict()))
        if args.metrics:
            report.write_json(args.metrics)
        if args.csv:
            append_csv_row(args.csv, report, seed=args.seed, k_shot=args.k_shot,
                           source=args.source or meta.get("seed", ""), target=args.target or train.name)
    return 0


def cmd_decode(args, cfg: dict) -> int:
    model, _ = _load_checked_checkpoint(args, cfg)
    if args.prompt:
        apply_prompt(model, load_prompt(args.prompt))
    corpus = _load_corpus(args.input, "the input corpus")
    predictions, malformed = decode_corpus(model, corpus)
    write_predictions(args.out, corpus.sentences, predictions, malformed)
    print(f"decoded {len(corpus)} sentences to {args.out} ({sum(malformed)} malformed fragments skipped)")
    overlong = sum(len(s.tokens) > model.config.max_len for s in corpus.sentences)
    if overlong:
        print(f"warning: {overlong} sentences longer than max_len {model.config.max_len} were left unlabelled")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    gold = _load_corpus(args.gold, "the gold corpus")
    predictions, malformed = read_predictions(args.pred)
    report = evaluate(gold, predictions, malformed_outputs=malformed, seed=args.seed)
    report.write_json(args.out)
    if args.csv:
        append_csv_row(args.csv, report, seed=args.seed, k_shot=args.k_shot,
                       source=args.source, target=args.target or gold.name)
    print(f"P {report.precision:.4f} / R {report.recall:.4f} / F1 {report.f1:.4f} "
          f"({report.tp} tp, {report.fp} fp, {report.fn} fn); report at {args.out}")
    return 0


def cmd_sample(args, cfg: dict) -> int:
    corpus = _load_corpus(args.input, "the corpus")
    result = few_shot_sample(corpus, SamplerConfig(k=args.k, seed=args.seed))
    write_column_file(args.out, result.corpus)
    counts = ", ".join(f"{t}={c}" for t, c in sorted(result.counts.items()))
    print(f"kept {len(result.corpus)} sentences ({counts}; {result.discarded} discarded) -> {args.out}")
    for tag, missing in sorted(result.shortfall.items()):
        print(f"warning: tag {tag!r} fell {missing} instances short of k={args.k}")
    return 0


def cmd_mix_prompts(args, cfg: dict) -> int:
    mixed = mix_prompts([load_prompt(p) for p in args.prompts])
    save_prompt(args.out, mixed)
    print(f"mixed {len(args.prompts)} prompts over categories {list(mixed.categories)} -> {args.out}")
    return 0


def cmd_gradcheck(args, cfg: dict) -> int:
    report = guidance_gradcheck(seed=args.seed, h=args.h, tol=args.tol)
    print(report.summary())
    for name in sorted(report.per_param):
        print(f"  {name}: max rel err {report.per_param[name]:.3e}")
    if not report.passed:
        print(f"GRADCHECK_FAILED: max rel err {report.max_rel_error:.3e} exceeds tol {report.tol:g}",
              file=sys.stderr)
        return 2
    return 0


def cmd_param_report(args, cfg: dict) -> int:
    if bool(args.checkpoint) == bool(args.config):
        raise UsageError("param-report needs exactly one of --checkpoint or --config")
    if args.checkpoint:
        model, _ = load_checkpoint(args.checkpoint)
    else:
        from .data import vocab_for_domains

        vocab = vocab_for_domains(BUILTIN_DOMAINS.values())
        config = model_config_from(cfg, args.config, {"vocab_size": len(vocab)})
        backbone = Backbone(config, seed=args.seed)
        model = NerModel(backbone, vocab,
                         Verbalizer(("color", "animal"), vocab, backbone.param("embed.tokens")))
    report = param_ratio(model, args.mode)
    for line in report.lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we reserve 2 for runtime
        raise UsageError(message)


def _in_range(convert, lo, hi=math.inf):
    """argparse type: ``convert`` the text, then refuse a value outside [lo, hi]."""
    def parse(text: str):
        value = convert(text)
        if not lo <= value <= hi:
            rule = f"be >= {lo:g}" if hi == math.inf else f"lie in [{lo:g}, {hi:g}]"
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_in_range(int, 0), default=1, help="random seed, >= 0 (default 1)")
    common.add_argument("--config", default=None, help="key=value config file")

    parser = _Parser(prog="plugner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-synth", parents=[common], help="generate a synthetic labelled corpus")
    p.add_argument("--domain", choices=sorted(BUILTIN_DOMAINS), help="built-in domain")
    p.add_argument("--spec", help="domain spec file (category: lexeme, ... / template: ... lines)")
    p.add_argument("--n", type=_in_range(int, 0), default=200, help="sentences to generate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("pretrain", parents=[common], help="train the full model on a source corpus")
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--vocab-extra", action="append", default=[],
                   help="extra BIO files whose tokens and label words join the vocabulary")
    p.add_argument("--metrics", help="write a dev metrics JSON here")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("tune", parents=[common], help="frozen-backbone adaptation to a target corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--out-prompt", required=True)
    p.add_argument("--fresh-guidance", action="store_true",
                   help="redraw guidance instead of warm-starting from the checkpoint")
    p.add_argument("--metrics")
    p.add_argument("--csv", help="append a result row to this CSV")
    p.add_argument("--k-shot", type=int, default=0)
    p.add_argument("--source", default="")
    p.add_argument("--target", default="")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("decode", parents=[common], help="greedy-decode a corpus to predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", help="prompt file to apply before decoding")
    p.add_argument("--input", required=True, help="BIO file (tags may be all O)")
    p.add_argument("--out", required=True, help="predictions JSONL")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", parents=[common], help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True, help="metrics JSON")
    p.add_argument("--csv")
    p.add_argument("--k-shot", type=int, default=0)
    p.add_argument("--source", default="")
    p.add_argument("--target", default="")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", parents=[common], help="draw a few-shot subset of a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=_in_range(int, 1), required=True, help="instances per entity tag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mix-prompts", parents=[common], help="average prompts into a zero-shot adapter")
    p.add_argument("--out", required=True)
    p.add_argument("prompts", nargs="+")
    p.set_defaults(func=cmd_mix_prompts)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference audit of the tuning loss on a tiny model")
    p.add_argument("--h", type=_in_range(float, *FD_STEP_RANGE), default=3e-5, help="central-difference step")
    p.add_argument("--tol", type=float, default=1e-5, help="max relative error allowed")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("param-report", parents=[common], help="trainable-parameter accounting")
    p.add_argument("--checkpoint")
    p.add_argument("--mode", choices=("full", "guidance_only"), default="guidance_only")
    p.set_defaults(func=cmd_param_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"USAGE: {exc} (run 'plugner --help' for the command list)", file=sys.stderr)
        return 1
    try:
        # a bad --config file is a usage error for every command, even the
        # ones that only consume a few of its keys
        return int(args.func(args, load_config(args.config)) or 0)
    except UsageError as exc:
        print(f"USAGE: {exc}", file=sys.stderr)
        return 1
    except PlugnerError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
