"""Training: loss, schedule, optimizer, the one batch loop, and the pretrain / tune phases.

Two modes exist. "full" trains everything and is used to pretrain the
backbone on a source domain. "guidance_only" freezes the backbone and
trains just the guidance matrices and the verbalizer's raw weights; this
is the low-resource transfer step, and the backbone bytes must come out
of it untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .backbone import Backbone, ModelConfig
from .data import Corpus, DomainSpec, spans_to_bio, synthetic_corpus, vocab_for_domains
from .errors import DivergedError, ShapeError
from .evaluate import evaluate
from .head import (
    IndexSpace,
    NerModel,
    Verbalizer,
    decoder_inputs,  # unused here, like step_scores; perfbench/tracer.py rebinds both names in this module
    feedback_rows,
    greedy_decode,
    indices_from_spans,
    score_keys,
    spans_from_indices,
    step_scores,
)
from .tensor import Parameter, Tensor, finite_diff_check, record

TRAINING_MODES = ("full", "guidance_only")


@dataclass(frozen=True)
class OptimizerConfig:
    peak_lr: float = 3e-3
    total_steps: int = 1000
    warmup_fraction: float = 0.10
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    batch_size: int = 8

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")
        if self.peak_lr <= 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must lie in (0, 1), got {self.warmup_fraction}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")


def warmup_steps(config: OptimizerConfig) -> int:
    return math.ceil(config.warmup_fraction * config.total_steps)


def lr_at_step(config: OptimizerConfig, step: int) -> float:
    """Piecewise-linear rate: 0 up to the peak at ceil(frac * T), back to 0 at T."""
    t, w = config.total_steps, warmup_steps(config)
    if step <= 0 or step > t:
        return 0.0
    if step <= w:
        return config.peak_lr * step / w
    return config.peak_lr * (t - step) / (t - w)


def decayable(p: Parameter) -> bool:
    """Weight decay applies to matrices only; biases and norm gains are 1-D."""
    return p.value.data.ndim >= 2


class AdamW:
    """Adaptive moments with decoupled weight decay and global-norm clipping.

    Only parameters whose ``trainable`` flag is set are ever touched; a
    missing gradient counts as zero. The learning rate follows
    ``lr_at_step`` on an internal 1-based step counter.
    """

    def __init__(self, params: Sequence[Parameter], config: OptimizerConfig) -> None:
        self.params = [p for p in params if p.trainable]
        self.config = config
        self._m = [np.zeros_like(p.value.data) for p in self.params]
        self._v = [np.zeros_like(p.value.data) for p in self.params]
        self.step_count = 0

    def step(self) -> float:
        """Apply one update; returns the learning rate that was used."""
        self.step_count += 1
        cfg = self.config
        lr = lr_at_step(cfg, self.step_count)
        grads = [np.zeros_like(p.value.data) if p.value.grad is None else p.value.grad for p in self.params]
        if cfg.clip_norm > 0:
            total = math.sqrt(sum(float((g * g).sum()) for g in grads))
            if total > cfg.clip_norm:
                factor = cfg.clip_norm / total
                grads = [g * factor for g in grads]
        b1, b2 = cfg.beta1, cfg.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            if cfg.weight_decay > 0 and decayable(p):
                update = update + lr * cfg.weight_decay * p.value.data
            p.value.data -= update
        return lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.value.grad = None


# ---------------------------------------------------------------------------
# parameter partitioning


def _split_parameters(model: NerModel, mode: str) -> tuple[list[Parameter], list[Parameter]]:
    """The model's parameters as (trainable, frozen) under a mode; no flag is touched.

    guidance_only keeps exactly the guidance matrices and the
    verbalizer's raw weights live; a uniform-policy verbalizer has
    nothing to learn, so its raws stay frozen too.
    """
    if mode not in TRAINING_MODES:
        raise ValueError(f"training mode must be one of {TRAINING_MODES}, got {mode!r}")
    live = ("guidance.", "verbalizer.") if model.verbalizer.policy == "learned" else ("guidance.",)
    trainable: list[Parameter] = []
    frozen: list[Parameter] = []
    for p in model.parameters():
        (trainable if mode == "full" or p.name.startswith(live) else frozen).append(p)
    return trainable, frozen


def partition_parameters(model: NerModel, mode: str) -> tuple[list[Parameter], list[Parameter]]:
    """Split the model's parameters into (trainable, frozen) and set each one's flag to match."""
    trainable, frozen = _split_parameters(model, mode)
    for live, group in ((True, trainable), (False, frozen)):
        for p in group:
            p.trainable = live
    return trainable, frozen


@dataclass
class ParamReport:
    mode: str
    trainable: int
    total: int
    guidance: int
    guidance_closed_form: int
    verbalizer: int
    fraction: Fraction

    @property
    def ratio(self) -> float:
        return float(self.fraction)

    def lines(self) -> list[str]:
        return [
            f"mode: {self.mode}",
            f"trainable parameters: {self.trainable}",
            f"total parameters: {self.total}",
            f"guidance parameters: {self.guidance} (closed form 2 stacks x layers x {{k,v}} x |P| x d = {self.guidance_closed_form})",
            f"verbalizer parameters: {self.verbalizer}",
            f"trainable fraction: {self.fraction} = {self.ratio:.6f} ({self.ratio:.2%})",
            "context: at the ~400M-parameter scale this scheme targets in production, the",
            "tuned slice is about 2.2% of the model; toy ratios here will differ and no",
            "particular percentage is asserted.",
        ]


def param_ratio(model: NerModel, mode: str) -> ParamReport:
    """Count trainable vs total parameters for a mode, as an exact fraction; no flag is changed."""
    trainable, frozen = _split_parameters(model, mode)
    n_train = sum(p.numel() for p in trainable)
    n_total = n_train + sum(p.numel() for p in frozen)
    guidance = sum(p.numel() for p in model.backbone.guidance.parameters())
    cfg = model.config
    guided = model.backbone.guidance.guided
    closed = 2 * (len(guided["encoder"]) + len(guided["decoder"])) * cfg.prompt_len * cfg.d_model
    verbalizer = sum(p.numel() for p in model.verbalizer.parameters())
    return ParamReport(
        mode=mode,
        trainable=n_train,
        total=n_total,
        guidance=guidance,
        guidance_closed_form=closed,
        verbalizer=verbalizer,
        fraction=Fraction(n_train, n_total),
    )


# ---------------------------------------------------------------------------
# loss


def nll(scores: Tensor, targets: Sequence[int]) -> Tensor:
    """Summed negative log-likelihood of column targets[i] under the softmax of row i of scores."""
    logp = T.log_softmax_rows(scores)
    onehot = np.zeros(logp.data.shape)
    onehot[np.arange(len(targets)), list(targets)] = 1.0
    return T.scale(T.reduce_sum(T.mul(logp, Tensor(onehot))), -1.0)


def sequence_loss(model: NerModel, token_ids: Sequence[int], gold: Sequence[int]) -> Tensor:
    """Teacher-forced negative log-likelihood of a gold index sequence.

    The decoder consumes the gold prefix and every step's distribution is
    scored against the next gold index, the terminator included. Returns
    the summed loss (divide by len(gold) for the per-step mean). Both
    tables are built once, as in greedy decoding; the score keys come after
    the decoder so that gradients sum into ``h_en`` in the same order.
    """
    if not gold:
        raise ValueError("gold index sequence is empty (expected at least the terminator)")
    space = IndexSpace(len(token_ids), len(model.verbalizer))
    space.check(gold[-1])  # the last index is only scored, never fed back
    rows = space.fed_back(gold[:-1])
    backbone, verbalizer = model.backbone, model.verbalizer
    h_en = backbone.encode(token_ids)
    e_seq = backbone.embed_tokens(token_ids)
    reps = verbalizer.rep_matrix()
    states = backbone.decode_states(h_en, T.gather_rows(feedback_rows(e_seq, verbalizer, reps), rows))
    keys = score_keys(h_en, e_seq, verbalizer, model.config.alpha, reps)
    return nll(T.matmul(states, T.transpose(keys)), gold)


def gold_indices(model: NerModel, sentence) -> tuple[list[int], list[int]]:
    """Token ids and gold index sequence for an annotated sentence."""
    token_ids = model.vocab.encode(sentence.tokens)
    gold = indices_from_spans(sentence.spans, len(sentence.tokens), model.verbalizer.categories)
    return token_ids, gold


# ---------------------------------------------------------------------------
# evaluation during training


def decode_corpus(model: NerModel, corpus: Corpus) -> tuple[list[list], list[int]]:
    """Greedy-decode every sentence; returns span lists and per-sentence malformed counts.

    A sentence longer than max_len cannot be encoded; it gets an empty
    prediction and the rest of the corpus is still decoded.
    """
    predictions = []
    malformed = []
    for sent in corpus.sentences:
        if len(sent.tokens) > model.config.max_len:
            predictions.append([])
            malformed.append(0)
            continue
        result = greedy_decode(model, model.vocab.encode(sent.tokens))
        parse = spans_from_indices(result.indices, len(sent.tokens), model.verbalizer.categories)
        predictions.append(parse.spans)
        malformed.append(parse.malformed)
    return predictions, malformed


def corpus_f1(model: NerModel, corpus: Corpus) -> float:
    predictions, _ = decode_corpus(model, corpus)
    return evaluate(corpus, predictions).f1


# ---------------------------------------------------------------------------
# the training loop


def optimizer_steps(
    optimizer: AdamW, examples: Sequence[tuple], loss_fn: Callable[..., Tensor], seed: int
) -> Iterator[float]:
    """Step the optimizer over batches shuffled from ``seed`` until its budget is spent.

    Each (inputs, targets) example's summed loss ``loss_fn(inputs, targets)`` is backpropagated on
    its own tape; gradients are averaged over the batch before each step, after which the batch's
    mean loss per target is yielded. A non-finite loss aborts, naming the last finite step.
    """
    if not examples:
        raise ValueError("training corpus is empty")
    batch_size, total_steps = optimizer.config.batch_size, optimizer.config.total_steps
    rng = np.random.default_rng(seed)
    while optimizer.step_count < total_steps:
        order = rng.permutation(len(examples))
        for lo in range(0, len(order), batch_size):
            batch = order[lo : lo + batch_size]
            optimizer.zero_grad()
            batch_loss = 0.0
            for idx in batch:
                inputs, targets = examples[int(idx)]
                with record() as tape:
                    loss = loss_fn(inputs, targets)
                value = float(loss.data)
                if not math.isfinite(value):
                    raise DivergedError(
                        f"non-finite loss at step {optimizer.step_count + 1}; "
                        f"last finite step was {optimizer.step_count}"
                    )
                tape.backward(loss)
                batch_loss += value / len(targets)
            for p in optimizer.params:
                if p.value.grad is not None:
                    p.value.grad /= len(batch)
            optimizer.step()
            yield batch_loss / len(batch)
            if optimizer.step_count >= total_steps:
                return


@dataclass
class TrainResult:
    steps: int
    history: list[tuple[int, float, float]] = field(default_factory=list)  # (step, mean loss, dev F1)
    final_f1: float = float("nan")
    stopped_early: bool = False


def run_training(
    model: NerModel,
    train: Corpus,
    dev: Corpus | None,
    optimizer: AdamW,
    seed: int,
    eval_every: int | None = None,
    f1_target: float | None = None,
) -> TrainResult:
    """Teacher-forced training through ``optimizer_steps``, with dev evaluation around it.

    A sentence with more tokens or gold indices than max_len is refused
    before the first step. Dev F1 is measured every ``eval_cadence`` steps
    and after the last; reaching ``f1_target`` on the cadence stops
    training early.
    """
    examples = [gold_indices(model, s) for s in train.sentences]
    max_len = model.config.max_len
    for i, (token_ids, gold) in enumerate(examples, start=1):
        if len(token_ids) > max_len or len(gold) > max_len:
            raise ShapeError(
                f"training sentence {i} of {len(examples)} has {len(token_ids)} tokens and "
                f"{len(gold)} gold indices; max_len {max_len} bounds both"
            )
    cadence = eval_cadence(eval_every, len(examples), optimizer.config.batch_size)
    result = TrainResult(steps=0)
    recent: list[float] = []  # mean losses of the steps since the last evaluation
    for mean_loss in optimizer_steps(optimizer, examples, partial(sequence_loss, model), seed):
        result.steps = optimizer.step_count
        recent.append(mean_loss)
        if dev is None or (result.steps % cadence and result.steps < optimizer.config.total_steps):
            continue
        result.final_f1 = corpus_f1(model, dev)
        result.history.append((result.steps, sum(recent) / len(recent), result.final_f1))
        recent.clear()
        if result.steps % cadence == 0 and f1_target is not None and result.final_f1 >= f1_target:
            result.stopped_early = True
            break
    return result


def steps_for_epochs(n_sentences: int, epochs: int, batch_size: int) -> int:
    return max(1, math.ceil(n_sentences / batch_size)) * max(1, epochs)


def eval_cadence(eval_every: int | None, n_sentences: int, batch_size: int) -> int:
    """Steps between dev evaluations: ``eval_every``, which must be at least 1, or else one epoch."""
    if eval_every is not None and eval_every < 1:
        raise ValueError(f"eval_every must be at least 1, got {eval_every}")
    return eval_every or steps_for_epochs(n_sentences, 1, batch_size)


def pretrain_backbone(
    model: NerModel,
    train: Corpus,
    dev: Corpus | None,
    optimizer_config: OptimizerConfig,
    seed: int = 1,
    eval_every: int | None = None,
    f1_target: float | None = 0.95,
) -> TrainResult:
    """Full-model training on the source domain.

    The verbalizer is rebuilt for the train corpus's label set and
    learned jointly. Stops early once dev F1 reaches the target.
    """
    model.replace_verbalizer(train.label_set, policy="learned")
    optimizer = AdamW(partition_parameters(model, "full")[0], optimizer_config)
    return run_training(model, train, dev, optimizer, seed=seed, eval_every=eval_every, f1_target=f1_target)


def tune_guidance(
    model: NerModel,
    train: Corpus,
    dev: Corpus | None,
    optimizer_config: OptimizerConfig,
    seed: int = 1,
    warm_start: bool = True,
    eval_every: int | None = None,
    f1_target: float | None = None,
) -> TrainResult:
    """Frozen-backbone adaptation to a new label set.

    Rebuilds the verbalizer for the target categories, optionally
    redraws the guidance matrices (cold start) instead of keeping the
    pretrained ones, and trains only guidance + verbalizer raw weights.
    Every backbone byte is left exactly as loaded.
    """
    model.replace_verbalizer(train.label_set, policy="learned")
    if not warm_start:
        model.backbone.guidance.reinitialize(np.random.default_rng(seed))
    optimizer = AdamW(partition_parameters(model, "guidance_only")[0], optimizer_config)
    return run_training(model, train, dev, optimizer, seed=seed, eval_every=eval_every, f1_target=f1_target)


# ---------------------------------------------------------------------------
# contrast baseline training


def train_lc_head(model: NerModel, head, corpus: Corpus, steps: int = 50, lr: float = 1e-2, seed: int = 1):
    """Fit the per-token BIO classifier over the (frozen) encoder.

    Kept deliberately simple; the baseline exists to demonstrate the
    shape coupling of a classifier head, not to compete on F1.
    """
    tag_index = {t: i for i, t in enumerate(head.tags)}
    encoded = []
    for sent in corpus.sentences:
        h_en = model.backbone.encode(model.vocab.encode(sent.tokens))
        tags = spans_to_bio(sent.spans, len(sent.tokens))
        encoded.append((h_en.data.copy(), [tag_index[t] for t in tags]))

    cfg = OptimizerConfig(peak_lr=lr, total_steps=steps, batch_size=8, clip_norm=1.0)
    for p in head.parameters():
        p.trainable = True
    optimizer = AdamW(head.parameters(), cfg)

    def loss_fn(h_data, tag_ids):
        return nll(T.add(T.matmul(Tensor(h_data), head.W.value), head.b.value), tag_ids)

    for _ in optimizer_steps(optimizer, encoded, loss_fn, seed):
        pass
    return head


GRADCHECK_WEIGHT_SCALE = 0.4


def guidance_gradcheck(seed: int = 1, h: float = 3e-5, tol: float = 1e-5):
    """Finite-difference audit of the tuning loss on a deliberately tiny model.

    Builds an 8-wide, one-layer-per-stack model with a length-2 guidance
    prefix and two categories, takes a single synthetic sentence, and
    sweeps every trainable coordinate of the guidance-only partition.

    All matrix weights are redrawn at a generic scale before checking.
    At the 0.02 production init the attention is still near-uniform and
    some true guidance-key gradients land around 1e-7, where a relative
    comparison against central differences measures float64 roundoff
    instead of correctness. The redraw keeps every true coordinate out
    of that dead zone; correctness of the analytic gradient is the same
    property at either point. Dotted category names give the verbalizer
    two words per category so its mixing weights get real gradients too.
    """
    domain = DomainSpec(
        name="probe",
        categories={
            "color.tone": ("red", "blue", "green", "amber", "teal"),
            "animal.kind": ("fox", "otter", "heron", "lynx", "mole"),
        },
        templates=(
            "the {animal.kind} slept near a {color.tone} door",
            "a {color.tone} boat carried one {animal.kind} home",
        ),
    )
    vocab = vocab_for_domains([domain])
    config = ModelConfig(
        vocab_size=len(vocab),
        d_model=8,
        n_heads=2,
        enc_layers=1,
        dec_layers=1,
        ffn_dim=16,
        max_len=32,
        prompt_len=2,
    )
    backbone = Backbone(config, seed=seed)
    model = NerModel(
        backbone, vocab, Verbalizer(domain.label_set, vocab, backbone.param("embed.tokens"))
    )
    rng = np.random.default_rng(seed + 7919)
    for param in model.parameters():
        if param.value.data.ndim == 2:
            param.value.data[...] = rng.normal(
                0.0, GRADCHECK_WEIGHT_SCALE, size=param.value.data.shape
            )
    sentence = synthetic_corpus(domain, 1, seed=seed).sentences[0]
    token_ids, gold = gold_indices(model, sentence)
    trainable, _ = partition_parameters(model, "guidance_only")
    return finite_diff_check(lambda: sequence_loss(model, token_ids, gold), trainable, h=h, tol=tol)
