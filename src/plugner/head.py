"""Pointer-style generative prediction head and the index space it emits.

The decoder writes entities as (start, end, category) index triples over
a shared space: index 0 terminates the sequence, indices 1..n point at
input tokens, and indices n+1..n+m name the categories, which always sit
after the pointer range. Category rows come from a verbalizer: each
category is a learnable convex mixture of label-word embedding rows, so
adding a category never changes any backbone shape. Index y names row y
of two per-sentence tables, ``score_keys`` (what a decoder state is
scored against) and ``feedback_rows`` (what is fed back after emitting
y); teacher forcing and greedy decoding each build both once per sentence.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .backbone import Backbone, DecoderCache
from .data import EntitySpan, Vocab, build_verbalizer_mapping
from .errors import ShapeError
from .tensor import Parameter, Tensor

BETA_POLICIES = ("learned", "uniform")  # trained label-word weights, or fixed equal ones


@dataclass(frozen=True)
class IndexSpace:
    """Layout of the decoder's output alphabet for one sentence."""

    n: int  # pointer positions (sentence length)
    m: int  # categories

    EOS = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"index space needs n >= 1 and m >= 1, got n={self.n}, m={self.m}")

    @property
    def size(self) -> int:
        return self.n + self.m + 1

    def is_pointer(self, y: int) -> bool:
        return 1 <= y <= self.n

    def is_category(self, y: int) -> bool:
        return self.n < y <= self.n + self.m

    def category_offset(self, y: int) -> int:
        """0-based position in the category list for a category index."""
        if not self.is_category(y):
            raise ValueError(f"index {y} is not a category index in (n={self.n}, m={self.m})")
        return y - self.n - 1

    def check(self, y: int) -> int:
        if not 0 <= y <= self.n + self.m:
            raise ValueError(f"index {y} outside the space 0..{self.n + self.m} (n={self.n}, m={self.m})")
        return y

    def fed_back(self, prefix: Sequence[int]) -> list[int]:
        """The ``feedback_rows`` rows a teacher-forced decoder reads: 0, then each prefix index (not eos)."""
        for y in prefix:
            if self.check(y) == self.EOS:
                raise ValueError("eos (index 0) is never fed back into the decoder")
        return [0, *prefix]


class Verbalizer:
    """Category scoring rows built from label-word embeddings.

    Each category c carries raw weights whose within-category softmax is
    the simplex beta^c; the category's scoring row is the beta-weighted
    average of its label words' embedding rows. The same row embeds a
    generated category index when it is fed back to the decoder, so
    scoring and feedback share one representation. Categories are kept
    sorted so index layout is reproducible everywhere.
    """

    def __init__(
        self,
        label_set: Sequence[str],
        vocab: Vocab,
        embed: Parameter,
        policy: str = "learned",
        mapping: dict[str, tuple[str, ...]] | None = None,
    ) -> None:
        if policy not in BETA_POLICIES:
            raise ValueError(f"beta policy must be one of {BETA_POLICIES}, got {policy!r}")
        self.categories: tuple[str, ...] = tuple(sorted(set(label_set)))
        if not self.categories:
            raise ValueError("verbalizer needs at least one category")
        self.policy = policy
        self.vocab = vocab
        self._embed = embed
        self.mapping = mapping or build_verbalizer_mapping(self.categories)
        self.word_ids: dict[str, list[int]] = {
            cat: [vocab.id_strict(w) for w in self.mapping[cat]] for cat in self.categories
        }
        trainable = policy == "learned"
        # zero raw weights: beta starts exactly uniform under either policy
        self._raw: dict[str, Parameter] = {
            cat: Parameter(f"verbalizer.raw.{cat}", np.zeros((1, len(self.word_ids[cat]))), trainable)
            for cat in self.categories
        }

    def __len__(self) -> int:
        return len(self.categories)

    def raw_weights(self, category: str) -> Parameter:
        return self._raw[category]

    def parameters(self) -> list[Parameter]:
        return [self._raw[cat] for cat in self.categories]

    def beta(self, category: str) -> np.ndarray:
        """The category's simplex weights; sums to exactly 1.0."""
        w = self._raw[category].value.data.reshape(-1)
        e = np.exp(w - w.max())
        b = e / e.sum()
        # final-ulp correction so the reported simplex sums to 1.0 exactly
        for _ in range(4):
            residual = 1.0 - float(b.sum())
            if residual == 0.0:
                break
            b[int(np.argmax(b))] += residual
        return b

    def category_rep(self, category: str) -> Tensor:
        """Differentiable 1 x d scoring row for a category."""
        ids = self.word_ids[category]
        rows = T.gather_rows(self._embed.value, ids)
        weights = T.softmax_rows(self._raw[category].value)
        return T.matmul(weights, rows)

    def rep_matrix(self) -> Tensor:
        """All category rows stacked, in category order (m x d)."""
        reps = [self.category_rep(cat) for cat in self.categories]
        return reps[0] if len(reps) == 1 else T.concat(reps, axis=0)

    def eos_embedding(self) -> Tensor:
        return T.gather_rows(self._embed.value, [self.vocab.eos_id])

    def bos_embedding(self) -> Tensor:
        return T.gather_rows(self._embed.value, [self.vocab.bos_id])


class NerModel:
    """Backbone + vocabulary + current verbalizer, bundled for convenience."""

    def __init__(self, backbone: Backbone, vocab: Vocab, verbalizer: Verbalizer) -> None:
        if backbone.config.vocab_size != len(vocab):
            raise ShapeError(
                f"backbone vocab_size {backbone.config.vocab_size} does not match vocabulary of {len(vocab)} items"
            )
        self.backbone = backbone
        self.vocab = vocab
        self.verbalizer = verbalizer

    @property
    def config(self):
        return self.backbone.config

    def parameters(self) -> list[Parameter]:
        return self.backbone.parameters() + self.verbalizer.parameters()

    def replace_verbalizer(self, label_set: Sequence[str], policy: str = "learned") -> Verbalizer:
        """Swap in a verbalizer for a new category set; backbone shapes untouched."""
        self.verbalizer = Verbalizer(label_set, self.vocab, self.backbone.param("embed.tokens"), policy)
        return self.verbalizer


# ---------------------------------------------------------------------------
# the two per-sentence tables


def score_keys(h_en: Tensor, e_seq: Tensor, verbalizer: Verbalizer, alpha: float, reps: Tensor) -> Tensor:
    """Row y scores index y: [eos | alpha * h_en + (1 - alpha) * e_seq | category rows reps]."""
    pointers = T.add(T.scale(h_en, alpha), T.scale(e_seq, 1.0 - alpha))
    return T.concat([verbalizer.eos_embedding(), pointers, reps], axis=0)


def feedback_rows(e_seq: Tensor, verbalizer: Verbalizer, reps: Tensor) -> Tensor:
    """Row y is fed back after index y: [bos | e_seq | reps]; eos never is, so row 0 is the start row."""
    return T.concat([verbalizer.bos_embedding(), e_seq, reps], axis=0)


# ---------------------------------------------------------------------------
# teacher forcing


def step_scores(
    h_en: Tensor,
    e_seq: Tensor,
    h_dec: Tensor,
    verbalizer: Verbalizer,
    alpha: float,
) -> Tensor:
    """Pre-softmax scores for one or more decoder states (rows of h_dec).

    Column y is the state dotted with row y of ``score_keys``, so the
    column layout is [eos | pointer 1..n | category 1..m].
    """
    if h_en.data.shape != e_seq.data.shape:
        raise ShapeError(f"h_en shape {h_en.data.shape} does not match e_seq shape {e_seq.data.shape}")
    if h_dec.data.shape[1] != h_en.data.shape[1]:
        raise ShapeError(
            f"decoder state width {h_dec.data.shape} does not match encoder width {h_en.data.shape}"
        )
    keys = score_keys(h_en, e_seq, verbalizer, alpha, verbalizer.rep_matrix())
    return T.matmul(h_dec, T.transpose(keys))


def step_distribution(
    h_en: Tensor,
    e_seq: Tensor,
    h_t: Tensor,
    verbalizer: Verbalizer,
    alpha: float,
) -> Tensor:
    """Probability vector over [eos | pointers | categories] for one state."""
    return T.softmax_rows(step_scores(h_en, e_seq, h_t, verbalizer, alpha))


def decoder_inputs(model: NerModel, token_ids: Sequence[int], prefix: Sequence[int]) -> Tensor:
    """The start row plus the ``feedback_rows`` row of every prefix index, from tables of its own."""
    verbalizer = model.verbalizer
    rows = IndexSpace(len(token_ids), len(verbalizer)).fed_back(prefix)
    table = feedback_rows(model.backbone.embed_tokens(token_ids), verbalizer, verbalizer.rep_matrix())
    return T.gather_rows(table, rows)


# ---------------------------------------------------------------------------
# greedy decoding


@dataclass
class DecodeResult:
    indices: list[int]
    truncated: bool


def greedy_decode(model: NerModel, token_ids: Sequence[int], max_steps: int | None = None) -> DecodeResult:
    """Argmax decoding until eos or the step budget (default 3n + 1) runs out.

    The budget never exceeds max_len, the most positions the decoder
    takes. The returned sequence includes the terminating 0 when decoding
    stopped naturally; ``truncated`` is set when the budget ran out first.

    Decoding is incremental: each step feeds the decoder only row y of
    ``feedback_rows`` for the index y just emitted (row 0, the start row,
    on the first step), through one DecoderCache per sentence, and scores
    the new state against ``score_keys``. Both tables are built once.
    """
    backbone, verbalizer = model.backbone, model.verbalizer
    n = len(token_ids)
    budget = min(max_steps if max_steps is not None else 3 * n + 1, model.config.max_len)
    h_en = backbone.encode(token_ids)
    e_seq = backbone.embed_tokens(token_ids)
    reps = verbalizer.rep_matrix()
    keys_t = T.transpose(score_keys(h_en, e_seq, verbalizer, model.config.alpha, reps))
    feedback = feedback_rows(e_seq, verbalizer, reps)
    cache = DecoderCache()

    y = 0
    out: list[int] = []
    for _ in range(budget):
        h_t = backbone.decode_states(h_en, T.slice_rows(feedback, y, y + 1), cache)
        dist = T.softmax_rows(T.matmul(h_t, keys_t))
        y = int(np.argmax(dist.data))
        out.append(y)
        if y == IndexSpace.EOS:
            return DecodeResult(out, truncated=False)
    return DecodeResult(out, truncated=True)


# ---------------------------------------------------------------------------
# index sequences <-> spans


def indices_from_spans(spans: Sequence[EntitySpan], n: int, categories: Sequence[str]) -> list[int]:
    """Serialize spans as (start, end, category) triples plus the terminator."""
    space = IndexSpace(n, len(categories))
    order = {cat: i for i, cat in enumerate(categories)}
    out: list[int] = []
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        if span.category not in order:
            raise ValueError(f"span category {span.category!r} is not in {list(categories)}")
        if span.end > n:
            raise ValueError(f"span ({span.start}, {span.end}) exceeds sentence length {n}")
        out.extend((span.start, span.end, space.n + 1 + order[span.category]))
    out.append(IndexSpace.EOS)
    return out


@dataclass
class SpanParse:
    spans: list[EntitySpan]
    malformed: int


def spans_from_indices(indices: Sequence[int], n: int, categories: Sequence[str]) -> SpanParse:
    """Reconstruct spans from a generated index sequence, tolerating damage.

    Pointer indices accumulate; a category index closes the accumulator
    into (min, max, category). A category arriving with nothing
    accumulated, or pointers left dangling at the end, are counted as
    malformed and skipped; duplicate spans are kept once. Index 0
    terminates parsing wherever it appears.
    """
    space = IndexSpace(n, len(categories))
    spans: list[EntitySpan] = []
    seen: set[EntitySpan] = set()
    acc: list[int] = []
    malformed = 0
    for y in indices:
        space.check(y)
        if y == IndexSpace.EOS:
            break
        if space.is_pointer(y):
            acc.append(y)
            continue
        if not acc:
            malformed += 1
            continue
        span = EntitySpan(min(acc), max(acc), categories[space.category_offset(y)])
        acc = []
        if span not in seen:
            seen.add(span)
            spans.append(span)
    if acc:
        malformed += 1
    return SpanParse(spans, malformed)


# ---------------------------------------------------------------------------
# linear-classifier contrast head


def bio_tag_names(categories: Sequence[str]) -> tuple[str, ...]:
    """O plus B-/I- per category: the 2m + 1 tags a token classifier scores."""
    tags = ["O"]
    for cat in sorted(categories):
        tags.extend((f"B-{cat}", f"I-{cat}"))
    return tuple(tags)


class LcHead:
    """Per-token linear classifier over BIO tags (the shape-bound baseline).

    Its output dimension is 2m + 1, so a head trained for one category
    set structurally cannot load for another; this rigidity is the
    contrast with the verbalizer head above.
    """

    def __init__(self, d_model: int, categories: Sequence[str], seed: int = 0) -> None:
        self.tags = bio_tag_names(categories)
        rng = np.random.default_rng(seed)
        k = len(self.tags)
        self.W = Parameter("lc.W", rng.normal(0.0, 0.02, (d_model, k)))
        self.b = Parameter("lc.b", np.zeros(k))

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]
