"""Corpus handling: BIO files, span records, vocabulary, sampling, synthesis.

Span positions are 1-based and inclusive throughout, matching the pointer
index space used by the decoder (token i of a sentence is pointer index i).
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, PlugnerError, VocabError

DEFAULT_SEEDS = (1, 2, 49, 4321, 1234)

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
UNK_TOKEN = "<unk>"


@dataclass(frozen=True, order=True)
class EntitySpan:
    """One labelled span: 1-based inclusive token positions."""

    start: int
    end: int
    category: str

    def __post_init__(self) -> None:
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"bad span bounds ({self.start}, {self.end}); expected 1 <= start <= end")


@dataclass(frozen=True)
class AnnotatedSentence:
    tokens: tuple[str, ...]
    spans: tuple[EntitySpan, ...]

    def __post_init__(self) -> None:
        n = len(self.tokens)
        for s in self.spans:
            if s.end > n:
                raise ValueError(f"span ({s.start}, {s.end}, {s.category}) exceeds sentence length {n}")

    def tag_counts(self) -> Counter[str]:
        return Counter(s.category for s in self.spans)


@dataclass
class Corpus:
    sentences: list[AnnotatedSentence]
    label_set: tuple[str, ...]
    name: str = ""
    repair_count: int = 0

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    @classmethod
    def from_sentences(cls, sentences: Iterable[AnnotatedSentence], name: str = "") -> "Corpus":
        sents = list(sentences)
        labels = sorted({s.category for sent in sents for s in sent.spans})
        return cls(sentences=sents, label_set=tuple(labels), name=name)


# ---------------------------------------------------------------------------
# BIO tags


def bio_to_spans(tags: Sequence[str]) -> tuple[list[EntitySpan], int]:
    """Turn a BIO tag sequence into spans.

    A dangling I-X (after O, at sentence start, or after a different
    category) is repaired by treating it as B-X; the number of repairs is
    returned alongside the spans.
    """
    spans: list[EntitySpan] = []
    repairs = 0
    open_cat: str | None = None
    open_start = 0
    for pos, tag in enumerate(tags, start=1):
        if tag == "O":
            kind, cat = "O", None
        elif tag.startswith("B-") or tag.startswith("I-"):
            kind, cat = tag[0], tag[2:]
            if not cat:
                raise FormatError(f"tag {tag!r} at position {pos} has an empty category")
        else:
            raise FormatError(f"tag {tag!r} at position {pos} is not O, B-<cat>, or I-<cat>")

        if kind == "I" and cat != open_cat:
            kind = "B"  # orphaned continuation: treat as a fresh entity
            repairs += 1
        if kind in ("B", "O") and open_cat is not None:
            spans.append(EntitySpan(open_start, pos - 1, open_cat))
            open_cat = None
        if kind == "B":
            open_cat, open_start = cat, pos
    if open_cat is not None:
        spans.append(EntitySpan(open_start, len(tags), open_cat))
    return spans, repairs


def spans_to_bio(spans: Iterable[EntitySpan], n_tokens: int) -> list[str]:
    """Render spans as BIO tags; overlapping spans cannot be represented."""
    tags = ["O"] * n_tokens
    for s in sorted(spans):
        if s.end > n_tokens:
            raise ValueError(f"span ({s.start}, {s.end}, {s.category}) exceeds sentence length {n_tokens}")
        for pos in range(s.start, s.end + 1):
            if tags[pos - 1] != "O":
                raise ValueError(f"span ({s.start}, {s.end}, {s.category}) overlaps an earlier span")
            tags[pos - 1] = ("B-" if pos == s.start else "I-") + s.category
    return tags


def read_text(path: str | Path, error: type[PlugnerError] = FormatError) -> str:
    """A text input file's contents; bytes that are not UTF-8 raise ``error`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


def read_column_file(path: str | Path) -> Corpus:
    """Read a two-column BIO file: token and tag per line, blank line between sentences."""
    path = Path(path)
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    repairs = 0

    def close_sentence() -> None:
        nonlocal repairs
        if not tokens:
            return
        spans, fixed = bio_to_spans(tags)  # cannot raise: the per-line tag check below refuses first
        repairs += fixed
        sentences.append(AnnotatedSentence(tuple(tokens), tuple(spans)))
        tokens.clear()
        tags.clear()

    # split at newlines only: str.splitlines would also split a token at \x85 and the like
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            close_sentence()
            continue
        cols = line.split()
        if len(cols) < 2:
            raise FormatError(f"{path}:{lineno}: expected 'token tag', got {line!r}")
        tag = cols[-1]
        # validate tag shape here so the error names the offending line
        if tag != "O" and not (tag.startswith(("B-", "I-")) and len(tag) > 2):
            raise FormatError(
                f"{path}:{lineno}: tag {tag!r} is not O, B-<cat>, or I-<cat>"
            )
        tokens.append(cols[0])
        tags.append(tag)
    close_sentence()

    corpus = Corpus.from_sentences(sentences, name=path.stem)
    corpus.repair_count = repairs
    return corpus


def write_column_file(path: str | Path, corpus: Corpus) -> None:
    lines: list[str] = []
    for sent in corpus.sentences:
        tags = spans_to_bio(sent.spans, len(sent.tokens))
        lines.extend(f"{tok} {tag}" for tok, tag in zip(sent.tokens, tags))
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# verbalizer label words


def build_verbalizer_mapping(label_set: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """Split each category name into lowercase label words.

    Names break on underscores and dots ("return_date.month_name" gives
    return/date/month/name); empty fragments are dropped, and a name that
    yields nothing at all is kept whole as its own single label word.
    """
    mapping: dict[str, tuple[str, ...]] = {}
    for name in label_set:
        words = [w for w in re.split(r"[._]", name.lower()) if w]
        if not words:
            words = [name.lower()]
        mapping[name] = tuple(dict.fromkeys(words))  # dedupe, keep order
    return mapping


# ---------------------------------------------------------------------------
# vocabulary


class Vocab:
    """Immutable token-to-id table with reserved specials.

    Ids 0..2 are <s>, </s>, <unk>; everything else is sorted for
    determinism. Label words are folded in at construction time because a
    frozen backbone cannot grow its embedding table afterwards: an unknown
    label word becomes a fresh whole-word item here or never.
    """

    def __init__(self, tokens: Sequence[str]) -> None:
        specials = (BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)
        rest = sorted(set(tokens) - set(specials))
        self._tokens: tuple[str, ...] = specials + tuple(rest)
        self._index = {tok: i for i, tok in enumerate(self._tokens)}

    @classmethod
    def build(
        cls,
        token_sources: Iterable[Iterable[str]],
        label_sets: Iterable[Iterable[str]] = (),
    ) -> "Vocab":
        words: set[str] = set()
        for source in token_sources:
            words.update(source)
        for label_set in label_sets:
            for group in build_verbalizer_mapping(label_set).values():
                words.update(group)
        return cls(sorted(words))

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def bos_id(self) -> int:
        return 0

    @property
    def eos_id(self) -> int:
        return 1

    @property
    def unk_id(self) -> int:
        return 2

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id(self, token: str) -> int:
        return self._index.get(token, self.unk_id)

    def id_strict(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise VocabError(f"token {token!r} is not in the vocabulary ({len(self)} items)") from None

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.id(t) for t in tokens]


# ---------------------------------------------------------------------------
# few-shot sampling


@dataclass(frozen=True)
class SamplerConfig:
    k: int
    seed: int = DEFAULT_SEEDS[0]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass
class SampleResult:
    corpus: Corpus
    counts: dict[str, int]
    shortfall: dict[str, int]
    discarded: int
    indices: tuple[int, ...]  # positions of the kept sentences in the source corpus
    unsatisfiable: tuple[str, ...] = ()


def few_shot_sample(corpus: Corpus, config: SamplerConfig) -> SampleResult:
    """Draw a low-resource subset with roughly k instances per entity tag.

    Procedure: count instances (entity occurrences, not sentences) per
    tag, visit tags rarest first, and walk a seed-shuffled sentence order
    accepting sentences that contain the current tag. A sentence whose
    acceptance would push any tag past k is discarded outright and never
    reconsidered. Sampling for a tag stops once its quota is met; tags
    with thin supply end short, which is reported rather than fixed up.
    """
    k = config.k
    totals: Counter[str] = Counter()
    per_sentence: list[Counter[str]] = []
    for sent in corpus.sentences:
        occ = sent.tag_counts()
        per_sentence.append(occ)
        totals.update(occ)

    tag_order = sorted(corpus.label_set, key=lambda t: (totals[t], t))
    rng = np.random.default_rng(config.seed)
    visit_order = [int(i) for i in rng.permutation(len(corpus.sentences))]

    chosen: list[int] = []
    counts: Counter[str] = Counter()
    discarded: set[int] = set()
    taken: set[int] = set()
    unsatisfiable = tuple(t for t in tag_order if totals[t] == 0)

    for tag in tag_order:
        if totals[tag] == 0:
            continue
        for idx in visit_order:
            if counts[tag] >= k:
                break
            if idx in taken or idx in discarded:
                continue
            occ = per_sentence[idx]
            if not occ.get(tag):
                continue
            if any(counts[t] + c > k for t, c in occ.items()):
                discarded.add(idx)
                continue
            taken.add(idx)
            chosen.append(idx)
            counts.update(occ)

    chosen.sort()
    sub = Corpus(
        sentences=[corpus.sentences[i] for i in chosen],
        label_set=corpus.label_set,
        name=f"{corpus.name}-k{k}" if corpus.name else f"k{k}",
    )
    shortfall = {t: k - counts[t] for t in corpus.label_set if counts[t] < k}
    return SampleResult(
        corpus=sub,
        counts={t: counts[t] for t in corpus.label_set},
        shortfall=shortfall,
        discarded=len(discarded),
        indices=tuple(chosen),
        unsatisfiable=unsatisfiable,
    )


# ---------------------------------------------------------------------------
# synthetic corpora


@dataclass(frozen=True)
class DomainSpec:
    """Template-based recipe for a labelled synthetic domain.

    Templates are token strings with ``{category}`` slots; lexemes may be
    multi-token ("snow leopard"), in which case the emitted span covers
    every token. Lexeme inventories must be disjoint across categories so
    a surface form determines its label.
    """

    name: str
    categories: dict[str, tuple[str, ...]]
    templates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError(f"domain {self.name!r} has no templates")
        seen: dict[str, str] = {}
        for cat, lexemes in self.categories.items():
            if len(lexemes) < 5:
                raise ValueError(f"category {cat!r} has {len(lexemes)} lexemes; at least 5 required")
            for lex in lexemes:
                if lex in seen:
                    raise ValueError(
                        f"lexeme {lex!r} appears in both {seen[lex]!r} and {cat!r}; inventories must be disjoint"
                    )
                seen[lex] = cat
        # a slot is a whole whitespace-delimited {category} word, same rule
        # the expander uses; category names may contain dots
        for tpl in self.templates:
            for word in tpl.split():
                if word.startswith("{") and word.endswith("}") and word[1:-1] not in self.categories:
                    raise ValueError(f"template {tpl!r} references unknown category {word[1:-1]!r}")

    @property
    def label_set(self) -> tuple[str, ...]:
        return tuple(sorted(self.categories))

    def surface_tokens(self) -> set[str]:
        words: set[str] = set()
        for lexemes in self.categories.values():
            for lex in lexemes:
                words.update(lex.split())
        for tpl in self.templates:
            words.update(w for w in tpl.split() if not w.startswith("{"))
        return words


def synthetic_corpus(spec: DomainSpec, n_sentences: int, seed: int) -> Corpus:
    """Expand templates into a labelled corpus, deterministically per seed."""
    if n_sentences < 0:
        raise ValueError(f"n_sentences must be non-negative, got {n_sentences}")
    rng = np.random.default_rng(seed)
    sentences: list[AnnotatedSentence] = []
    for _ in range(n_sentences):
        template = spec.templates[int(rng.integers(len(spec.templates)))]
        tokens: list[str] = []
        spans: list[EntitySpan] = []
        for word in template.split():
            if word.startswith("{") and word.endswith("}"):
                cat = word[1:-1]
                lexemes = spec.categories[cat]
                surface = lexemes[int(rng.integers(len(lexemes)))].split()
                start = len(tokens) + 1
                tokens.extend(surface)
                spans.append(EntitySpan(start, len(tokens), cat))
            else:
                tokens.append(word)
        sentences.append(AnnotatedSentence(tuple(tokens), tuple(spans)))
    return Corpus(sentences=sentences, label_set=spec.label_set, name=spec.name)


def parse_domain_spec(path: str | Path) -> DomainSpec:
    """Read a domain spec file; the domain is named after the file's stem.

    Line format: ``category: lexeme, lexeme, ...`` for inventories and
    ``template: the {category} ...`` for sentence patterns. ``#`` starts
    a comment.
    """
    path = Path(path)
    categories: dict[str, tuple[str, ...]] = {}
    templates: list[str] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'name: ...', got {raw!r}")
        head, _, rest = line.partition(":")
        head = head.strip()
        if head == "template":
            templates.append(rest.strip())
        else:
            lexemes = tuple(x.strip() for x in rest.split(",") if x.strip())
            if not lexemes:
                raise FormatError(f"{path}:{lineno}: category {head!r} lists no lexemes")
            categories[head] = lexemes
    try:
        return DomainSpec(name=path.stem, categories=categories, templates=tuple(templates))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# Two domains ship built in. They deliberately share the "color" category.
# Source templates must NOT mention target-only lexemes, even as filler:
# pretraining pushes pointer scores of every non-entity token down, so a
# word seen only as filler starts any later adaptation actively suppressed,
# while an unseen word keeps its neutral init and stays steerable.

SOURCE_DOMAIN = DomainSpec(
    name="source",
    categories={
        "color": ("red", "blue", "green", "amber", "violet", "crimson", "teal"),
        "animal": ("fox", "otter", "heron", "badger", "lynx", "pine marten", "snow leopard"),
    },
    templates=(
        "the {color} {animal} slipped past the checkpoint at dawn",
        "witnesses saw a {animal} near the old station",
        "a {color} banner hung over the market square",
        "reporters described the {animal} as calm",
        "the mayor praised the {color} parade float",
        "guards found a {animal} asleep in the depot",
        "the {color} {animal} was last seen by the river",
        "a {animal} crossed the road before the {color} tram",
        "no animal was reported missing from the yard",
        "the color of the harbor water changed overnight",
        "market stalls lined the road into town",
        "a courier dropped a parcel beside the broken cart",
        "the {animal} knocked over a basket at the fair",
        "vendors sold bread beside the {color} fountain",
        "a ladder vanished from the shed near the {color} mill",
        "the night shift ended without incident at the harbor",
    ),
)

TARGET_DOMAIN = DomainSpec(
    name="target",
    categories={
        "fruit": ("mango", "pear", "quince", "plum", "fig", "blood orange"),
        "tool": ("wrench", "chisel", "mallet", "rasp", "awl", "tape measure"),
        "color": ("red", "blue", "green", "amber", "violet", "crimson", "teal"),
    },
    # No template mixes fruit and tool slots: the two categories are both
    # unseen at tune time, so the surrounding context is the only signal
    # that can separate them for lexemes the tuning set barely covers.
    # Filler near the slots reuses source-domain words where natural; words
    # the backbone has seen as filler have suppressed pointer scores and do
    # not attract spurious spans the way fresh words do.
    templates=(
        "grab the {color} {tool} from the old shed",
        "slice the {fruit} beside the {color} fountain",
        "the {fruit} jam needs a {color} lid",
        "pass me that {tool} before the night shift",
        "a ripe {fruit} rolled under the broken cart",
        "paint the shelf {color} and stack the {fruit} jars",
        "the {tool} hangs above the {color} cabinet",
        "guards sharpened every {tool} near the depot",
    ),
)

BUILTIN_DOMAINS = {spec.name: spec for spec in (SOURCE_DOMAIN, TARGET_DOMAIN)}


def vocab_for_domains(domains: Iterable[DomainSpec]) -> Vocab:
    """One shared vocabulary covering every domain's surface and label words."""
    specs = list(domains)
    return Vocab.build(
        (spec.surface_tokens() for spec in specs),
        (spec.label_set for spec in specs),
    )
