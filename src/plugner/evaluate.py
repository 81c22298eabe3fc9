"""Exact-match span evaluation and report serialization."""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .data import Corpus, EntitySpan, read_text
from .errors import EvalLengthError, FormatError

METRICS_SCHEMA_VERSION = 1

CSV_COLUMNS = ("seed", "k_shot", "source", "target", "P", "R", "F1")


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


@dataclass
class CategoryMetrics:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def scores(self) -> tuple[float, float, float]:
        return _prf(self.tp, self.fp, self.fn)


@dataclass
class MetricsReport:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    n_sentences: int
    per_category: dict[str, CategoryMetrics] = field(default_factory=dict)
    malformed_outputs: int = 0
    seed: int | None = None
    config_digest: str = ""

    def to_dict(self) -> dict:
        """The fields plus ``schema``; each category also carries its precision, recall and f1."""
        per_category = {
            cat: dict(zip(("precision", "recall", "f1"), m.scores)) | asdict(m)
            for cat, m in sorted(self.per_category.items())
        }
        return {"schema": METRICS_SCHEMA_VERSION, **asdict(self), "per_category": per_category}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


def evaluate(
    gold: Corpus | Sequence[Iterable[EntitySpan]],
    predictions: Sequence[Iterable[EntitySpan]],
    malformed_outputs: int = 0,
) -> MetricsReport:
    """Micro-averaged exact-match P/R/F1 over aligned sentences.

    A prediction is a true positive iff start, end, and category all
    match a gold span; duplicates on either side count once. F1 is zero
    when precision and recall are both zero. The report's ``seed`` and
    ``config_digest`` are left unset: the command that writes it stamps them.
    """
    gold_sets = [set(s.spans) for s in gold.sentences] if isinstance(gold, Corpus) else [set(g) for g in gold]
    if len(gold_sets) != len(predictions):
        raise EvalLengthError(
            f"gold has {len(gold_sets)} sentences, predictions have {len(predictions)}"
        )
    tp = fp = fn = 0
    per_category: dict[str, CategoryMetrics] = {}

    def bucket(cat: str) -> CategoryMetrics:
        if cat not in per_category:
            per_category[cat] = CategoryMetrics()
        return per_category[cat]

    for gold_set, pred in zip(gold_sets, predictions):
        pred_set = set(pred)
        for span in pred_set & gold_set:
            tp += 1
            bucket(span.category).tp += 1
        for span in pred_set - gold_set:
            fp += 1
            bucket(span.category).fp += 1
        for span in gold_set - pred_set:
            fn += 1
            bucket(span.category).fn += 1

    p, r, f1 = _prf(tp, fp, fn)
    return MetricsReport(
        precision=p,
        recall=r,
        f1=f1,
        tp=tp,
        fp=fp,
        fn=fn,
        n_sentences=len(gold_sets),
        per_category=per_category,
        malformed_outputs=malformed_outputs,
    )


def config_digest(config: Mapping[str, object]) -> str:
    """Short stable hash of a flat config mapping."""
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def append_csv_row(path: str | Path, report: MetricsReport, k_shot: int, source: str, target: str) -> None:
    """Append the report's result row, its seed first, writing the fixed header on first touch."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_COLUMNS)
        writer.writerow([report.seed, k_shot, source, target,
                         f"{report.precision:.6f}", f"{report.recall:.6f}", f"{report.f1:.6f}"])


def write_predictions(path: str | Path, sentences, span_lists: Sequence[Iterable[EntitySpan]],
                      malformed: Sequence[int]) -> None:
    """One JSON object per line: tokens, predicted [start, end, category] triples and the malformed count."""
    rows = [
        json.dumps({"tokens": list(sent.tokens), "spans": [[s.start, s.end, s.category] for s in spans],
                    "malformed": bad}, sort_keys=True)
        for sent, spans, bad in zip(sentences, span_lists, malformed, strict=True)
    ]
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")


def read_predictions(path: str | Path) -> tuple[list[list[EntitySpan]], int]:
    """Parse a predictions file; returns span lists and the summed malformed count."""
    span_lists: list[list[EntitySpan]] = []
    malformed = 0
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            spans = [EntitySpan(int(s), int(e), str(c)) for s, e, c in row["spans"]]
            malformed += int(row.get("malformed", 0))
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: bad prediction row ({exc})") from None
        span_lists.append(spans)
    return span_lists, malformed
