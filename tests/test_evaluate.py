"""Exact-match scoring, report files, and the results CSV."""
import json
from dataclasses import replace

import pytest

from plugner.data import AnnotatedSentence, Corpus, EntitySpan
from plugner.errors import EvalLengthError, FormatError
from plugner.evaluate import (
    CSV_COLUMNS,
    append_csv_row,
    config_digest,
    evaluate,
    read_predictions,
    write_predictions,
)


def span(s, e, c):
    return EntitySpan(s, e, c)


def test_half_right_scores_one_half():
    gold = [[span(1, 2, "A"), span(4, 4, "B")]]
    pred = [[span(1, 2, "A"), span(3, 3, "C")]]
    report = evaluate(gold, pred)
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == 0.5
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)


def test_perfect_prediction_scores_one():
    gold = [[span(1, 2, "A")], [span(3, 5, "B")]]
    report = evaluate(gold, [list(g) for g in gold])
    assert report.precision == report.recall == report.f1 == 1.0
    assert report.n_sentences == 2


def test_right_boundaries_wrong_category_counts_twice():
    gold = [[span(1, 2, "A")]]
    report = evaluate(gold, [[span(1, 2, "B")]])
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)
    assert report.f1 == 0.0


def test_duplicates_count_once():
    gold = [[span(1, 2, "A"), span(1, 2, "A")]]
    report = evaluate(gold, [[span(1, 2, "A"), span(1, 2, "A"), span(1, 2, "A")]])
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)


def test_empty_cases_do_not_divide_by_zero():
    assert evaluate([[]], [[]]).f1 == 0.0
    assert evaluate([[span(1, 1, "A")]], [[]]).recall == 0.0
    assert evaluate([[]], [[span(1, 1, "A")]]).precision == 0.0


def test_boundary_offsets_matter():
    gold = [[span(1, 3, "A")]]
    assert evaluate(gold, [[span(1, 2, "A")]]).tp == 0
    assert evaluate(gold, [[span(2, 3, "A")]]).tp == 0
    assert evaluate(gold, [[span(1, 3, "A")]]).tp == 1


def test_sentence_alignment_is_positional():
    # the same span in the wrong sentence is both a miss and a false alarm
    gold = [[span(1, 1, "A")], []]
    pred = [[], [span(1, 1, "A")]]
    report = evaluate(gold, pred)
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)


def test_corpus_input_is_accepted():
    sent = AnnotatedSentence(tokens=("red", "fox"), spans=(span(2, 2, "animal"),))
    corpus = Corpus(sentences=[sent], label_set=("animal",))
    report = evaluate(corpus, [[span(2, 2, "animal")]])
    assert report.f1 == 1.0


def test_length_mismatch_names_both_counts():
    with pytest.raises(EvalLengthError, match="2.*1|1.*2"):
        evaluate([[], []], [[]])


def test_per_category_tallies():
    gold = [[span(1, 1, "A"), span(2, 2, "B")]]
    pred = [[span(1, 1, "A"), span(3, 3, "B"), span(4, 4, "C")]]
    report = evaluate(gold, pred)
    a, b, c = report.per_category["A"], report.per_category["B"], report.per_category["C"]
    assert (a.tp, a.fp, a.fn) == (1, 0, 0)
    assert (b.tp, b.fp, b.fn) == (0, 1, 1)
    assert (c.tp, c.fp, c.fn) == (0, 1, 0)
    assert a.scores == (1.0, 1.0, 1.0)


def test_micro_average_pools_counts():
    gold = [[span(1, 1, "A")], [span(1, 1, "B"), span(2, 2, "B"), span(3, 3, "B")]]
    pred = [[span(1, 1, "A")], []]
    report = evaluate(gold, pred)
    assert report.precision == 1.0
    assert report.recall == 0.25


# ---------------------------------------------------------------------------
# report files


def test_json_report_schema(tmp_path):
    gold = [[span(1, 2, "A")]]
    report = replace(evaluate(gold, [[span(1, 2, "A")]], malformed_outputs=3), seed=42, config_digest="abc123")
    path = tmp_path / "metrics.json"
    report.write_json(path)
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["f1"] == 1.0
    assert data["seed"] == 42
    assert data["config_digest"] == "abc123"
    assert data["malformed_outputs"] == 3
    assert data["per_category"]["A"]["tp"] == 1


def test_config_digest_is_stable_and_order_free():
    a = config_digest({"x": 1, "y": "z"})
    b = config_digest({"y": "z", "x": 1})
    assert a == b
    assert len(a) == 12
    assert a != config_digest({"x": 2, "y": "z"})


def test_csv_rows_append_with_single_header(tmp_path):
    path = tmp_path / "results.csv"
    report = evaluate([[span(1, 1, "A")]], [[span(1, 1, "A")]])
    append_csv_row(path, replace(report, seed=1), k_shot=20, source="source", target="target")
    append_csv_row(path, replace(report, seed=2), k_shot=20, source="source", target="target")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("1,20,source,target,1.000000")
    assert lines[2].startswith("2,20,")


# ---------------------------------------------------------------------------
# prediction files


def test_predictions_round_trip(tmp_path):
    sents = [
        AnnotatedSentence(tokens=("a", "red", "door"), spans=()),
        AnnotatedSentence(tokens=("the", "fox",), spans=()),
    ]
    spans = [[span(2, 2, "color")], []]
    path = tmp_path / "pred.jsonl"
    write_predictions(path, sents, spans, malformed=[1, 0])
    loaded, malformed = read_predictions(path)
    assert loaded == spans
    assert malformed == 1
    first = json.loads(path.read_text().splitlines()[0])
    assert first["tokens"] == ["a", "red", "door"]
    assert first["spans"] == [[2, 2, "color"]]
    with pytest.raises(ValueError):  # a missing span list is an error, not a shorter file
        write_predictions(path, sents, spans[:1], malformed=[1, 0])


def test_empty_predictions_file(tmp_path):
    path = tmp_path / "pred.jsonl"
    write_predictions(path, [], [], [])
    loaded, malformed = read_predictions(path)
    assert loaded == []
    assert malformed == 0


def test_malformed_prediction_row_names_the_line(tmp_path):
    path = tmp_path / "pred.jsonl"
    good = json.dumps({"tokens": ["a"], "spans": []})
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"pred\.jsonl:2"):
        read_predictions(path)
    path.write_text(json.dumps({"tokens": ["a"]}) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=":1"):
        read_predictions(path)
    for row in ('{"tokens": ["a"], "spans": [[1e400, 1, "x"]]}', '{"tokens": ["a"], "spans": [], "malformed": 1e400}'):
        path.write_text(good + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"pred\.jsonl:2: bad prediction row"):
            read_predictions(path)
