import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkgraph.evaluation import (
    AnnotatedSentence,
    AnnotatorRow,
    CoverageReport,
    DetectionRecord,
    EvalError,
    annotator_stats,
    coverage_stats,
    load_corpus,
    load_detections,
    load_label_map,
    render_annotator_table,
    render_coverage_table,
    render_histogram,
    report_json,
)
from folkgraph.vocab import NON_MORAL, PREFIXES, THIN_MORALITY
from kb import t

LABEL_MAP = {
    "Care": t("mft:Care"),
    "Loyalty": t("mft:Loyalty"),
    "Risk": t("folk:Risk"),
    "Thin Morality": THIN_MORALITY,
    "Non-Moral": NON_MORAL,
}


def row(sid, annotator, labels, confidence="Confident", text="x"):
    return AnnotatedSentence(sid, text, annotator, frozenset(labels), confidence)


def record(sid, values=(), no_graph=False):
    return DetectionRecord(sid, no_graph, frozenset(values))


# -- agreement ---------------------------------------------------------------


def test_single_annotator_agrees_trivially():
    rows = [
        row("s1", "A0", [t("mft:Care")]),
        row("s2", "A0", [NON_MORAL]),
        row("s3", "A0", [THIN_MORALITY], confidence="NotConfident"),
    ]
    assert annotator_stats(rows) == {"A0": AnnotatorRow(3, 2, 3, 3, 2)}


def test_agreement_columns_enumerated_by_hand():
    # s1: Care majority 2/3; s2: split pair, both morally loaded; s3: shared non-moral.
    rows = [
        row("s1", "A0", [t("mft:Care")]),
        row("s1", "A1", [t("mft:Care")]),
        row("s1", "A2", [NON_MORAL]),
        row("s2", "A0", [THIN_MORALITY], confidence="NotConfident"),
        row("s2", "A1", [t("mft:Care")]),
        row("s3", "A0", [NON_MORAL]),
        row("s3", "A1", [NON_MORAL], confidence="NotConfident"),
    ]
    assert annotator_stats(rows) == {
        "A0": AnnotatorRow(tot=3, tot_nc=2, agree=2, agree_tm=3, agree_tm_nc=2),
        "A1": AnnotatorRow(tot=3, tot_nc=2, agree=2, agree_tm=3, agree_tm_nc=2),
        "A2": AnnotatorRow(tot=1, tot_nc=1, agree=0, agree_tm=0, agree_tm_nc=0),
    }


def test_thin_morality_needs_a_morally_loaded_peer():
    rows = [
        row("q", "A0", [THIN_MORALITY]),
        row("q", "A1", [NON_MORAL]),
        row("q", "A2", [NON_MORAL]),
        row("q", "A3", [NON_MORAL]),
    ]
    stats = annotator_stats(rows)
    assert stats["A0"] == AnnotatorRow(1, 1, 0, 0, 0)
    assert stats["A1"].agree == 1


def test_opposed_values_count_as_mutual_thin_agreement():
    rows = [
        row("p", "A0", [t("mft:Care")]),
        row("p", "A1", [t("mft:Loyalty")]),
    ]
    stats = annotator_stats(rows)
    assert stats["A0"] == AnnotatorRow(1, 1, 0, 1, 1)
    assert stats["A1"] == AnnotatorRow(1, 1, 0, 1, 1)


# -- loading -----------------------------------------------------------------


def test_load_csv_corpus(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "id,text,annotator,labels,confidence\n"
        's1,"a risky move",A0,Risk|Care,Confident\n'
        "s1,a risky move,A1,Thin Morality,Somewhat Confident\n"
        "s2,plain talk,A0,Non-Moral,Not Confident\n"
    )
    load = load_corpus(corpus, LABEL_MAP)
    assert load.skipped == []
    assert [r.sentence_id for r in load.rows] == ["s1", "s1", "s2"]
    assert load.rows[0].labels == frozenset({t("folk:Risk"), t("mft:Care")})
    assert load.rows[1].labels == frozenset({THIN_MORALITY})
    assert load.rows[1].confidence == "SomewhatConfident"
    assert load.rows[2].confidence == "NotConfident"


def test_malformed_rows_skipped_with_line_numbers(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "id,text,annotator,labels,confidence\n"
        "s1,ok,A0,Care,Confident\n"
        "s2,too,few\n"
        "s3,x,A1,Care,Extremely Confident\n"
        "s4,x,A2,Care|Non-Moral,Confident\n"
        "s5,x,,Care,Confident\n"
    )
    load = load_corpus(corpus, LABEL_MAP)
    assert len(load.rows) == 1
    assert [line for line, _ in load.skipped] == [3, 4, 5, 6]


def test_unknown_label_is_a_hard_error(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("id,text,annotator,labels,confidence\ns1,x,A0,Bravery,Confident\n")
    with pytest.raises(EvalError, match="unknown label: 'Bravery'"):
        load_corpus(corpus, LABEL_MAP)


def test_header_only_csv_is_empty(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("id,text,annotator,labels,confidence\n")
    load = load_corpus(corpus, LABEL_MAP)
    assert load.rows == [] and load.skipped == []


def test_bad_header_rejected(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("id,annotator,labels\n")
    with pytest.raises(EvalError, match="expected header"):
        load_corpus(corpus, LABEL_MAP)


def test_load_jsonl_corpus(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"id": "s1", "text": "x", "annotator": "A0", "labels": ["Care"], "confidence": "Confident"})
        + "\n"
        + "{broken\n"
        + json.dumps({"id": "s2", "text": "y", "annotator": "A1", "labels": ["Non-Moral"], "confidence": "Not Confident"})
        + "\n"
    )
    load = load_corpus(corpus, LABEL_MAP)
    assert [r.sentence_id for r in load.rows] == ["s1", "s2"]
    assert [line for line, _ in load.skipped] == [2]


def test_corpus_format_follows_suffix(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("id,text,annotator,labels,confidence\ns1,x,A0,Care,Confident\n")
    assert [r.sentence_id for r in load_corpus(corpus, LABEL_MAP).rows] == ["s1"]


def test_label_map_file(tmp_path):
    path = tmp_path / "labels.cfg"
    path.write_text("# corpus label names\nCare = mft:Care\nThin Morality = fg:ThinMorality\n")
    mapping = load_label_map(path, PREFIXES)
    assert mapping == {"Care": t("mft:Care"), "Thin Morality": THIN_MORALITY}
    bad = tmp_path / "bad.cfg"
    bad.write_text("Care mft:Care\n")
    with pytest.raises(EvalError, match="malformed label map"):
        load_label_map(bad, PREFIXES)


def test_load_detections(tmp_path):
    path = tmp_path / "detections.jsonl"
    path.write_text(
        '{"id":"s1","noGraph":false,"values":["folk:Risk"]}\n'
        '{"id":"s2","noGraph":true,"values":[]}\n'
    )
    records = load_detections(path, PREFIXES)
    assert records["s1"].values == frozenset({t("folk:Risk")})
    assert records["s2"].no_graph
    path.write_text('{"id":"s1","noGraph":false,"values":[]}\n{"id":"s1","noGraph":false,"values":[]}\n')
    with pytest.raises(EvalError, match="duplicate detection"):
        load_detections(path, PREFIXES)


# -- coverage ------------------------------------------------------------------


def coverage_fixture():
    rows = [
        row("s1", "A0", [t("mft:Care")], confidence="NotConfident"),
        row("s1", "A1", [NON_MORAL]),
        row("s2", "A0", [THIN_MORALITY]),
        row("s3", "A1", [NON_MORAL]),
        row("s4", "A0", [t("mft:Care")]),
    ]
    records = {
        "s1": record("s1", values=[t("folk:Risk")]),
        "s2": record("s2"),
        "s3": record("s3", values=[t("folk:Risk"), t("mft:Care")]),
        "s4": record("s4", no_graph=True),
    }
    return rows, records


def test_coverage_stats_enumerated_by_hand():
    rows, records = coverage_fixture()
    report = coverage_stats(rows, records)
    assert report.total_sentences == 5
    assert report.graphs_produced == 4
    assert report.mft_annotated == 1
    assert report.mft_annotated_unique == 1
    assert report.thin_morality == 1
    assert report.non_moral == 2
    assert report.detected_any == 3
    assert report.overlap_tm_or_nm == 2
    assert report.per_value_histogram == {t("folk:Risk"): 2, t("mft:Care"): 1}
    assert sum(r.tot for r in report.per_annotator.values()) == report.graphs_produced


def test_coverage_requires_id_alignment():
    rows, records = coverage_fixture()
    with pytest.raises(EvalError, match="no detection record for corpus sentences: s4"):
        coverage_stats(rows, {k: v for k, v in records.items() if k != "s4"})
    records["s9"] = record("s9")
    with pytest.raises(EvalError, match="unknown sentences: s9"):
        coverage_stats(rows, records)


def test_empty_detections_detect_nothing():
    rows, records = coverage_fixture()
    empty = {k: DetectionRecord(k, v.no_graph, frozenset()) for k, v in records.items()}
    report = coverage_stats(rows, empty)
    assert report.detected_any == 0
    assert report.overlap_tm_or_nm == 0
    assert report.per_value_histogram == {}


def test_detections_everywhere_reach_graph_count():
    rows, records = coverage_fixture()
    full = {
        k: DetectionRecord(k, v.no_graph, frozenset() if v.no_graph else frozenset({t("folk:Risk")}))
        for k, v in records.items()
    }
    report = coverage_stats(rows, full)
    assert report.detected_any == report.graphs_produced


# -- rendering -----------------------------------------------------------------


def test_rendered_tables_are_aligned_text():
    rows, records = coverage_fixture()
    report = coverage_stats(rows, records)
    table1 = render_annotator_table(report.per_annotator)
    assert table1.splitlines()[0].split() == ["Annotator", "Tot", "Tot-NC", "Agree", "Agree+TM", "Agree+TM-NC"]
    table2 = render_coverage_table(report)
    assert table2.splitlines()[1].split() == ["5", "4", "1", "1", "2", "3", "2"]
    hist = render_histogram(report, PREFIXES)
    assert hist == "folk:Risk\t2\nmft:Care\t1\n"
    payload = json.loads(report_json(report, PREFIXES))
    assert payload["overlapWithTMorNM"] == 2
    assert payload["perValueHistogram"] == {"folk:Risk": 2, "mft:Care": 1}


# -- properties ------------------------------------------------------------------

VALUE_TERMS = [t("mft:Care"), t("mft:Loyalty"), t("folk:Risk")]

label_sets = st.one_of(
    st.just(frozenset({NON_MORAL})),
    st.just(frozenset({THIN_MORALITY})),
    st.sets(st.sampled_from(VALUE_TERMS), min_size=1, max_size=2).map(frozenset),
)

corpus_rows = st.lists(
    st.builds(
        AnnotatedSentence,
        sentence_id=st.sampled_from([f"s{i}" for i in range(8)]),
        text=st.just("x"),
        annotator=st.sampled_from(["A0", "A1", "A2", "A3"]),
        labels=label_sets,
        confidence=st.sampled_from(["Confident", "SomewhatConfident", "NotConfident"]),
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def corpus_and_records(draw):
    rows = draw(corpus_rows)
    records = {}
    for sid in {r.sentence_id for r in rows}:
        no_graph = draw(st.booleans())
        values = frozenset() if no_graph else draw(st.sets(st.sampled_from(VALUE_TERMS), max_size=3))
        records[sid] = DetectionRecord(sid, no_graph, frozenset(values))
    return rows, records


@settings(max_examples=120, deadline=None)
@given(corpus_and_records())
def test_coverage_invariants_hold(data):
    rows, records = data
    report = coverage_stats(rows, records)
    assert report.detected_any <= report.graphs_produced <= report.total_sentences
    assert report.overlap_tm_or_nm <= report.detected_any
    assert report.mft_annotated + report.thin_morality + report.non_moral >= report.graphs_produced
    assert sum(r.tot for r in report.per_annotator.values()) == report.graphs_produced
    for stats in report.per_annotator.values():
        assert stats.tot_nc <= stats.tot
        assert stats.agree <= stats.agree_tm <= stats.tot
        assert stats.agree_tm_nc <= min(stats.agree_tm, stats.tot_nc)
    assert sum(report.per_value_histogram.values()) == sum(len(r.values) for r in records.values())
    again = coverage_stats(rows, records)
    assert again == report
