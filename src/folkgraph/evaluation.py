"""Corpus statistics for annotated sentences versus detector output.

A corpus row is one (sentence, annotator) pair; the same sentence id recurs
once per annotator, and all counting except the per-value histogram is over
rows, not unique sentences. Labels are either value IRIs or one of the two
markers (thin morality, non-moral); the markers exclude each other and any
value label on a single row.

Agreement is defined here, since the numbers it feeds are conventions of
this codebase: the majority label set of a sentence contains every label
chosen by a strict majority of its annotators (a single annotator is a
majority of one), a row agrees when it shares a label with the majority set,
and the relaxed column additionally accepts rows where both the annotator
and at least one co-annotator chose morally loaded labels of any kind.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import vocab
from .config import config_pairs
from .rdfio import PrefixTable
from .terms import Term

CONFIDENCE_LEVELS = ("Confident", "SomewhatConfident", "NotConfident")
CORPUS_COLUMNS = ["id", "text", "annotator", "labels", "confidence"]


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class AnnotatedSentence:
    sentence_id: str
    text: str
    annotator: str
    labels: frozenset[Term]
    confidence: str

    @property
    def moral(self) -> bool:
        """Anything but a pure non-moral labeling counts as morally loaded."""
        return any(label != vocab.NON_MORAL for label in self.labels)

    @property
    def has_value_label(self) -> bool:
        return any(label not in (vocab.NON_MORAL, vocab.THIN_MORALITY) for label in self.labels)


@dataclass
class CorpusLoad:
    rows: list[AnnotatedSentence]
    skipped: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class DetectionRecord:
    sentence_id: str
    no_graph: bool
    values: frozenset[Term]

    @classmethod
    def from_summary(cls, payload: dict, prefixes: PrefixTable) -> "DetectionRecord":
        return cls(
            sentence_id=payload["id"],
            no_graph=bool(payload["noGraph"]),
            values=frozenset(prefixes.expand(v) for v in payload.get("values", [])),
        )


@dataclass(frozen=True)
class AnnotatorRow:
    tot: int
    tot_nc: int
    agree: int
    agree_tm: int
    agree_tm_nc: int


@dataclass
class CoverageReport:
    total_sentences: int
    graphs_produced: int
    mft_annotated: int
    mft_annotated_unique: int
    thin_morality: int
    non_moral: int
    detected_any: int
    overlap_tm_or_nm: int
    per_annotator: dict[str, AnnotatorRow]
    per_value_histogram: dict[Term, int]


# -- loading -------------------------------------------------------------------


def load_label_map(path: str | Path, prefixes: PrefixTable) -> dict[str, Term]:
    mapping: dict[str, Term] = {}
    for label, name in config_pairs(path, EvalError, "label map entry"):
        if not label or not name:
            raise EvalError(f"{path}: malformed label map entry: {label} = {name}")
        mapping[label] = prefixes.expand(name, path)
    return mapping


def _canonical_confidence(raw: str) -> str:
    folded = raw.replace(" ", "")
    if folded not in CONFIDENCE_LEVELS:
        raise ValueError(f"unknown confidence {raw!r}")
    return folded


def _map_labels(raw_labels: list[str], label_map: dict[str, Term]) -> frozenset[Term]:
    labels = set()
    for raw in raw_labels:
        name = raw.strip()
        if not name:
            continue
        if name not in label_map:
            raise EvalError(f"unknown label: {name!r}")
        labels.add(label_map[name])
    if not labels:
        raise ValueError("row has no labels")
    markers = labels & {vocab.NON_MORAL, vocab.THIN_MORALITY}
    if markers and (len(markers) > 1 or len(labels) > 1):
        raise ValueError("marker labels exclude any other label")
    return frozenset(labels)


def _build_row(
    line: int,
    sentence_id: str,
    text: str,
    annotator: str,
    raw_labels: list[str],
    confidence: str,
    label_map: dict[str, Term],
    load: CorpusLoad,
) -> None:
    try:
        if not sentence_id or not annotator:
            raise ValueError("missing id or annotator")
        row = AnnotatedSentence(
            sentence_id=sentence_id,
            text=text,
            annotator=annotator,
            labels=_map_labels(raw_labels, label_map),
            confidence=_canonical_confidence(confidence),
        )
    except EvalError:
        raise
    except ValueError as exc:
        load.skipped.append((line, str(exc)))
        return
    load.rows.append(row)


def load_corpus(path: str | Path, label_map: dict[str, Term]) -> CorpusLoad:
    """A ``.jsonl`` corpus is JSON lines; any other suffix is CSV."""
    path = Path(path)
    return _load_jsonl(path, label_map) if path.suffix == ".jsonl" else _load_csv(path, label_map)


def _load_csv(path: Path, label_map: dict[str, Term]) -> CorpusLoad:
    load = CorpusLoad(rows=[])
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EvalError(f"{path}: empty corpus file") from None
        if header != CORPUS_COLUMNS:
            raise EvalError(f"{path}: expected header {','.join(CORPUS_COLUMNS)}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(CORPUS_COLUMNS):
                load.skipped.append((line, f"expected {len(CORPUS_COLUMNS)} fields, found {len(row)}"))
                continue
            sentence_id, text, annotator, labels, confidence = row
            _build_row(line, sentence_id, text, annotator, labels.split("|"), confidence, label_map, load)
    return load


def _load_jsonl(path: Path, label_map: dict[str, Term]) -> CorpusLoad:
    load = CorpusLoad(rows=[])
    for line, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            payload = json.loads(raw)
            sentence_id = payload["id"]
            text = payload.get("text", "")
            annotator = payload["annotator"]
            raw_labels = payload["labels"]
            confidence = payload["confidence"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            load.skipped.append((line, f"bad record: {exc}"))
            continue
        if not isinstance(raw_labels, list):
            load.skipped.append((line, "labels must be a list"))
            continue
        _build_row(line, str(sentence_id), text, annotator, raw_labels, confidence, label_map, load)
    return load


def load_detections(path: str | Path, prefixes: PrefixTable) -> dict[str, DetectionRecord]:
    records: dict[str, DetectionRecord] = {}
    for line, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = DetectionRecord.from_summary(json.loads(raw), prefixes)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise EvalError(f"{path}:{line}: bad detection record: {exc}") from None
        if record.sentence_id in records:
            raise EvalError(f"{path}:{line}: duplicate detection for {record.sentence_id!r}")
        records[record.sentence_id] = record
    return records


# -- statistics ------------------------------------------------------------------


def _majority_labels(rows: list[AnnotatedSentence]) -> set[Term]:
    counts: Counter[Term] = Counter()
    for row in rows:
        counts.update(row.labels)
    threshold = len(rows) / 2
    return {label for label, count in counts.items() if count > threshold}


def annotator_stats(rows: list[AnnotatedSentence]) -> dict[str, AnnotatorRow]:
    by_sentence: dict[str, list[AnnotatedSentence]] = {}
    for row in rows:
        by_sentence.setdefault(row.sentence_id, []).append(row)

    tallies: dict[str, Counter[str]] = {}
    for group in by_sentence.values():
        majority = _majority_labels(group)
        any_moral_count = sum(1 for row in group if row.moral)
        for row in group:
            agree = bool(row.labels & majority)
            peers_moral = any_moral_count - (1 if row.moral else 0) > 0
            agree_tm = agree or (row.moral and peers_moral)
            tally = tallies.setdefault(row.annotator, Counter())
            tally["tot"] += 1
            if row.confidence != "NotConfident":
                tally["tot_nc"] += 1
                if agree_tm:
                    tally["agree_tm_nc"] += 1
            if agree:
                tally["agree"] += 1
            if agree_tm:
                tally["agree_tm"] += 1

    return {
        annotator: AnnotatorRow(
            tot=tally["tot"],
            tot_nc=tally["tot_nc"],
            agree=tally["agree"],
            agree_tm=tally["agree_tm"],
            agree_tm_nc=tally["agree_tm_nc"],
        )
        for annotator, tally in sorted(tallies.items())
    }


def _check_id_alignment(rows: list[AnnotatedSentence], records: dict[str, DetectionRecord]) -> None:
    corpus_ids = {row.sentence_id for row in rows}
    missing = sorted(corpus_ids - set(records))
    unknown = sorted(set(records) - corpus_ids)
    if missing:
        raise EvalError(f"no detection record for corpus sentences: {', '.join(missing[:10])}")
    if unknown:
        raise EvalError(f"detection records for unknown sentences: {', '.join(unknown[:10])}")


def coverage_stats(
    rows: list[AnnotatedSentence], records: dict[str, DetectionRecord]
) -> CoverageReport:
    _check_id_alignment(rows, records)
    graph_rows = [row for row in rows if not records[row.sentence_id].no_graph]
    detected_rows = [row for row in graph_rows if records[row.sentence_id].values]

    histogram: dict[Term, int] = {}
    for record in records.values():
        for value in record.values:
            histogram[value] = histogram.get(value, 0) + 1

    return CoverageReport(
        total_sentences=len(rows),
        graphs_produced=len(graph_rows),
        mft_annotated=sum(1 for row in graph_rows if row.has_value_label),
        mft_annotated_unique=len({r.sentence_id for r in graph_rows if r.has_value_label}),
        thin_morality=sum(1 for row in graph_rows if vocab.THIN_MORALITY in row.labels),
        non_moral=sum(1 for row in graph_rows if vocab.NON_MORAL in row.labels),
        detected_any=len(detected_rows),
        overlap_tm_or_nm=sum(1 for row in detected_rows if not row.has_value_label),
        per_annotator=annotator_stats(graph_rows),
        per_value_histogram=histogram,
    )


# -- rendering -------------------------------------------------------------------


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def render_annotator_table(per_annotator: dict[str, AnnotatorRow]) -> str:
    rows = [["Annotator", "Tot", "Tot-NC", "Agree", "Agree+TM", "Agree+TM-NC"]]
    for annotator, row in sorted(per_annotator.items()):
        rows.append(
            [annotator, str(row.tot), str(row.tot_nc), str(row.agree), str(row.agree_tm), str(row.agree_tm_nc)]
        )
    return _aligned(rows)


def render_coverage_table(report: CoverageReport) -> str:
    rows = [
        ["Total", "Graphs", "Values", "TM", "NM", "Detected", "Overlap"],
        [
            str(report.total_sentences),
            str(report.graphs_produced),
            str(report.mft_annotated),
            str(report.thin_morality),
            str(report.non_moral),
            str(report.detected_any),
            str(report.overlap_tm_or_nm),
        ],
    ]
    table = _aligned(rows)
    return table + f"(unique sentences with a value label: {report.mft_annotated_unique})\n"


def render_histogram(report: CoverageReport, prefixes: PrefixTable) -> str:
    pairs = sorted(
        report.per_value_histogram.items(), key=lambda kv: (-kv[1], prefixes.shorten(kv[0]))
    )
    return "".join(f"{prefixes.shorten(value)}\t{count}\n" for value, count in pairs)


def report_json(report: CoverageReport, prefixes: PrefixTable) -> str:
    payload = {
        "totalSentences": report.total_sentences,
        "graphsProduced": report.graphs_produced,
        "mftAnnotated": report.mft_annotated,
        "mftAnnotatedUnique": report.mft_annotated_unique,
        "thinMorality": report.thin_morality,
        "nonMoral": report.non_moral,
        "detectedAny": report.detected_any,
        "overlapWithTMorNM": report.overlap_tm_or_nm,
        "perAnnotator": {
            annotator: {
                "tot": row.tot,
                "totNC": row.tot_nc,
                "agree": row.agree,
                "agreeTM": row.agree_tm,
                "agreeTMNC": row.agree_tm_nc,
            }
            for annotator, row in report.per_annotator.items()
        },
        "perValueHistogram": {
            prefixes.shorten(value): count for value, count in report.per_value_histogram.items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
