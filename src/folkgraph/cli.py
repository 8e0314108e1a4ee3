"""Command-line pipeline: build-kb, expand, detect, eval.

Commands communicate through the workspace directory only, so each run is
reproducible from the manifest plus fixture files. ``expand`` and ``detect``
set up from the snapshot ``build-kb`` writes when it matches the workspace,
else from the graph files (``open_expander``, ``open_detector``); ``detect``
opens its detector once, and with ``--jobs N`` the worker processes
receive it at start-up, forked where the platform can fork, each writes the
graph files of its sentences, and the parent writes ``summary.jsonl`` in
input order as results arrive. Exit codes: 0 on success,
2 for input or configuration problems, 3 for data-consistency problems
(stale selection files, corpus/detection mismatches, duplicate ids or ids
that share an output file name).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from pathlib import Path

from .detector import Detector, DetectorError
from .evaluation import (
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
from .expansion import PlanError, StaleSelectionError, parse_plan
from .lexicon import LexiconError
from .manifest import (
    ManifestError,
    build_workspace,
    load_manifest,
    open_detector,
    open_expander,
    safe_name,
    workspace_dir,
)
from .rdfio import ParseError, PrefixTable, to_ntriples
from .store import StoreError
from .values import ValueModelError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DATA = 3


class DataError(ValueError):
    """Input that parses but contradicts itself (duplicate ids and the like)."""


# -- commands ----------------------------------------------------------------


def cmd_build_kb(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    workspace = workspace_dir(args.manifest)
    meta = build_workspace(manifest, workspace)
    counts = meta["counts"]
    print(f"workspace: {workspace}")
    print(f"graphs: {counts['graphs']}  triples: {counts['triples']}  values: {counts['values']}")
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    workspace = workspace_dir(args.manifest)
    expander = open_expander(workspace, manifest.prefixes)

    plans = [parse_plan(path, manifest.prefixes) for path in manifest.plans]
    owned = {safe_name(manifest.prefixes.compact(plan.value.value)) for plan in plans}
    if args.value is not None:
        wanted = manifest.prefixes.expand(args.value)
        plans = [plan for plan in plans if plan.value == wanted]
        if not plans:
            raise ManifestError(f"no expansion plan for value {args.value!r}")

    triggers_dir = workspace / "triggers"
    reports_dir = workspace / "reports"
    triggers_dir.mkdir(parents=True, exist_ok=True)
    reports_dir.mkdir(parents=True, exist_ok=True)
    # Output of plans no longer in the manifest would still be loaded by detect.
    for path in sorted([*triggers_dir.glob("*.nt"), *reports_dir.glob("*.json")]):
        if path.stem not in owned:
            path.unlink()
            print(f"removed stale {path.parent.name}/{path.name}")

    for plan in plans:
        report = expander.run_plan(plan)
        short = manifest.prefixes.compact(plan.value.value)
        stem = safe_name(short)
        triples = expander.graph_triples(report)
        (triggers_dir / f"{stem}.nt").write_text(to_ntriples(triples), encoding="utf-8")
        payload = json.dumps(report.to_json_dict(manifest.prefixes), indent=2, sort_keys=True)
        (reports_dir / f"{stem}.json").write_text(payload + "\n", encoding="utf-8")
        note = ""
        proposed = report.proposed()
        if proposed:
            note = f"  (proposed, awaiting selection: {' '.join(proposed)})"
        print(f"{short}: {len(report.edges)} trigger edges, {len(triples)} triples{note}")
    print(f"plans run: {len(plans)}")
    return EXIT_OK


def _read_sentences(path: Path) -> list[tuple[str, str]]:
    if not path.is_file():
        raise ManifestError(f"input file does not exist: {path}")
    pairs: list[tuple[str, str]] = []
    if path.suffix == ".jsonl":
        for line, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if not raw.strip():
                continue
            try:
                payload = json.loads(raw)
                sentence_id, text = str(payload["id"]), payload["text"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ManifestError(f"{path}:{line}: bad sentence record: {exc}") from None
            if not isinstance(text, str):
                raise ManifestError(f"{path}:{line}: bad sentence record: text is not a string")
            if not text:
                raise ManifestError(f"{path}:{line}: empty sentence text")
            pairs.append((sentence_id, text))
    else:
        for line, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if raw.strip():
                pairs.append((str(line), raw))
    seen: dict[str, str] = {}  # output file stem -> sentence id
    for sentence_id, _ in pairs:
        stem = safe_name(sentence_id)
        if stem in seen:
            if seen[stem] == sentence_id:
                raise DataError(f"{path}: duplicate sentence id {sentence_id!r}")
            raise DataError(f"{path}: sentence ids {seen[stem]!r} and {sentence_id!r} both write {stem}.nt")
        seen[stem] = sentence_id
    return pairs


# The detector, prefix table and output directory of the running detect command.
# --jobs workers receive them as initargs: inherited under fork, pickled otherwise,
# which costs seconds for a large knowledge base, so workers fork where they can.
_detect_context: tuple[Detector, PrefixTable, Path] | None = None


def _set_detect_context(detector: Detector, prefixes: PrefixTable, out_dir: Path) -> None:
    global _detect_context
    _detect_context = (detector, prefixes, out_dir)


def _detect_one(item: tuple[str, str]) -> tuple[str, bool]:
    """Detect one sentence and write its graph file, if it has a graph; return
    its summary line and whether it had one."""
    detector, prefixes, out_dir = _detect_context
    sentence_id, text = item
    result = detector.run(text, sentence_id)
    has_graph = not result.graph.no_graph
    if has_graph:
        (out_dir / f"{safe_name(sentence_id)}.nt").write_text(to_ntriples(result.triples()), encoding="utf-8")
    return result.summary_line(prefixes), has_graph


def cmd_detect(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    workspace = workspace_dir(args.manifest)
    sentences = _read_sentences(Path(args.input))
    out_dir = Path(args.out)
    context = (open_detector(workspace, manifest.detector_mode), manifest.prefixes, out_dir)
    _set_detect_context(*context)
    out_dir.mkdir(parents=True, exist_ok=True)

    graphs = 0
    with ExitStack() as stack:
        results = map(_detect_one, sentences)
        if args.jobs > 1:
            fork = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
            pool = stack.enter_context(
                ProcessPoolExecutor(
                    max_workers=args.jobs, mp_context=fork, initializer=_set_detect_context, initargs=context
                )
            )
            results = pool.map(_detect_one, sentences, chunksize=max(1, len(sentences) // (args.jobs * 4)))
        summary = stack.enter_context((out_dir / "summary.jsonl").open("w", encoding="utf-8"))
        for line, has_graph in results:  # in input order, written as results arrive
            summary.write(line + "\n")
            graphs += has_graph
    print(f"sentences: {len(sentences)}  graphs: {graphs}  noGraph: {len(sentences) - graphs}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    if manifest.corpus is None:
        raise ManifestError(f"{manifest.path}: eval needs a corpus entry in the manifest")
    if manifest.label_map is None:
        raise ManifestError(f"{manifest.path}: eval needs a labelMap entry in the manifest")
    workspace = workspace_dir(args.manifest)
    label_map = load_label_map(manifest.label_map, manifest.prefixes)
    load = load_corpus(manifest.corpus, label_map)
    for line, reason in load.skipped:
        print(f"skipped corpus row at line {line}: {reason}", file=sys.stderr)

    eval_dir = workspace / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)

    if args.detections is None:
        table = render_annotator_table(annotator_stats(load.rows))
        (eval_dir / "annotators.txt").write_text(table, encoding="utf-8")
        print(table, end="")
        return EXIT_OK

    records = load_detections(args.detections, manifest.prefixes)
    report = coverage_stats(load.rows, records)
    table1 = render_annotator_table(report.per_annotator)
    table2 = render_coverage_table(report)
    (eval_dir / "annotators.txt").write_text(table1, encoding="utf-8")
    (eval_dir / "coverage.txt").write_text(table2, encoding="utf-8")
    (eval_dir / "histogram.tsv").write_text(render_histogram(report, manifest.prefixes), encoding="utf-8")
    (eval_dir / "report.json").write_text(report_json(report, manifest.prefixes), encoding="utf-8")
    print(table1, end="")
    print(table2, end="")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folkgraph",
        description="Knowledge-graph value detection pipeline.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build-kb", help="load fixture graphs and freeze a workspace")
    build.set_defaults(func=cmd_build_kb)

    expand = commands.add_parser("expand", help="run trigger expansion plans")
    scope = expand.add_mutually_exclusive_group(required=True)
    scope.add_argument("--value", help="expand a single value (IRI or prefixed name)")
    scope.add_argument("--all", action="store_true", help="expand every plan in the manifest")
    expand.set_defaults(func=cmd_expand)

    detect = commands.add_parser("detect", help="annotate sentences and detect value activations")
    detect.add_argument("--input", required=True, help="sentences file (.jsonl with id/text, else one per line)")
    detect.add_argument("--out", required=True, help="output directory for graphs and summary.jsonl")
    detect.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker processes (at least 1)")
    detect.set_defaults(func=cmd_detect)

    evaluate = commands.add_parser("eval", help="corpus statistics and detection coverage")
    evaluate.add_argument("--detections", help="summary.jsonl from a detect run")
    evaluate.set_defaults(func=cmd_eval)

    for sub in (build, expand, detect, evaluate):
        sub.add_argument("--manifest", required=True, help="pipeline manifest file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StaleSelectionError, EvalError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        ManifestError,
        PlanError,
        ParseError,
        LexiconError,
        ValueModelError,
        StoreError,
        DetectorError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
