"""End-to-end pipeline runs through the command-line entry point."""

import json
import multiprocessing
import os

import pytest

from folkgraph import cli, vocab
from folkgraph import manifest as workspace_io
from folkgraph.cli import main
from folkgraph.manifest import SNAPSHOT_FILE
from folkgraph.rdfio import parse_ntriples

from kb import MINI_CORPUS, MINI_LEXICON, MINI_MANIFEST, MINI_PLAN, MINI_SENTENCES, PREFIX_HEADER, write_mini_pipeline


@pytest.fixture(autouse=True)
def clean_workspace_env(monkeypatch):
    monkeypatch.delenv("FOLKGRAPH_WORKSPACE", raising=False)


@pytest.fixture
def root(tmp_path):
    write_mini_pipeline(tmp_path)
    return tmp_path


@pytest.fixture
def manifest(root):
    return str(root / "manifest.cfg")


@pytest.fixture
def built(root, manifest):
    assert main(["build-kb", "--manifest", manifest]) == 0
    return root


def write_sentences(path, pairs=MINI_SENTENCES):
    lines = "".join(json.dumps({"id": sid, "text": text}) + "\n" for sid, text in pairs)
    path.write_text(lines, encoding="utf-8")
    return str(path)


def read_summaries(out_dir):
    lines = (out_dir / "summary.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


# -- the full pipeline ------------------------------------------------------------


def test_full_pipeline(root, manifest, built, capsys):
    workspace = root / "workspace"
    assert (workspace / "meta.json").is_file()

    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    trigger_file = workspace / "triggers" / "folk_Risk.nt"
    report_file = workspace / "reports" / "folk_Risk.json"
    assert trigger_file.read_text(encoding="utf-8").count("\n") > 0
    report = json.loads(report_file.read_text(encoding="utf-8"))
    assert report["value"] == "folk:Risk"
    assert {e["kind"] for e in report["edges"]} >= {"frame", "synset", "verbClass"}

    out_dir = root / "out"
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(out_dir)]) == 0

    summaries = read_summaries(out_dir)
    assert [s["id"] for s in summaries] == ["s1", "s2", "s3", "s4"]
    assert summaries[0]["values"] == ["folk:Risk"]
    assert summaries[1]["noGraph"] is True and summaries[1]["values"] == []
    assert summaries[2]["values"] == ["folk:Risk"]
    assert summaries[3]["noGraph"] is False and summaries[3]["values"] == []
    assert (out_dir / "s1.nt").is_file()
    assert not (out_dir / "s2.nt").exists()
    assert (out_dir / "s4.nt").is_file()

    capsys.readouterr()
    code = main(["eval", "--manifest", manifest, "--detections", str(out_dir / "summary.jsonl")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Annotator" in stdout and "Agree+TM-NC" in stdout
    assert "Total" in stdout and "Overlap" in stdout

    payload = json.loads((workspace / "eval" / "report.json").read_text(encoding="utf-8"))
    assert payload["totalSentences"] == 5
    assert payload["graphsProduced"] == 4
    assert payload["mftAnnotated"] == 3
    assert payload["mftAnnotatedUnique"] == 2
    assert payload["thinMorality"] == 0
    assert payload["nonMoral"] == 1
    assert payload["detectedAny"] == 3
    assert payload["overlapWithTMorNM"] == 0
    assert payload["perAnnotator"]["A0"] == {
        "tot": 3, "totNC": 2, "agree": 3, "agreeTM": 3, "agreeTMNC": 2,
    }
    assert payload["perAnnotator"]["A1"] == {
        "tot": 1, "totNC": 1, "agree": 1, "agreeTM": 1, "agreeTMNC": 1,
    }
    assert payload["perValueHistogram"] == {"folk:Risk": 2}
    assert (workspace / "eval" / "histogram.tsv").read_text(encoding="utf-8") == "folk:Risk\t2\n"
    assert (workspace / "eval" / "annotators.txt").is_file()
    assert (workspace / "eval" / "coverage.txt").is_file()


def test_outputs_are_deterministic(root, manifest, built):
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    workspace = root / "workspace"
    first_triggers = (workspace / "triggers" / "folk_Risk.nt").read_bytes()
    first_report = (workspace / "reports" / "folk_Risk.json").read_bytes()
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    assert (workspace / "triggers" / "folk_Risk.nt").read_bytes() == first_triggers
    assert (workspace / "reports" / "folk_Risk.json").read_bytes() == first_report

    inputs = write_sentences(root / "sentences.jsonl")
    for out_name in ("out1", "out2"):
        assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / out_name)]) == 0
    for name in ("summary.jsonl", "s1.nt", "s3.nt", "s4.nt"):
        assert (root / "out1" / name).read_bytes() == (root / "out2" / name).read_bytes()


def test_parallel_detect_matches_serial(root, manifest, built):
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "serial")]) == 0
    code = main(
        ["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "parallel", ), "--jobs", "2"]
    )
    assert code == 0
    serial = sorted(p.name for p in (root / "serial").iterdir())
    assert serial == sorted(p.name for p in (root / "parallel").iterdir())
    assert serial == ["s1.nt", "s3.nt", "s4.nt", "summary.jsonl"]
    for name in serial:
        assert (root / "serial" / name).read_bytes() == (root / "parallel" / name).read_bytes()


def log_calls(monkeypatch, module, name, log):
    """Append the calling pid to ``log`` on every call of ``module.name``."""
    original = getattr(module, name)

    def logged(*args):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(*args)

    monkeypatch.setattr(module, name, logged)


def pids(log):
    return log.read_text(encoding="utf-8").split() if log.exists() else []


def test_parallel_detect_sets_up_once_in_the_parent(root, manifest, built, monkeypatch):
    log_calls(monkeypatch, cli, "open_detector", root / "open_detector.log")
    log_calls(monkeypatch, workspace_io, "load_workspace", root / "load_workspace.log")
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out"), "--jobs", "2"]) == 0
    assert pids(root / "open_detector.log") == [str(os.getpid())]
    assert pids(root / "load_workspace.log") == []  # the snapshot served


def test_parallel_detect_without_snapshot_sets_up_once_in_the_parent(root, manifest, built, monkeypatch):
    (root / "workspace" / SNAPSHOT_FILE).unlink()
    log_calls(monkeypatch, cli, "open_detector", root / "open_detector.log")
    log_calls(monkeypatch, workspace_io, "load_workspace", root / "load_workspace.log")
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out"), "--jobs", "2"]) == 0
    assert pids(root / "open_detector.log") == [str(os.getpid())]
    assert pids(root / "load_workspace.log") == [str(os.getpid())]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_parallel_detect_forks_its_workers(root, manifest, built, monkeypatch):
    contexts = []
    original = cli.ProcessPoolExecutor

    def recorded(*args, **kwargs):
        contexts.append(kwargs.get("mp_context"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recorded)
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out"), "--jobs", "2"]) == 0
    assert [context.get_start_method() for context in contexts] == ["fork"]


def test_parallel_detect_without_fork_pickles_the_detector(root, manifest, built, monkeypatch):
    """Without a fork start method the workers are spawned and receive the
    detector pickled; their output is the serial run's."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    contexts = []
    original = cli.ProcessPoolExecutor

    def spawned(*args, mp_context=None, **kwargs):
        contexts.append(mp_context)
        return original(*args, mp_context=mp_context or multiprocessing.get_context("spawn"), **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", spawned)
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "serial")]) == 0
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out"), "--jobs", "2"]) == 0
    assert contexts == [None]
    names = sorted(p.name for p in (root / "serial").iterdir())
    assert names == sorted(p.name for p in (root / "out").iterdir())
    for name in names:
        assert (root / "serial" / name).read_bytes() == (root / "out" / name).read_bytes()


# -- exit codes -------------------------------------------------------------------


def test_missing_manifest_exits_2(tmp_path):
    assert main(["build-kb", "--manifest", str(tmp_path / "none.cfg")]) == 2


def test_missing_graph_file_exits_2(root, manifest):
    (root / "kb" / "lexicon.ttl").unlink()
    assert main(["build-kb", "--manifest", manifest]) == 2


@pytest.mark.parametrize("graph", ["lexicon.ttl", "extra.nt"])
def test_empty_datatype_iri_exits_2(root, manifest, capsys, graph):
    line = '<urn:x:s> <urn:x:p> "x"^^<> .\n'
    if graph == "lexicon.ttl":
        path = root / "kb" / graph
        path.write_text(path.read_text(encoding="utf-8") + line, encoding="utf-8")
    else:
        (root / "kb" / graph).write_text(line, encoding="utf-8")
        with open(manifest, "a", encoding="utf-8") as f:
            f.write("graph = kb/extra.nt | ntriples | <urn:x:extra> | values\n")
    assert main(["build-kb", "--manifest", manifest]) == 2
    assert "empty datatype IRI" in capsys.readouterr().err
    assert not (root / "workspace" / "meta.json").exists()


def test_lexical_graphs_that_share_an_entry_build_and_detect(root, manifest, capsys):
    """An entry stated whole in two lexical graph files is one entry."""
    entry = 'lex:dangerous-adjective a fg:LexicalEntry ; fg:lemma "dangerous" ; fg:pos "adjective" ;\n'
    entry += "    fg:sense wn:dangerous-adjective-1 .\n"
    assert entry in MINI_LEXICON
    (root / "kb" / "shared.ttl").write_text(PREFIX_HEADER + entry, encoding="utf-8")
    with open(manifest, "a", encoding="utf-8") as f:
        f.write("graph = kb/shared.ttl | turtle | g:shared | lexical\n")
    assert main(["build-kb", "--manifest", manifest]) == 0, capsys.readouterr().err
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    inputs = write_sentences(root / "sentences.jsonl", [("s1", "That is dangerous.")])
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 0
    [summary] = read_summaries(root / "out")
    assert summary["values"] == ["folk:Risk"]
    sense = vocab.PREFIXES.expand("wn:dangerous-adjective-1")
    assert f"<{sense.value}>" in (root / "out" / "s1.nt").read_text(encoding="utf-8")


def test_expand_before_build_exits_2(root, manifest):
    assert main(["expand", "--manifest", manifest, "--all"]) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_detect_before_build_exits_2(root, manifest, jobs, capsys):
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out"), "--jobs", jobs]) == 2
    assert "workspace not built" in capsys.readouterr().err
    assert not (root / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_detect_jobs_not_a_positive_integer_exits_2(root, manifest, built, jobs, capsys):
    inputs = write_sentences(root / "sentences.jsonl")
    with pytest.raises(SystemExit) as exited:
        main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out"), "--jobs", jobs])
    assert exited.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (root / "out").exists()


def test_expand_unknown_value_exits_2(built, manifest):
    assert main(["expand", "--manifest", manifest, "--value", "folk:Nonesuch"]) == 2


def test_expand_single_value(root, manifest, built, capsys):
    assert main(["expand", "--manifest", manifest, "--value", "folk:Risk"]) == 0
    assert (root / "workspace" / "triggers" / "folk_Risk.nt").is_file()
    assert "folk:Risk" in capsys.readouterr().out


@pytest.mark.parametrize("scope", [["--all"], ["--value", "folk:Risk"]])
def test_expand_removes_output_of_dropped_plans(root, manifest, built, scope):
    (root / "plans" / "harm.plan").write_text("value = mft:Harm\nseed = dangerous\nauto = frame\n", encoding="utf-8")
    with_harm = MINI_MANIFEST.replace("plan = plans/risk.plan\n", "plan = plans/risk.plan\nplan = plans/harm.plan\n")
    (root / "manifest.cfg").write_text(with_harm, encoding="utf-8")
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    workspace = root / "workspace"
    assert (workspace / "triggers" / "mft_Harm.nt").is_file()
    inputs = write_sentences(root / "sentences.jsonl", [("s1", "That is dangerous.")])
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "before")]) == 0
    assert read_summaries(root / "before")[0]["values"] == ["folk:Risk", "mft:Harm"]

    (root / "manifest.cfg").write_text(MINI_MANIFEST, encoding="utf-8")
    assert main(["expand", "--manifest", manifest, *scope]) == 0
    assert sorted(p.name for p in (workspace / "triggers").iterdir()) == ["folk_Risk.nt"]
    assert sorted(p.name for p in (workspace / "reports").iterdir()) == ["folk_Risk.json"]
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "after")]) == 0
    assert read_summaries(root / "after")[0]["values"] == ["folk:Risk"]


def test_plan_value_with_unknown_prefix_exits_2(root, manifest, built, capsys):
    (root / "plans" / "risk.plan").write_text(MINI_PLAN.replace("folk:Risk", "flk:Risk"), encoding="utf-8")
    assert main(["expand", "--manifest", manifest, "--all"]) == 2
    assert "unknown prefix 'flk'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rel, old, new, command",
    [
        ("plans/risk.plan", "folk:Risk", "flk:Risk", ["expand", "--all"]),
        ("plans/selections/concepts.txt", "cn:venture", "cnx:venture", ["expand", "--all"]),
        ("values.csv", "wikt:risky", "wkt:risky", ["build-kb"]),
        ("labels.cfg", "folk:Risk", "flk:Risk", ["eval"]),
        ("manifest.cfg", "g:lexicon", "gx:lexicon", ["build-kb"]),
    ],
)
def test_unknown_prefix_error_names_its_file(root, manifest, built, capsys, rel, old, new, command):
    path = root / rel
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    capsys.readouterr()
    assert main([command[0], "--manifest", manifest, *command[1:]]) == 2
    prefix = new.split(":")[0]
    assert capsys.readouterr().err == f"error: {path}: unknown prefix {prefix!r} in {new!r}\n"


def test_value_outside_prefix_table_reads_back(root, manifest, built):
    (root / "plans" / "risk.plan").write_text(MINI_PLAN.replace("folk:Risk", "<urn:x:Risk>"), encoding="utf-8")
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    assert (root / "workspace" / "triggers" / "_urn_x_Risk_.nt").is_file()
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 0
    assert read_summaries(root / "out")[0]["values"] == ["<urn:x:Risk>"]
    assert main(["eval", "--manifest", manifest, "--detections", str(root / "out" / "summary.jsonl")]) == 0


def log_workspace_loads(monkeypatch, log):
    """Log every load_workspace call, through whichever module a command reaches it."""
    for module in (cli, workspace_io):
        if hasattr(module, "load_workspace"):
            log_calls(monkeypatch, module, "load_workspace", log)


def test_stale_selection_exits_3(root, manifest, built, monkeypatch):
    log_workspace_loads(monkeypatch, root / "load_workspace.log")
    frames = root / "plans" / "selections" / "frames.txt"
    frames.write_text(frames.read_text(encoding="utf-8") + "fs:Imaginary\n", encoding="utf-8")
    assert main(["expand", "--manifest", manifest, "--all"]) == 3
    assert pids(root / "load_workspace.log") == []  # the snapshot served


def test_stale_selection_without_snapshot_exits_3(root, manifest, built):
    (root / "workspace" / SNAPSHOT_FILE).unlink()
    frames = root / "plans" / "selections" / "frames.txt"
    frames.write_text(frames.read_text(encoding="utf-8") + "fs:Imaginary\n", encoding="utf-8")
    assert main(["expand", "--manifest", manifest, "--all"]) == 3


def test_expand_from_snapshot_never_loads_the_workspace(root, manifest, built, monkeypatch):
    log_workspace_loads(monkeypatch, root / "load_workspace.log")
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    assert main(["expand", "--manifest", manifest, "--value", "folk:Risk"]) == 0
    assert pids(root / "load_workspace.log") == []


def test_expand_without_snapshot_loads_the_workspace_once(root, manifest, built, monkeypatch):
    (root / "workspace" / SNAPSHOT_FILE).unlink()
    log_workspace_loads(monkeypatch, root / "load_workspace.log")
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    assert pids(root / "load_workspace.log") == [str(os.getpid())]


def test_detect_duplicate_ids_exits_3(root, manifest, built):
    inputs = write_sentences(root / "dupes.jsonl", [("s1", "one"), ("s1", "two")])
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 3


def test_detect_malformed_jsonl_exits_2(root, manifest, built):
    bad = root / "bad.jsonl"
    bad.write_text('{"id": "s1"}\n', encoding="utf-8")
    assert main(["detect", "--manifest", manifest, "--input", str(bad), "--out", str(root / "out")]) == 2


def test_detect_missing_input_exits_2(root, manifest, built):
    missing = str(root / "nowhere.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", missing, "--out", str(root / "out")]) == 2


def test_detect_empty_input(root, manifest, built, capsys):
    empty = root / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["detect", "--manifest", manifest, "--input", str(empty), "--out", str(root / "out")]) == 0
    assert (root / "out" / "summary.jsonl").read_text(encoding="utf-8") == ""
    assert "sentences: 0" in capsys.readouterr().out


def test_detect_empty_text_names_the_line(root, manifest, built, capsys):
    inputs = write_sentences(root / "gap.jsonl", [("s1", "That is dangerous."), ("s2", "")])
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 2
    assert f"{inputs}:2: empty sentence text" in capsys.readouterr().err
    assert not (root / "out").exists()


def test_detect_non_string_text_exits_2(root, manifest, built, capsys):
    inputs = write_sentences(root / "num.jsonl", [("s1", "That is dangerous."), ("s2", 5)])
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 2
    assert f"{inputs}:2: bad sentence record: text is not a string" in capsys.readouterr().err


def test_detect_ids_sharing_a_file_name_exit_3(root, manifest, built, capsys):
    pairs = [("a b", "That is dangerous."), ("a/b", "He took a gamble."), ("a_b", "They walk home.")]
    inputs = write_sentences(root / "clash.jsonl", pairs)
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 3
    assert "'a b' and 'a/b' both write a_b.nt" in capsys.readouterr().err
    assert not (root / "out").exists()


def test_detect_graph_of_reserved_id_reads_back(root, manifest, built):
    inputs = write_sentences(root / "odd.jsonl", [("a b/c?", "That is dangerous.")])
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 0
    triples = parse_ntriples((root / "out" / "a_b_c_.nt").read_text(encoding="utf-8"))
    nodes = {t.s.value for t in triples if t.p == vocab.RDF_TYPE and t.o == vocab.SENTENCE_NODE}
    assert nodes
    assert all(node.startswith(vocab.NAMESPACES["sent"] + "a%20b%2Fc%3F/n") for node in nodes)


def test_detect_plain_text_lines(root, manifest, built):
    inputs = root / "lines.txt"
    inputs.write_text("That is dangerous.\n\nThey walk home.\n", encoding="utf-8")
    assert main(["detect", "--manifest", manifest, "--input", str(inputs), "--out", str(root / "out")]) == 0
    summaries = read_summaries(root / "out")
    assert [s["id"] for s in summaries] == ["1", "3"]


def test_eval_without_corpus_entry_exits_2(root, manifest, built):
    spare = "prefixes = prefixes.cfg\ngraph = kb/lexicon.ttl | turtle | g:lexicon | lexical\n"
    bare = root / "bare.cfg"
    bare.write_text(spare, encoding="utf-8")
    assert main(["eval", "--manifest", str(bare)]) == 2


def test_eval_stats_only(root, manifest, built, capsys):
    assert main(["eval", "--manifest", manifest]) == 0
    stdout = capsys.readouterr().out
    assert "Annotator" in stdout
    assert (root / "workspace" / "eval" / "annotators.txt").is_file()
    assert not (root / "workspace" / "eval" / "coverage.txt").exists()


def test_eval_id_mismatch_exits_3(root, manifest, built):
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    inputs = write_sentences(root / "sentences.jsonl", MINI_SENTENCES[:3])
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 0
    code = main(["eval", "--manifest", manifest, "--detections", str(root / "out" / "summary.jsonl")])
    assert code == 3


def test_eval_unknown_label_exits_3(root, manifest, built):
    (root / "corpus.csv").write_text(
        MINI_CORPUS.replace("Risk|Harm", "Risk|Bogus"), encoding="utf-8"
    )
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    inputs = write_sentences(root / "sentences.jsonl")
    assert main(["detect", "--manifest", manifest, "--input", inputs, "--out", str(root / "out")]) == 0
    code = main(["eval", "--manifest", manifest, "--detections", str(root / "out" / "summary.jsonl")])
    assert code == 3


def test_workspace_env_override(root, manifest, monkeypatch, tmp_path):
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("FOLKGRAPH_WORKSPACE", str(elsewhere))
    assert main(["build-kb", "--manifest", manifest]) == 0
    assert (elsewhere / "meta.json").is_file()
    assert not (root / "workspace").exists()
    assert main(["expand", "--manifest", manifest, "--all"]) == 0
    assert (elsewhere / "triggers" / "folk_Risk.nt").is_file()
