"""The detector snapshot build-kb writes: detect from it equals detect from the
graph files, and a snapshot that does not match the workspace is never used."""

import gc
import json
import marshal
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkgraph import manifest as workspace_io
from folkgraph.cli import main
from folkgraph.manifest import SNAPSHOT_FILE, WORKSPACE_ENV, open_detector
from folkgraph.rdfio import to_ntriples
from folkgraph.terms import Term
from folkgraph.vocab import NAMESPACES, TRIGGERS

from kb import LEXICON_GRAPH, MINI_SENTENCES, t, write_mini_pipeline
from test_cli import write_sentences
from test_detector import _detection_kb

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def clean_workspace_env(monkeypatch):
    monkeypatch.delenv(WORKSPACE_ENV, raising=False)


def detect(manifest, inputs, out, jobs="1"):
    assert main(["detect", "--manifest", str(manifest), "--input", str(inputs), "--out", str(out), "--jobs", jobs]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def uses_snapshot(workspace, monkeypatch):
    """Whether open_detector takes the snapshot path (it never calls load_workspace then)."""
    calls = []
    original = workspace_io.load_workspace
    monkeypatch.setattr(workspace_io, "load_workspace", lambda ws: calls.append(ws) or original(ws))
    open_detector(workspace, "firstSense")
    monkeypatch.setattr(workspace_io, "load_workspace", original)
    return not calls


def tables_of(detector):
    """Everything a detector reads: the lexicon's tables and its own."""
    own = {name: value for name, value in vars(detector).items() if name != "lexicon"}
    return detector.lexicon.tables(), own


def rebuilt(workspace, mode="firstSense"):
    snapshot = workspace / SNAPSHOT_FILE
    saved = snapshot.read_bytes()
    snapshot.unlink()
    try:
        return open_detector(workspace, mode)
    finally:
        snapshot.write_bytes(saved)


# -- the mini pipeline ---------------------------------------------------------------


@pytest.fixture
def mini(tmp_path):
    manifest = write_mini_pipeline(tmp_path)
    assert main(["build-kb", "--manifest", str(manifest)]) == 0
    assert main(["expand", "--manifest", str(manifest), "--all"]) == 0
    inputs = write_sentences(tmp_path / "sentences.jsonl", MINI_SENTENCES + [("s5", "That is perilous.")])
    return manifest, tmp_path / "workspace", inputs


def test_build_kb_writes_a_matching_snapshot(mini, monkeypatch):
    _, workspace, _ = mini
    assert (workspace / SNAPSHOT_FILE).is_file()
    assert not (workspace / f"{SNAPSHOT_FILE}.tmp").exists()
    assert uses_snapshot(workspace, monkeypatch)
    for mode in ("firstSense", "allSenses"):
        assert tables_of(open_detector(workspace, mode)) == tables_of(rebuilt(workspace, mode))


def test_snapshot_and_rebuilt_detect_the_same(mini, tmp_path):
    manifest, workspace, inputs = mini
    from_snapshot = detect(manifest, inputs, tmp_path / "a")
    (workspace / SNAPSHOT_FILE).unlink()
    assert detect(manifest, inputs, tmp_path / "b") == from_snapshot


def test_graph_edited_after_build_kb_is_seen(mini, tmp_path, monkeypatch):
    manifest, workspace, inputs = mini
    before = detect(manifest, inputs, tmp_path / "before")
    assert json.loads(before["summary.jsonl"].splitlines()[4])["noGraph"]
    graph = workspace / "graphs" / "g_lexicon.nt"
    form = f'<{NAMESPACES["lex"]}dangerous-adjective> <{NAMESPACES["fg"]}form> "perilous" .\n'
    graph.write_text(graph.read_text(encoding="utf-8") + form, encoding="utf-8")
    assert not uses_snapshot(workspace, monkeypatch)
    after = detect(manifest, inputs, tmp_path / "after")
    s5 = json.loads(after["summary.jsonl"].splitlines()[4])
    assert not s5["noGraph"] and s5["values"] == ["folk:Risk"]
    assert "s5.nt" in after


def test_meta_edited_after_build_kb_is_seen(mini, monkeypatch):
    _, workspace, _ = mini
    meta = workspace / "meta.json"
    meta.write_text(meta.read_text(encoding="utf-8").replace('"values": 5', '"values": 6'), encoding="utf-8")
    assert not uses_snapshot(workspace, monkeypatch)


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
        pytest.param(lambda data: data[:10], id="short"),
        pytest.param(lambda data: b"", id="empty"),
        pytest.param(lambda data: b"\x80\x04N." + data[4:], id="foreign-magic"),
        pytest.param(lambda data: data.split(b"\n", 1)[0] + b"\n" + marshal.dumps((1, 2, 3)), id="wrong-shape"),
        pytest.param(lambda data: data.split(b"\n", 1)[0] + b"\n" + b"\xff" * 64, id="garbage-payload"),
    ],
)
def test_damaged_snapshot_falls_back(mini, tmp_path, monkeypatch, damage):
    manifest, workspace, inputs = mini
    expected = detect(manifest, inputs, tmp_path / "expected")
    snapshot = workspace / SNAPSHOT_FILE
    snapshot.write_bytes(damage(snapshot.read_bytes()))
    assert not uses_snapshot(workspace, monkeypatch)
    assert detect(manifest, inputs, tmp_path / "damaged") == expected


@pytest.mark.parametrize("field", ["version", "cache_tag"])
def test_snapshot_of_another_format_or_interpreter_falls_back(mini, tmp_path, monkeypatch, field):
    manifest, workspace, inputs = mini
    expected = detect(manifest, inputs, tmp_path / "expected")
    snapshot = workspace / SNAPSHOT_FILE
    magic, body = snapshot.read_bytes().split(b"\n", 1)
    version, cache_tag, key, payload = marshal.loads(body)
    if field == "version":
        version += 1
    else:
        cache_tag = f"not-{sys.implementation.cache_tag}"
    snapshot.write_bytes(magic + b"\n" + marshal.dumps((version, cache_tag, key, payload)))
    assert not uses_snapshot(workspace, monkeypatch)
    assert detect(manifest, inputs, tmp_path / "other") == expected


def test_triggers_expanded_after_build_kb_are_picked_up(tmp_path, monkeypatch):
    manifest = write_mini_pipeline(tmp_path)
    workspace = tmp_path / "workspace"
    inputs = write_sentences(tmp_path / "sentences.jsonl", MINI_SENTENCES)
    assert main(["build-kb", "--manifest", str(manifest)]) == 0
    bare = detect(manifest, inputs, tmp_path / "bare")
    assert all(not json.loads(line)["values"] for line in bare["summary.jsonl"].splitlines())
    assert main(["expand", "--manifest", str(manifest), "--all"]) == 0
    assert uses_snapshot(workspace, monkeypatch)
    expanded = detect(manifest, inputs, tmp_path / "expanded")
    assert json.loads(expanded["summary.jsonl"].splitlines()[0])["values"] == ["folk:Risk"]
    (workspace / SNAPSHOT_FILE).unlink()
    assert detect(manifest, inputs, tmp_path / "rebuilt") == expanded


# -- the shipped fixtures and random knowledge bases ------------------------------------


def test_fixture_corpus_detects_the_same_from_the_snapshot(tmp_path, monkeypatch):
    tree = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, tree, ignore=shutil.ignore_patterns("workspace"))
    manifest = tree / "manifest.cfg"
    assert main(["build-kb", "--manifest", str(manifest)]) == 0
    assert main(["expand", "--manifest", str(manifest), "--all"]) == 0
    inputs = tree / "corpus" / "sentences_1k.jsonl"
    assert uses_snapshot(tree / "workspace", monkeypatch)
    from_snapshot = detect(manifest, inputs, tmp_path / "a", jobs="2")
    (tree / "workspace" / SNAPSHOT_FILE).unlink()
    assert detect(manifest, inputs, tmp_path / "b") == from_snapshot


def _write_random_project(root: Path, rng: random.Random) -> tuple[Path, list[str]]:
    """A project over ``_detection_kb``: its lexical and affect graphs and one
    trigger graph as base graphs, the other (overlapping) trigger graph as
    expansion output, one file per value."""
    store, words = _detection_kb(rng)
    graphs = {name: graph.triples for name, graph in store.graphs.items()}
    expansion = graphs.pop(t("g:triggers-b"))
    (root / "kb").mkdir(parents=True)
    (root / "prefixes.cfg").write_text("".join(f"{p} = {ns}\n" for p, ns in NAMESPACES.items()), encoding="utf-8")
    lines = ["prefixes = prefixes.cfg\n"]
    for i, (name, triples) in enumerate(graphs.items()):
        (root / "kb" / f"g{i}.nt").write_text(to_ntriples(triples), encoding="utf-8")
        role = "lexical" if name == LEXICON_GRAPH else "triggers"
        lines.append(f"graph = kb/g{i}.nt | ntriples | <{name.value}> | {role}\n")
    (root / "manifest.cfg").write_text("".join(lines), encoding="utf-8")
    assert main(["build-kb", "--manifest", str(root / "manifest.cfg")]) == 0
    by_value: dict[Term, list] = {}
    for triple in expansion:
        by_value.setdefault(triple.o, []).append(triple)
    (root / "workspace" / "triggers").mkdir()
    for i, (value, triples) in enumerate(sorted(by_value.items(), key=lambda kv: kv[0].key())):
        assert all(triple.p == TRIGGERS for triple in triples)
        (root / "workspace" / "triggers" / f"v{i}.nt").write_text(to_ntriples(triples), encoding="utf-8")
    return root / "manifest.cfg", words


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_kb_detects_the_same_from_the_snapshot(seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest, words = _write_random_project(root, rng)
        workspace = root / "workspace"
        for mode in ("firstSense", "allSenses"):
            assert tables_of(open_detector(workspace, mode)) == tables_of(rebuilt(workspace, mode))
        sentences = [
            (f"r{k}", " ".join(rng.choice(words) for _ in range(rng.randint(1, 10))) + ".") for k in range(6)
        ]
        inputs = write_sentences(root / "sentences.jsonl", sentences)
        from_snapshot = detect(manifest, inputs, root / "a")
        (workspace / SNAPSHOT_FILE).unlink()
        assert detect(manifest, inputs, root / "b") == from_snapshot


@pytest.mark.parametrize("gc_enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("keep_snapshot", [True, False], ids=["snapshot", "rebuilt"])
def test_open_detector_keeps_gc_state(mini, gc_enabled, keep_snapshot):
    _, workspace, _ = mini
    if not keep_snapshot:
        (workspace / SNAPSHOT_FILE).unlink()
    was_enabled = gc.isenabled()
    gc.enable() if gc_enabled else gc.disable()
    try:
        open_detector(workspace, "firstSense")
        assert gc.isenabled() is gc_enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
