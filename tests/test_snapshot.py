"""The snapshot build-kb writes: detect and expand from it equal detect and
expand from the graph files, a snapshot that does not match the workspace is
never used, and detect decodes only its own section."""

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
from folkgraph.detector import TABLE_PREDICATES
from folkgraph.expansion import OBJECT_PREDICATES, SUBJECT_PREDICATES
from folkgraph.manifest import SNAPSHOT_FILE, WORKSPACE_ENV, load_workspace, open_detector, open_expander
from folkgraph.rdfio import to_ntriples
from folkgraph.terms import IRI, Term, Triple
from folkgraph.vocab import NAMESPACES, PREFIXES, TRIGGERS

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


def uses_snapshot(workspace, monkeypatch, expander=False):
    """Whether open_detector, or open_expander if ``expander`` is set, takes the
    snapshot path (it never calls load_workspace then)."""
    calls = []
    original = workspace_io.load_workspace
    monkeypatch.setattr(workspace_io, "load_workspace", lambda ws: calls.append(ws) or original(ws))
    if expander:
        open_expander(workspace, PREFIXES)
    else:
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


def test_snapshot_of_the_version_2_term_layout_falls_back(mini, tmp_path, monkeypatch):
    """Version 2 stored each term as (kind, value, datatype or None, lang or
    None); read as today's (rank, value, datatype, lang) they are not terms."""
    manifest, workspace, inputs = mini
    expected = detect(manifest, inputs, tmp_path / "expected")
    snapshot = workspace / SNAPSHOT_FILE
    magic, body = snapshot.read_bytes().split(b"\n", 1)
    _, cache_tag, key, sections = marshal.loads(body)

    def old_layout(section):
        fields, *tables = marshal.loads(section)
        terms = map(Term._make, fields)
        return marshal.dumps((
            [(term.kind, term.value, term.datatype or None, term.lang or None) for term in terms],
            *tables,
        ))

    sections = tuple(map(old_layout, sections))
    snapshot.write_bytes(magic + b"\n" + marshal.dumps((2, cache_tag, key, sections)))
    assert not uses_snapshot(workspace, monkeypatch)
    assert not uses_snapshot(workspace, monkeypatch, expander=True)
    assert detect(manifest, inputs, tmp_path / "old") == expected


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


def _write_random_project(root: Path, rng: random.Random, hops: bool = False) -> tuple[Path, list[str]]:
    """A project over ``_detection_kb``: its lexical and affect graphs and one
    trigger graph as base graphs, the other (overlapping) trigger graph as
    expansion output, one file per value. With ``hops``, one more base graph
    holds random edges of every predicate the expander reads, between IRIs
    of the other graphs and a few new ones."""
    store, words = _detection_kb(rng)
    graphs = {name: graph.triples for name, graph in store.graphs.items()}
    expansion = graphs.pop(t("g:triggers-b"))
    if hops:
        nodes = sorted({term for g in graphs.values() for tr in g for term in tr if term.kind == IRI})
        nodes += [t(f"cn:new{i}") for i in range(3)]
        predicates = sorted({*OBJECT_PREDICATES, *SUBJECT_PREDICATES})
        graphs[t("g:hops")] = {
            Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes)) for _ in range(rng.randint(0, 40))
        }
    (root / "kb").mkdir(parents=True)
    (root / "prefixes.cfg").write_text("".join(f"{p} = {ns}\n" for p, ns in NAMESPACES.items()), encoding="utf-8")
    lines = ["prefixes = prefixes.cfg\n"]
    for i, (name, triples) in enumerate(graphs.items()):
        (root / "kb" / f"g{i}.nt").write_text(to_ntriples(triples), encoding="utf-8")
        role = "lexical" if name == LEXICON_GRAPH else "values" if name == t("g:hops") else "triggers"
        lines.append(f"graph = kb/g{i}.nt | ntriples | <{name.value}> | {role}\n")
    (root / "manifest.cfg").write_text("".join(lines), encoding="utf-8")
    assert main(["build-kb", "--manifest", str(root / "manifest.cfg")]) == 0
    by_value: dict[Term, list] = {}
    for triple in expansion:
        by_value.setdefault(triple.o, []).append(triple)
    (root / "workspace" / "triggers").mkdir()
    for i, (value, triples) in enumerate(sorted(by_value.items())):
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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_kb_snapshot_tables_equal_the_rebuilt_store(seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        workspace = Path(tmp) / "workspace"
        _write_random_project(Path(tmp), rng, hops=True)
        _, tables, expander = workspace_io._load_snapshot(workspace, expander=True)
        store, _, _ = load_workspace(workspace)
        store.freeze()
        triples = {tr for graph in store.graphs.values() for tr in graph.triples}
        for predicate in TABLE_PREDICATES:
            subjects = {tr.s for tr in triples if tr.p == predicate}
            assert tables[predicate] == {s: tuple(store.objects(s, predicate)) for s in subjects}
        assert sorted(expander.objects) == sorted(OBJECT_PREDICATES)
        for predicate in OBJECT_PREDICATES:
            subjects = {tr.s for tr in triples if tr.p == predicate}
            assert expander.objects[predicate] == {s: tuple(store.objects(s, predicate)) for s in subjects}
        assert sorted(expander.subjects) == sorted(SUBJECT_PREDICATES)
        for predicate in SUBJECT_PREDICATES:
            objects = {tr.o for tr in triples if tr.p == predicate}
            assert expander.subjects[predicate] == {o: tuple(store.subjects(predicate, o)) for o in objects}


# -- expand from the snapshot ---------------------------------------------------------


@pytest.fixture(params=["mini", "fixtures"])
def project(request, tmp_path):
    """A built project: the mini pipeline or a copy of the shipped fixtures."""
    if request.param == "mini":
        manifest = write_mini_pipeline(tmp_path)
    else:
        shutil.copytree(FIXTURES, tmp_path / "fixtures", ignore=shutil.ignore_patterns("workspace"))
        manifest = tmp_path / "fixtures" / "manifest.cfg"
    assert main(["build-kb", "--manifest", str(manifest)]) == 0
    return manifest, manifest.parent / "workspace"


def expand(manifest):
    """Run ``expand --all``; return every file of triggers/ and reports/ by its path in the workspace."""
    assert main(["expand", "--manifest", str(manifest), "--all"]) == 0
    workspace = manifest.parent / "workspace"
    return {
        str(path.relative_to(workspace)): path.read_bytes()
        for folder in ("triggers", "reports")
        for path in sorted((workspace / folder).iterdir())
    }


def _older_version(data):
    magic, body = data.split(b"\n", 1)
    version, cache_tag, key, payload = marshal.loads(body)
    return magic + b"\n" + marshal.dumps((version - 1, cache_tag, key, payload))


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda path: path.unlink(), id="deleted"),
        pytest.param(lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]), id="truncated"),
        pytest.param(lambda path: path.write_bytes(_older_version(path.read_bytes())), id="older-version"),
    ],
)
def test_expand_without_a_usable_snapshot_writes_the_same(project, monkeypatch, change):
    manifest, workspace = project
    assert uses_snapshot(workspace, monkeypatch, expander=True)
    from_snapshot = expand(manifest)
    assert any(name.startswith("triggers/") for name in from_snapshot)
    change(workspace / SNAPSHOT_FILE)
    assert not uses_snapshot(workspace, monkeypatch, expander=True)
    assert expand(manifest) == from_snapshot


def test_expand_sees_a_graph_edited_after_build_kb(project, monkeypatch):
    manifest, workspace = project
    before = expand(manifest)
    edge = f"<{NAMESPACES['pb']}edit.01> <{NAMESPACES['skos']}closeMatch> <{NAMESPACES['fs']}RunRisk> .\n"
    graph = workspace / "graphs" / "g_lexicon.nt"
    graph.write_text(graph.read_text(encoding="utf-8") + edge, encoding="utf-8")
    assert not uses_snapshot(workspace, monkeypatch, expander=True)
    edited = expand(manifest)
    assert edited != before
    assert f"<{NAMESPACES['pb']}edit.01>".encode() in edited["triggers/folk_Risk.nt"]
    assert b'"pb:edit.01"' in edited["reports/folk_Risk.json"]
    # The same edit made to the source graph and built: expand now reads it from a fresh snapshot.
    source = manifest.parent / "kb" / "lexicon.ttl"
    source.write_text(source.read_text(encoding="utf-8") + edge, encoding="utf-8")
    assert main(["build-kb", "--manifest", str(manifest)]) == 0
    assert uses_snapshot(workspace, monkeypatch, expander=True)
    assert expand(manifest) == edited


def test_open_detector_decodes_only_its_own_section(mini, monkeypatch):
    _, workspace, _ = mini
    decoded = []
    original = workspace_io._decode_expander
    monkeypatch.setattr(workspace_io, "_decode_expander", lambda *args: decoded.append(args) or original(*args))
    assert uses_snapshot(workspace, monkeypatch)
    assert decoded == []
    assert uses_snapshot(workspace, monkeypatch, expander=True)
    assert len(decoded) == 1
