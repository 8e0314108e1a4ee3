"""The snapshot build-kb writes: detect and expand from it equal detect and
expand from the graph files, a snapshot that does not match the workspace is
never used, loading it never runs code, and detect decodes no row only the
expander reads."""

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
from folkgraph import vocab
from folkgraph.cli import main
from folkgraph.lexicon import Lexicon
from folkgraph.manifest import SNAPSHOT_FILE, WORKSPACE_ENV, load_workspace, open_detector, open_expander
from folkgraph.rdfio import to_ntriples
from folkgraph.store import TripleStore, one_hop
from folkgraph.terms import IRI, Term, Triple, blank, iri, lit
from folkgraph.vocab import NAMESPACES, ONE_HOP_OBJECTS, ONE_HOP_SUBJECTS, PREFIXES, TRIGGERS

import oracles
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
    version, cache_tag, key, *payload = marshal.loads(body)
    if field == "version":
        version += 1
    else:
        cache_tag = f"not-{sys.implementation.cache_tag}"
    snapshot.write_bytes(magic + b"\n" + marshal.dumps((version, cache_tag, key, *payload)))
    assert not uses_snapshot(workspace, monkeypatch)
    assert detect(manifest, inputs, tmp_path / "other") == expected


def test_snapshot_with_a_damaged_row_dump_falls_back(project, tmp_path, monkeypatch):
    """A byte changed inside one predicate's rows, which the outer dump does
    not notice and which decode only when a consumer asks for them."""
    manifest, workspace = project
    inputs = write_sentences(tmp_path / "sentences.jsonl", MINI_SENTENCES)
    expected_expand = expand(manifest)
    expected_detect = detect(manifest, inputs, tmp_path / "expected")
    snapshot = workspace / SNAPSHOT_FILE
    magic, body = snapshot.read_bytes().split(b"\n", 1)
    version, cache_tag, key, crc, payload = marshal.loads(body)
    fields, rows, lexical, objects, subjects = marshal.loads(payload)
    evokes = bytearray(objects[vocab.EVOKES.value])
    evokes[len(evokes) // 2] ^= 0xFF
    objects[vocab.EVOKES.value] = bytes(evokes)
    payload = marshal.dumps((fields, rows, lexical, objects, subjects))
    snapshot.write_bytes(magic + b"\n" + marshal.dumps((version, cache_tag, key, crc, payload)))
    assert not uses_snapshot(workspace, monkeypatch)
    assert not uses_snapshot(workspace, monkeypatch, expander=True)
    assert detect(manifest, inputs, tmp_path / "damaged") == expected_detect
    assert expand(manifest) == expected_expand


DETECTOR_OBJECTS = (vocab.EVOKES, vocab.SENSE_KEY, vocab.TRIGGERS, vocab.AFFECT_ROLE, vocab.AFFECT_POLARITY)


def _two_sections(payload):
    """The version-3 layout of a payload: the detector's section (every term
    as its four fields, the lexicon's tables and the detector's five object
    tables) and the expander's (its other object tables and its subject
    tables), every table keyed by the id of its predicate."""
    fields, rows, lexical, objects, subjects = marshal.loads(payload)
    terms = [(0, f, "", "") if isinstance(f, str) else f for f in fields]

    def tables(dumps, names):
        out = {}
        for name in names:
            terms.append((0, name, "", ""))
            out[len(terms) - 1] = marshal.loads(dumps[name])
        return out

    detector_names = [p.value for p in DETECTOR_OBJECTS]
    detector_tables = tables(objects, detector_names)
    expander_objects = tables(objects, [name for name in objects if name not in detector_names])
    expander_subjects = tables(subjects, list(subjects))
    return (
        marshal.dumps((terms, rows, lexical, detector_tables)),
        marshal.dumps(([], expander_objects, expander_subjects)),
    )


@pytest.mark.parametrize("version", [3, 4])
def test_snapshot_of_the_version_3_two_section_layout_falls_back(project, tmp_path, monkeypatch, version):
    """Version 3 held a detector's and an expander's section; neither detect
    nor expand reads that layout, even under today's version number."""
    manifest, workspace = project
    inputs = write_sentences(tmp_path / "sentences.jsonl", MINI_SENTENCES)
    expected_expand = expand(manifest)
    expected_detect = detect(manifest, inputs, tmp_path / "expected")
    snapshot = workspace / SNAPSHOT_FILE
    magic, body = snapshot.read_bytes().split(b"\n", 1)
    _, cache_tag, key, _, payload = marshal.loads(body)
    snapshot.write_bytes(magic + b"\n" + marshal.dumps((version, cache_tag, key, _two_sections(payload))))
    assert not uses_snapshot(workspace, monkeypatch)
    assert not uses_snapshot(workspace, monkeypatch, expander=True)
    assert detect(manifest, inputs, tmp_path / "old") == expected_detect
    assert expand(manifest) == expected_expand


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
    holds random edges of every predicate the snapshot holds rows of, between
    IRIs of the other graphs and a few new ones."""
    store, words = _detection_kb(rng)
    graphs = {name: graph.triples for name, graph in store.graphs.items()}
    expansion = graphs.pop(t("g:triggers-b"))
    if hops:
        nodes = sorted({term for g in graphs.values() for tr in g for term in tr if term.kind == IRI})
        nodes += [t(f"cn:new{i}") for i in range(3)]
        predicates = sorted({*ONE_HOP_OBJECTS, *ONE_HOP_SUBJECTS})
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
def test_random_kb_snapshot_rows_equal_the_rebuilt_store(seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        workspace = Path(tmp) / "workspace"
        _write_random_project(Path(tmp), rng, hops=True)
        _, rows = workspace_io._load_snapshot(workspace)
        store, _, _ = load_workspace(workspace)
        store.freeze()
        rebuilt = one_hop(store)
        triples = {tr for graph in store.graphs.values() for tr in graph.triples}
        for predicate in ONE_HOP_OBJECTS:
            subjects = {tr.s for tr in triples if tr.p == predicate}
            assert rows.objects(predicate) == rebuilt.objects(predicate)
            assert rows.objects(predicate) == {s: tuple(oracles.objects(store, s, predicate)) for s in subjects}
        for predicate in ONE_HOP_SUBJECTS:
            objects = {tr.o for tr in triples if tr.p == predicate}
            assert rows.subjects(predicate) == rebuilt.subjects(predicate)
            assert rows.subjects(predicate) == {o: tuple(oracles.subjects(store, predicate, o)) for o in objects}


def test_snapshot_rows_of_a_predicate_it_does_not_hold_raise_key_error(mini):
    """A consumer that reads a row the snapshot lacks fails, rather than
    reading no edges."""
    _, workspace, _ = mini
    _, rows = workspace_io._load_snapshot(workspace)
    assert rows.objects(vocab.EVOKES)
    for missing in (vocab.RDF_TYPE, vocab.SKOS_CLOSE_MATCH):
        with pytest.raises(KeyError):
            rows.objects(missing)
    for missing in (vocab.RDF_TYPE, vocab.TRIGGERS):
        with pytest.raises(KeyError):
            rows.subjects(missing)


def _plain_data(value):
    """Every value nested in ``value``, and in every ``marshal`` dump it holds."""
    yield value
    if isinstance(value, bytes):
        yield from _plain_data(marshal.loads(value))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _plain_data(item)
    elif isinstance(value, dict):
        for item in value.items():
            yield from _plain_data(item)


def test_snapshot_holds_only_plain_data(project):
    """Loading the snapshot never runs code: the header, the payload and every
    per-predicate dump hold strings, integers, bytes and containers only."""
    _, workspace = project
    data = (workspace / SNAPSHOT_FILE).read_bytes()
    assert data.startswith(workspace_io._SNAPSHOT_MAGIC)
    found = list(_plain_data(marshal.loads(data[len(workspace_io._SNAPSHOT_MAGIC) :])))
    assert {type(value) for value in found} <= {str, int, tuple, list, dict, bytes}
    dumps = sum(isinstance(value, bytes) for value in found)
    assert dumps == 1 + len(ONE_HOP_OBJECTS) + len(ONE_HOP_SUBJECTS)  # the payload and one per row


def test_terms_that_share_a_value_decode_as_distinct_terms():
    """An IRI is stored as its bare value; a blank node or a literal with the
    same value still decodes as itself."""
    subject = iri("urn:s")
    objects = [
        iri("urn:x"),
        blank("urn:x"),
        lit("urn:x"),
        lit("urn:x", datatype="urn:x"),
        lit("urn:x", lang="en"),
        lit(""),
    ]
    store = TripleStore()
    store.extend(iri("urn:g"), [Triple(subject, p, o) for p in (vocab.EVOKES, vocab.SENSE_KEY) for o in objects])
    store.extend(iri("urn:g"), [Triple(o, vocab.TRIGGERS, subject) for o in objects[:2]])
    store.freeze()
    lexicon, rows = workspace_io._decode(workspace_io._encode(store, Lexicon(store, [])))
    expected = one_hop(store)
    assert rows.objects(vocab.EVOKES) == expected.objects(vocab.EVOKES) == {subject: tuple(sorted(objects))}
    assert len(set(rows.objects(vocab.EVOKES)[subject])) == len(objects)
    assert [term.kind for term in rows.objects(vocab.EVOKES)[subject]] == [term.kind for term in sorted(objects)]
    assert rows.subjects(vocab.SENSE_KEY) == expected.subjects(vocab.SENSE_KEY)
    assert rows.objects(vocab.TRIGGERS) == expected.objects(vocab.TRIGGERS)
    assert sorted(rows.objects(vocab.TRIGGERS)) == objects[:2]


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
    version, cache_tag, key, *payload = marshal.loads(body)
    return magic + b"\n" + marshal.dumps((version - 1, cache_tag, key, *payload))


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


def test_open_detector_decodes_no_row_only_the_expander_reads(mini, monkeypatch):
    _, workspace, _ = mini
    decoded = []
    original = workspace_io._decode_rows

    def spy(terms, dumps, predicate):
        side = "objects" if set(dumps) == {p.value for p in ONE_HOP_OBJECTS} else "subjects"
        decoded.append((side, predicate))
        return original(terms, dumps, predicate)

    monkeypatch.setattr(workspace_io, "_decode_rows", spy)
    assert uses_snapshot(workspace, monkeypatch)
    assert sorted(decoded) == sorted(("objects", p) for p in DETECTOR_OBJECTS)
    decoded.clear()
    assert uses_snapshot(workspace, monkeypatch, expander=True)
    everything = [("objects", p) for p in ONE_HOP_OBJECTS] + [("subjects", p) for p in ONE_HOP_SUBJECTS]
    assert sorted(decoded) == sorted(everything)
