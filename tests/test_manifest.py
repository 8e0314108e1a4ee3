"""Manifest parsing and workspace build/load round-trips."""

import gc

import pytest

from folkgraph import vocab
from folkgraph.manifest import (
    ManifestError,
    build_workspace,
    load_manifest,
    load_trigger_graphs,
    load_workspace,
    read_meta,
    safe_name,
    workspace_dir,
)
from folkgraph.rdfio import ParseError, to_ntriples
from folkgraph.terms import Triple
from folkgraph.vocab import PREFIXES

from kb import MINI_MANIFEST, write_mini_pipeline
from oracles import objects


@pytest.fixture
def manifest_path(tmp_path):
    return write_mini_pipeline(tmp_path)


@pytest.fixture(autouse=True)
def clean_workspace_env(monkeypatch):
    monkeypatch.delenv("FOLKGRAPH_WORKSPACE", raising=False)


def rewrite(manifest_path, old, new):
    manifest_path.write_text(MINI_MANIFEST.replace(old, new), encoding="utf-8")


# -- parsing -------------------------------------------------------------------


def test_manifest_fields(manifest_path):
    manifest = load_manifest(manifest_path)
    assert manifest.detector_mode == "firstSense"
    assert [g.role for g in manifest.graph_files] == ["lexical"]
    assert manifest.graph_files[0].fmt == "turtle"
    assert manifest.graph_files[0].name == PREFIXES.expand("g:lexicon")
    assert manifest.graph_files[0].path.is_file()
    assert len(manifest.plans) == 1 and manifest.plans[0].name == "risk.plan"
    assert manifest.values_csv.name == "values.csv"
    assert manifest.corpus.name == "corpus.csv"
    assert manifest.label_map.name == "labels.cfg"
    assert manifest.prefixes.expand("folk:Risk").value.endswith("/values/folk/Risk")


def test_missing_manifest_names_path(tmp_path):
    missing = tmp_path / "nowhere.cfg"
    with pytest.raises(ManifestError, match=str(missing)):
        load_manifest(missing)


def test_missing_graph_file_names_path(manifest_path):
    rewrite(manifest_path, "kb/lexicon.ttl", "kb/gone.ttl")
    with pytest.raises(ManifestError, match="gone.ttl"):
        load_manifest(manifest_path)


def test_duplicate_graph_name_rejected(manifest_path):
    extra = "graph = kb/lexicon.ttl | turtle | g:lexicon | lexical\n"
    manifest_path.write_text(MINI_MANIFEST + extra, encoding="utf-8")
    with pytest.raises(ManifestError, match="duplicate graph name"):
        load_manifest(manifest_path)


def test_unknown_key_rejected(manifest_path):
    manifest_path.write_text(MINI_MANIFEST + "shenanigans = yes\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="unknown key"):
        load_manifest(manifest_path)


def test_unknown_graph_role_rejected(manifest_path):
    rewrite(manifest_path, "| lexical", "| decorative")
    with pytest.raises(ManifestError, match="unknown graph role"):
        load_manifest(manifest_path)


def test_unknown_graph_format_rejected(manifest_path):
    rewrite(manifest_path, "| turtle |", "| rdfxml |")
    with pytest.raises(ManifestError, match="unknown graph format"):
        load_manifest(manifest_path)


def test_graph_entry_needs_four_fields(manifest_path):
    rewrite(manifest_path, " | lexical", "")
    with pytest.raises(ManifestError, match="path | format | name | role"):
        load_manifest(manifest_path)


def test_unknown_detector_mode_rejected(manifest_path):
    rewrite(manifest_path, "firstSense", "everySense")
    with pytest.raises(ManifestError, match="detectorMode"):
        load_manifest(manifest_path)


def test_missing_prefixes_entry_rejected(manifest_path):
    rewrite(manifest_path, "prefixes = prefixes.cfg\n", "")
    with pytest.raises(ManifestError, match="missing prefixes"):
        load_manifest(manifest_path)


def test_duplicate_single_key_rejected(manifest_path):
    manifest_path.write_text(MINI_MANIFEST + "corpus = corpus.csv\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="duplicate key"):
        load_manifest(manifest_path)


def test_empty_value_rejected(manifest_path):
    manifest_path.write_text(MINI_MANIFEST + "corpus =\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="empty value"):
        load_manifest(manifest_path)


def test_optional_entries_default_to_none(manifest_path, tmp_path):
    spare = "prefixes = prefixes.cfg\ngraph = kb/lexicon.ttl | turtle | g:lexicon | lexical\n"
    manifest_path.write_text(spare, encoding="utf-8")
    manifest = load_manifest(manifest_path)
    assert manifest.values_csv is None
    assert manifest.corpus is None
    assert manifest.label_map is None
    assert manifest.plans == []


def test_workspace_dir_default_is_manifest_sibling(manifest_path):
    assert workspace_dir(manifest_path) == manifest_path.parent / "workspace"


def test_workspace_dir_env_override(manifest_path, monkeypatch, tmp_path):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("FOLKGRAPH_WORKSPACE", str(override))
    assert workspace_dir(manifest_path) == override


def test_safe_name_sanitizes():
    assert safe_name("folk:Risk") == "folk_Risk"
    assert safe_name("g:values-mft") == "g_values-mft"
    assert safe_name("weird name/with:stuff") == "weird_name_with_stuff"


# -- workspace build and load ----------------------------------------------------


def test_build_workspace_writes_graphs_and_meta(manifest_path):
    manifest = load_manifest(manifest_path)
    workspace = workspace_dir(manifest_path)
    meta = build_workspace(manifest, workspace)

    files = sorted(p.name for p in (workspace / "graphs").glob("*.nt"))
    assert files == ["g_lexicon.nt", "g_values-bhv.nt", "g_values-folk.nt", "g_values-mft.nt"]
    assert (workspace / "meta.json").is_file()
    assert meta["detectorMode"] == "firstSense"
    assert meta["counts"]["graphs"] == 4
    assert meta["counts"]["values"] == 5
    roles = {entry["name"]: entry["role"] for entry in meta["graphs"]}
    assert roles[PREFIXES.expand("g:lexicon").value] == "lexical"
    assert roles[PREFIXES.expand("g:values-folk").value] == "values"

    line_total = sum(
        len((workspace / e["file"]).read_text(encoding="utf-8").splitlines()) for e in meta["graphs"]
    )
    assert line_total == meta["counts"]["triples"]


def test_workspace_round_trip(manifest_path):
    manifest = load_manifest(manifest_path)
    workspace = workspace_dir(manifest_path)
    build_workspace(manifest, workspace)

    store, lexicon, meta = load_workspace(workspace)
    assert not store.frozen
    store.freeze()
    entry = lexicon.lookup_lemma("risk", "verb")[0]
    assert entry.lemma == "risk"
    assert objects(store, PREFIXES.expand("folk:Risk"), vocab.RDF_TYPE) == [vocab.VALUE]
    assert meta == read_meta(workspace)


def test_read_meta_before_build(tmp_path):
    with pytest.raises(ManifestError, match="run build-kb first"):
        read_meta(tmp_path / "workspace")


def test_load_trigger_graphs_recovers_names(manifest_path):
    manifest = load_manifest(manifest_path)
    workspace = workspace_dir(manifest_path)
    build_workspace(manifest, workspace)

    risk = PREFIXES.expand("folk:Risk")
    sense = PREFIXES.expand("wn:dangerous-adjective-1")
    triples = [
        Triple(sense, vocab.TRIGGERS, risk),
        Triple(sense, vocab.KIND_PREDICATE["synset"], risk),
        Triple(sense, vocab.PROVENANCE_PREDICATE["derivedClosure"], risk),
    ]
    triggers = workspace / "triggers"
    triggers.mkdir()
    (triggers / "folk_Risk.nt").write_text(to_ntriples(triples), encoding="utf-8")
    (triggers / "empty.nt").write_text("", encoding="utf-8")

    store, _, _ = load_workspace(workspace)
    names = load_trigger_graphs(store, workspace)
    assert names == [PREFIXES.expand("folk:Risk/triggers")]
    store.freeze()
    assert objects(store, sense, vocab.TRIGGERS) == [risk]


def test_load_trigger_graphs_rejects_mixed_values(manifest_path):
    manifest = load_manifest(manifest_path)
    workspace = workspace_dir(manifest_path)
    build_workspace(manifest, workspace)

    sense = PREFIXES.expand("wn:dangerous-adjective-1")
    triples = [
        Triple(sense, vocab.TRIGGERS, PREFIXES.expand("folk:Risk")),
        Triple(sense, vocab.TRIGGERS, PREFIXES.expand("mft:Harm")),
    ]
    triggers = workspace / "triggers"
    triggers.mkdir()
    (triggers / "mixed.nt").write_text(to_ntriples(triples), encoding="utf-8")

    store, _, _ = load_workspace(workspace)
    with pytest.raises(ManifestError, match="mixes multiple values"):
        load_trigger_graphs(store, workspace)


def test_load_trigger_graphs_without_directory(manifest_path):
    manifest = load_manifest(manifest_path)
    workspace = workspace_dir(manifest_path)
    build_workspace(manifest, workspace)
    store, _, _ = load_workspace(workspace)
    assert load_trigger_graphs(store, workspace) == []


# -- garbage collector state ---------------------------------------------------


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_before(request):
    was_enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was_enabled else gc.disable()


def test_build_and_load_keep_gc_state(manifest_path, gc_before):
    workspace = workspace_dir(manifest_path)
    build_workspace(load_manifest(manifest_path), workspace)
    assert gc.isenabled() is gc_before
    load_workspace(workspace)
    assert gc.isenabled() is gc_before


def test_failed_load_keeps_gc_state(manifest_path, gc_before):
    workspace = workspace_dir(manifest_path)
    build_workspace(load_manifest(manifest_path), workspace)
    (workspace / "graphs" / "g_lexicon.nt").write_text("<urn:a> <urn:b> .\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_workspace(workspace)
    assert gc.isenabled() is gc_before


def test_failed_build_keeps_gc_state(manifest_path, gc_before):
    (manifest_path.parent / "kb" / "lexicon.ttl").write_text("not turtle\n", encoding="utf-8")
    with pytest.raises(ParseError):
        build_workspace(load_manifest(manifest_path), workspace_dir(manifest_path))
    assert gc.isenabled() is gc_before
