"""Pipeline manifest parsing and the on-disk workspace.

The manifest is a small ``key = value`` file next to the knowledge base
fixtures. ``graph`` entries carry four pipe-separated fields (path, format,
graph name, role) and may repeat, as may ``plan`` entries. All paths are
resolved relative to the manifest file.

The workspace is a directory of frozen artifacts passed between commands:
``graphs/`` holds one sorted N-Triples file per named graph plus
``meta.json`` describing names and roles, ``triggers/`` and ``reports/``
collect expansion output, and ``eval/`` collects statistics output. Its
location defaults to ``workspace/`` beside the manifest and can be moved
with the FOLKGRAPH_WORKSPACE environment variable.

``build-kb`` also writes ``detector.snapshot``, which serves ``expand`` and
``detect``. It holds two sections over the base graphs, each a ``marshal``
dump of plain data (every term once, as its four fields, and integer term ids
everywhere else), so loading it never runs code. The detector's section holds
the lexicon's entry tables and the detector's five lookup tables; the
expander's holds the object tables and subject tables ``expansion.lookup_tables``
builds, less the object tables the detector's section already holds, and
numbers only the terms that section lacks. Its key is the byte length and
CRC-32 of ``meta.json`` and of every graph file ``meta.json`` lists, next to a
format version and ``sys.implementation.cache_tag``. When all of these match
the workspace on disk, ``open_detector`` decodes the detector's section only,
parses the trigger graphs and merges their tables in, and ``open_expander``
decodes both sections and reads no trigger graph. Otherwise (no snapshot, a
stale or truncated one, another format or interpreter) each builds from the
graph files as ``load_workspace`` does. Both ways give the same detector and
the same expander. CRC-32 only has to notice an edit or a rebuild, not resist
forgery: anyone who can write the graph files can rewrite the snapshot too.

Loading or building a workspace of 1.5x10^5 triples allocates about 10^6
long-lived objects (terms, triples, index buckets). The cyclic garbage
collector is off while they are made, and ``gc.freeze()`` then moves them to
the permanent generation, so later collections, in this process and in any
process forked from it, never rescan them. The caller's GC state is restored.
"""

from __future__ import annotations

import gc
import json
import marshal
import os
import re
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path

from . import vocab
from .config import config_pairs
from .detector import MODES, Detector, Tables, lookup_tables, merge_tables
from .expansion import OBJECT_PREDICATES, Expander, ExpanderTables, trigger_graph_name
from .expansion import lookup_tables as expander_tables
from .lexicon import FrameElement, LexicalEntry, Lexicon
from .rdfio import PrefixTable, parse, to_ntriples
from .store import TripleStore
from .terms import Term, iri
from .values import build_model, load_value_manifest

GRAPH_ROLES = ("lexical", "values", "triggers")
GRAPH_FORMATS = ("ntriples", "turtle")

WORKSPACE_ENV = "FOLKGRAPH_WORKSPACE"
SNAPSHOT_FILE = "detector.snapshot"
_SNAPSHOT_MAGIC = b"folkgraph detector snapshot\n"
_SNAPSHOT_VERSION = 3  # bump whenever the encoded tables change shape or meaning


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class GraphFile:
    path: Path
    fmt: str
    name: Term
    role: str


@dataclass
class Manifest:
    path: Path
    prefixes: PrefixTable
    graph_files: list[GraphFile] = field(default_factory=list)
    plans: list[Path] = field(default_factory=list)
    detector_mode: str = "firstSense"
    values_csv: Path | None = None
    corpus: Path | None = None
    label_map: Path | None = None


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ManifestError(f"{what} does not exist: {path}")
    return path


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    _require_file(path, "manifest")
    base = path.parent
    by_key: dict[str, str] = {}
    graphs: list[str] = []
    plans: list[str] = []
    for key, value in config_pairs(path, ManifestError, "manifest entry"):
        if not value:
            raise ManifestError(f"{path}: empty value for {key!r}")
        if key == "graph":
            graphs.append(value)
        elif key == "plan":
            plans.append(value)
        elif key in ("prefixes", "values", "labelMap", "detectorMode", "corpus"):
            if key in by_key:
                raise ManifestError(f"{path}: duplicate key {key!r}")
            by_key[key] = value
        else:
            raise ManifestError(f"{path}: unknown key {key!r}")

    if "prefixes" not in by_key:
        raise ManifestError(f"{path}: missing prefixes entry")
    prefix_path = _require_file(base / by_key["prefixes"], "prefix table")
    prefixes = PrefixTable.from_file(prefix_path)

    mode = by_key.get("detectorMode", "firstSense")
    if mode not in MODES:
        raise ManifestError(f"{path}: unknown detectorMode {mode!r}")

    graph_files = []
    seen_names: set[Term] = set()
    for spec in graphs:
        fields = [part.strip() for part in spec.split("|")]
        if len(fields) != 4:
            raise ManifestError(f"{path}: graph entry needs path | format | name | role: {spec!r}")
        rel, fmt, name, role = fields
        if fmt not in GRAPH_FORMATS:
            raise ManifestError(f"{path}: unknown graph format {fmt!r}")
        if role not in GRAPH_ROLES:
            raise ManifestError(f"{path}: unknown graph role {role!r}")
        term = prefixes.expand(name, path)
        if term in seen_names:
            raise ManifestError(f"{path}: duplicate graph name {name!r}")
        seen_names.add(term)
        graph_files.append(GraphFile(_require_file(base / rel, "graph file"), fmt, term, role))

    return Manifest(
        path=path,
        prefixes=prefixes,
        graph_files=graph_files,
        plans=[_require_file(base / rel, "plan file") for rel in plans],
        detector_mode=mode,
        values_csv=_require_file(base / by_key["values"], "value manifest") if "values" in by_key else None,
        corpus=_require_file(base / by_key["corpus"], "corpus file") if "corpus" in by_key else None,
        label_map=_require_file(base / by_key["labelMap"], "label map") if "labelMap" in by_key else None,
    )


def workspace_dir(manifest_path: str | Path) -> Path:
    override = os.environ.get(WORKSPACE_ENV)
    if override:
        return Path(override)
    return Path(manifest_path).parent / "workspace"


def safe_name(compacted: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", compacted)


@contextmanager
def _frozen_heap():
    """No GC passes while the body allocates; freeze what it made on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.freeze()
        if was_enabled:
            gc.enable()


# -- building --------------------------------------------------------------------


def build_workspace(manifest: Manifest, workspace: Path) -> dict:
    store = TripleStore()
    entries = []
    with _frozen_heap():
        for graph_file in manifest.graph_files:
            triples = parse(graph_file.path.read_text(encoding="utf-8"), graph_file.fmt)
            store.extend(graph_file.name, triples)
            entries.append({"name": graph_file.name.value, "role": graph_file.role})

        value_count = 0
        if manifest.values_csv is not None:
            model = build_model(load_value_manifest(manifest.values_csv, manifest.prefixes))
            value_count = len(model.values)
            for name, triples in sorted(model.module_graphs().items()):
                store.extend(name, triples)
                entries.append({"name": name.value, "role": "values"})

        lexical = [g.name for g in manifest.graph_files if g.role == "lexical"]
        lexicon = Lexicon(store, lexical)  # validates the lexical layer
        sections = _encode(store, lexicon)  # written once meta.json gives the snapshot its key
    store.freeze()

    graphs_dir = workspace / "graphs"
    graphs_dir.mkdir(parents=True, exist_ok=True)
    used = set()
    checksums = []
    for entry in entries:
        stem = safe_name(manifest.prefixes.compact(entry["name"]))
        if stem in used:
            raise ManifestError(f"graph file name collision in workspace: {stem}")
        used.add(stem)
        entry["file"] = f"graphs/{stem}.nt"
        graph = store.graph(iri(entry["name"]))
        data = to_ntriples(graph.triples).encode("utf-8")
        (workspace / entry["file"]).write_bytes(data)
        checksums.append(_checksum(entry["file"], data))

    meta = {
        "detectorMode": manifest.detector_mode,
        "graphs": entries,
        "counts": {
            "graphs": len(entries),
            "triples": sum(len(store.graph(iri(e["name"])).triples) for e in entries),
            "values": value_count,
        },
    }
    data = (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8")
    (workspace / "meta.json").write_bytes(data)
    _write_snapshot(workspace, (_checksum("meta.json", data), *checksums), sections)
    return meta


# -- the detector snapshot ----------------------------------------------------------


def _checksum(name: str, data: bytes) -> tuple[str, int, int]:
    return (name, len(data), zlib.crc32(data))


def _workspace_key(workspace: Path) -> tuple | None:
    """Checksums of meta.json and the graph files it lists, or None if one is unreadable."""
    try:
        data = (workspace / "meta.json").read_bytes()
        key = [_checksum("meta.json", data)]
        for entry in json.loads(data)["graphs"]:
            key.append(_checksum(entry["file"], (workspace / entry["file"]).read_bytes()))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return tuple(key)


class _Ids(dict):
    """Term -> id, numbering terms in the order they are first looked up."""

    def __missing__(self, term: Term) -> int:
        self[term] = at = len(self)
        return at


def _encode(store: TripleStore, lexicon: Lexicon) -> tuple[bytes, bytes]:
    """The snapshot's sections: the lexicon's and the detector's tables, then
    the expander's, each a ``marshal`` dump of plain data: each term once, as
    its fields, and term or entry ids everywhere else. The expander's section
    numbers its own terms on from the detector's, and leaves out the object
    tables the detector's section already holds."""
    tables = lookup_tables(store)
    expander = expander_tables(store, tables)
    ids = _Ids()
    term_id = ids.__getitem__

    def encoded(tables: Tables) -> dict:
        return {
            term_id(predicate): {term_id(key): tuple(map(term_id, found)) for key, found in rows.items()}
            for predicate, rows in tables.items()
        }

    by_lemma, by_form, frames, multiwords = lexicon.tables()
    entries = [entry for same_lemma in by_lemma.values() for entry in same_lemma]  # one lemma per entry
    row_of = {id(entry): at for at, entry in enumerate(entries)}
    rows = [
        (term_id(e.node), e.lemma, e.pos, tuple(map(term_id, e.senses)), tuple(map(term_id, e.concept_anchors)))
        for e in entries
    ]
    lexical = (
        {lemma: [row_of[id(e)] for e in same_lemma] for lemma, same_lemma in by_lemma.items()},
        {form: [row_of[id(e)] for e in same_form] for form, same_form in by_form.items()},
        {term_id(f): [(term_id(e.id), e.name, e.element_type) for e in fes] for f, fes in frames.items()},
        multiwords,
    )
    detector_tables = encoded(tables)
    detector_terms = [tuple(term) for term in ids]
    objects = encoded({predicate: rows for predicate, rows in expander.objects.items() if predicate not in tables})
    subjects = encoded(expander.subjects)
    expander_terms = [tuple(term) for term in islice(ids, len(detector_terms), None)]
    return (
        marshal.dumps((detector_terms, rows, lexical, detector_tables)),
        marshal.dumps((expander_terms, objects, subjects)),
    )


def _write_snapshot(workspace: Path, key: tuple, sections: tuple[bytes, bytes]) -> None:
    header = (_SNAPSHOT_VERSION, sys.implementation.cache_tag, key)
    partial_path = workspace / f"{SNAPSHOT_FILE}.tmp"
    partial_path.write_bytes(_SNAPSHOT_MAGIC + marshal.dumps((*header, sections)))
    os.replace(partial_path, workspace / SNAPSHOT_FILE)


# Terms from fields the store already validated, without Term's checks.
_term_from_fields = partial(tuple.__new__, Term)


def _decode_tables(terms: list[Term], encoded: dict) -> Tables:
    term = terms.__getitem__
    return {
        terms[predicate]: {terms[key]: tuple(map(term, found)) for key, found in rows.items()}
        for predicate, rows in encoded.items()
    }


def _decode_detector(section: bytes) -> tuple[list[Term], Lexicon, Tables]:
    fields, rows, lexical, encoded = marshal.loads(section)
    terms = list(map(_term_from_fields, fields))
    term = terms.__getitem__
    entries = [
        LexicalEntry(terms[node], lemma, pos, tuple(map(term, senses)), tuple(map(term, anchors)))
        for node, lemma, pos, senses, anchors in rows
    ]
    entry = entries.__getitem__
    by_lemma, by_form, frames, multiwords = lexical
    lexicon = Lexicon.from_tables(
        {lemma: list(map(entry, at)) for lemma, at in by_lemma.items()},
        {form: list(map(entry, at)) for form, at in by_form.items()},
        {terms[f]: [FrameElement(terms[e], name, kind) for e, name, kind in fes] for f, fes in frames.items()},
        multiwords,
    )
    return terms, lexicon, _decode_tables(terms, encoded)


def _decode_expander(section: bytes, terms: list[Term], tables: Tables) -> ExpanderTables:
    """The expander's tables; ``terms`` and ``tables`` are the detector section's."""
    fields, objects, subjects = marshal.loads(section)
    terms = terms + list(map(_term_from_fields, fields))
    objects = {**tables, **_decode_tables(terms, objects)}
    return ExpanderTables(
        {predicate: objects[predicate] for predicate in OBJECT_PREDICATES}, _decode_tables(terms, subjects)
    )


def _load_snapshot(workspace: Path, expander: bool = False) -> tuple[Lexicon, Tables, ExpanderTables | None] | None:
    """The snapshot's lexicon and detector tables, and its expander tables if
    ``expander`` is set (else None), if it matches the workspace; else None.
    Only the sections asked for are decoded."""
    try:
        data = (workspace / SNAPSHOT_FILE).read_bytes()
        if not data.startswith(_SNAPSHOT_MAGIC):
            return None
        version, cache_tag, key, sections = marshal.loads(memoryview(data)[len(_SNAPSHOT_MAGIC) :])
        del data  # the sections are copies; free the file's bytes before the key check reads the graphs
        if (version, cache_tag) != (_SNAPSHOT_VERSION, sys.implementation.cache_tag):
            return None
        if key != _workspace_key(workspace):
            return None
        detector_section, expander_section = sections
        terms, lexicon, tables = _decode_detector(detector_section)
        return lexicon, tables, _decode_expander(expander_section, terms, tables) if expander else None
    except (OSError, EOFError, ValueError, TypeError, IndexError, KeyError, AttributeError):
        return None


def open_detector(workspace: Path, mode: str) -> Detector:
    """The detector over the workspace plus its trigger graphs: from the
    snapshot when it matches, else built from the graph files."""
    with _frozen_heap():
        snapshot = _load_snapshot(workspace)
        if snapshot is not None:
            lexicon, tables, _ = snapshot
            triggers = TripleStore()
            load_trigger_graphs(triggers, workspace)
            triggers.freeze()
            merge_tables(tables, lookup_tables(triggers))
            return Detector.from_tables(lexicon, tables, mode)
    store, lexicon, _ = load_workspace(workspace)
    load_trigger_graphs(store, workspace)
    store.freeze()
    return Detector(store, lexicon, mode)


def open_expander(workspace: Path, prefixes: PrefixTable) -> Expander:
    """The expander over the workspace's base graphs (never its trigger
    graphs): from the snapshot when it matches, else built from the graph files."""
    with _frozen_heap():
        snapshot = _load_snapshot(workspace, expander=True)
        if snapshot is not None:
            lexicon, _, tables = snapshot
            return Expander.from_tables(lexicon, tables, prefixes)
    store, lexicon, _ = load_workspace(workspace)
    store.freeze()
    return Expander(store, lexicon, prefixes)


# -- loading ---------------------------------------------------------------------


def read_meta(workspace: Path) -> dict:
    meta_path = workspace / "meta.json"
    if not meta_path.is_file():
        raise ManifestError(f"workspace not built (missing {meta_path}); run build-kb first")
    return json.loads(meta_path.read_text(encoding="utf-8"))


def load_workspace(workspace: Path) -> tuple[TripleStore, Lexicon, dict]:
    """Unfrozen store plus lexicon; callers freeze once extra graphs are in."""
    meta = read_meta(workspace)
    store = TripleStore()
    with _frozen_heap():
        for entry in meta["graphs"]:
            triples = parse((workspace / entry["file"]).read_text(encoding="utf-8"), "ntriples")
            store.extend(iri(entry["name"]), triples)
        lexical = [iri(e["name"]) for e in meta["graphs"] if e["role"] == "lexical"]
        lexicon = Lexicon(store, lexical)
    return store, lexicon, meta


def load_trigger_graphs(store: TripleStore, workspace: Path) -> list[Term]:
    """Pull expansion output into the store; graph names recovered from content."""
    names = []
    triggers_dir = workspace / "triggers"
    if not triggers_dir.is_dir():
        return names
    for path in sorted(triggers_dir.glob("*.nt")):
        triples = parse(path.read_text(encoding="utf-8"), "ntriples")
        values = {t.o for t in triples if t.p == vocab.TRIGGERS}
        if not values:
            continue
        if len(values) > 1:
            raise ManifestError(f"{path}: trigger graph mixes multiple values")
        name = trigger_graph_name(values.pop())
        store.extend(name, triples)
        names.append(name)
    return names
