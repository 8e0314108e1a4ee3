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
``detect``. It holds one ``marshal`` dump of plain data over the base graphs
(every term once, an IRI as its value and any other term as its four fields,
and integer term ids everywhere else), so loading it never runs code: the
lexicon's entry tables, and the one-hop rows of ``vocab.ONE_HOP_OBJECTS`` and
``ONE_HOP_SUBJECTS``, one nested dump per predicate, decoded when asked for.
Its key is the byte length and CRC-32 of ``meta.json`` and of every graph file
``meta.json`` lists, next to a format version, ``sys.implementation.cache_tag``
and the payload's own CRC-32. ``_open`` decodes it into a lexicon and a
``store.OneHop`` when all of these match the workspace on disk. Otherwise (no
snapshot, a stale, damaged or truncated one, another format or interpreter) it builds
both from the graph files as ``load_workspace`` does. ``open_expander`` takes
the expander's rows from that ``OneHop``; ``open_detector`` takes the
detector's from its union with the trigger graphs' rows, on either path, so
it decodes no row only the expander reads. Both ways give the same detector
and the same expander. CRC-32 only has to notice an edit or a rebuild, not
resist forgery: anyone who can write the graph files can rewrite the snapshot
too.

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
from pathlib import Path

from . import vocab
from .config import config_pairs
from .detector import MODES, Detector
from .expansion import Expander, trigger_graph_name
from .lexicon import FrameElement, LexicalEntry, Lexicon
from .rdfio import PrefixTable, parse, to_ntriples
from .store import OneHop, Rows, TripleStore, one_hop
from .terms import IRI, Term, iri
from .values import build_model, load_value_manifest

GRAPH_ROLES = ("lexical", "values", "triggers")
GRAPH_FORMATS = ("ntriples", "turtle")

WORKSPACE_ENV = "FOLKGRAPH_WORKSPACE"
SNAPSHOT_FILE = "detector.snapshot"
_SNAPSHOT_MAGIC = b"folkgraph detector snapshot\n"
_SNAPSHOT_VERSION = 4  # bump whenever the payload changes shape or meaning
_IRI_RANK = iri("").rank  # the snapshot stores an IRI as its bare value


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
        payload = _encode(store, lexicon)  # written once meta.json gives the snapshot its key
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
    _write_snapshot(workspace, (_checksum("meta.json", data), *checksums), payload)
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


def _encode(store: TripleStore, lexicon: Lexicon) -> bytes:
    """The snapshot's payload, a ``marshal`` dump of plain data: the terms, the
    lexicon's entry rows and tables, and the one-hop rows of ``vocab.ONE_HOP_OBJECTS``
    and ``ONE_HOP_SUBJECTS``, one nested dump per predicate under its IRI. Each
    term is stored once, an IRI as its value and any other term as its four
    fields, and referred to by its index everywhere else."""
    ids = _Ids()
    term_id = ids.__getitem__

    def dumped(rows: Rows) -> bytes:
        return marshal.dumps({term_id(key): tuple(map(term_id, found)) for key, found in rows.items()})

    by_lemma, by_form, frames, multiwords = lexicon.tables()
    entries = [entry for same_lemma in by_lemma.values() for entry in same_lemma]  # one lemma per entry
    row_of = {id(entry): at for at, entry in enumerate(entries)}
    entry_rows = [
        (term_id(e.node), e.lemma, e.pos, tuple(map(term_id, e.senses)), tuple(map(term_id, e.concept_anchors)))
        for e in entries
    ]
    lexical = (
        {lemma: [row_of[id(e)] for e in same_lemma] for lemma, same_lemma in by_lemma.items()},
        {form: [row_of[id(e)] for e in same_form] for form, same_form in by_form.items()},
        {term_id(f): [(term_id(e.id), e.name, e.element_type) for e in fes] for f, fes in frames.items()},
        multiwords,
    )
    objects = {p.value: dumped(store.objects_by_subject(p)) for p in vocab.ONE_HOP_OBJECTS}
    subjects = {p.value: dumped(store.subjects_by_object(p)) for p in vocab.ONE_HOP_SUBJECTS}
    terms = [term.value if term.kind == IRI else tuple(term) for term in ids]
    return marshal.dumps((terms, entry_rows, lexical, objects, subjects))


def _write_snapshot(workspace: Path, key: tuple, payload: bytes) -> None:
    header = (_SNAPSHOT_VERSION, sys.implementation.cache_tag, key, zlib.crc32(payload))
    partial_path = workspace / f"{SNAPSHOT_FILE}.tmp"
    partial_path.write_bytes(_SNAPSHOT_MAGIC + marshal.dumps((*header, payload)))
    os.replace(partial_path, workspace / SNAPSHOT_FILE)


def _decode(payload: bytes) -> tuple[Lexicon, OneHop]:
    """The lexicon and one-hop rows ``_encode`` stored. Terms are made from
    fields the store already validated, without Term's checks; a predicate's
    rows are decoded when asked for, and one the payload lacks raises
    ``KeyError``."""
    fields, entry_rows, lexical, objects, subjects = marshal.loads(payload)
    new = tuple.__new__
    terms = [new(Term, f) if f.__class__ is tuple else new(Term, (_IRI_RANK, f, "", "")) for f in fields]
    term = terms.__getitem__
    entries = [
        LexicalEntry(terms[node], lemma, pos, tuple(map(term, senses)), tuple(map(term, anchors)))
        for node, lemma, pos, senses, anchors in entry_rows
    ]
    entry = entries.__getitem__
    by_lemma, by_form, frames, multiwords = lexical
    lexicon = Lexicon.from_tables(
        {lemma: list(map(entry, at)) for lemma, at in by_lemma.items()},
        {form: list(map(entry, at)) for form, at in by_form.items()},
        {terms[f]: [FrameElement(terms[e], name, kind) for e, name, kind in fes] for f, fes in frames.items()},
        multiwords,
    )
    return lexicon, OneHop(partial(_decode_rows, terms, objects), partial(_decode_rows, terms, subjects))


def _decode_rows(terms: list[Term], dumps: dict[str, bytes], predicate: Term) -> Rows:
    term = terms.__getitem__
    return {terms[key]: tuple(map(term, found)) for key, found in marshal.loads(dumps[predicate.value]).items()}


def _load_snapshot(workspace: Path) -> tuple[Lexicon, OneHop] | None:
    """The snapshot's lexicon and one-hop rows if it matches the workspace, else None."""
    try:
        data = (workspace / SNAPSHOT_FILE).read_bytes()
        if not data.startswith(_SNAPSHOT_MAGIC):
            return None
        version, cache_tag, key, crc, payload = marshal.loads(memoryview(data)[len(_SNAPSHOT_MAGIC) :])
        del data  # the payload is a copy; free the file's bytes before the key check reads the graphs
        if (version, cache_tag) != (_SNAPSHOT_VERSION, sys.implementation.cache_tag):
            return None
        if key != _workspace_key(workspace) or crc != zlib.crc32(payload):  # rows decode later, outside this try
            return None
        return _decode(payload)
    except (OSError, EOFError, ValueError, TypeError, IndexError, KeyError, AttributeError):
        return None


def _open(workspace: Path) -> tuple[Lexicon, OneHop]:
    """The lexicon and one-hop rows of the workspace's base graphs (never its
    trigger graphs): from the snapshot when it matches, else from the graph files."""
    snapshot = _load_snapshot(workspace)
    if snapshot is not None:
        return snapshot
    store, lexicon, _ = load_workspace(workspace)
    store.freeze()
    return lexicon, one_hop(store)


def open_detector(workspace: Path, mode: str) -> Detector:
    """The detector over the workspace's base graphs plus its trigger graphs."""
    with _frozen_heap():
        lexicon, rows = _open(workspace)
        triggers = TripleStore()
        load_trigger_graphs(triggers, workspace)
        triggers.freeze()
        return Detector.from_tables(lexicon, rows.union(one_hop(triggers)), mode)


def open_expander(workspace: Path, prefixes: PrefixTable) -> Expander:
    """The expander over the workspace's base graphs (never its trigger graphs)."""
    with _frozen_heap():
        return Expander.from_tables(*_open(workspace), prefixes)


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
