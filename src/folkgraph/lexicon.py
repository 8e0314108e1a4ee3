"""Indexed view over the lexical knowledge graphs.

Entries, frames, and frame elements are scanned once from the graphs marked
with the `lexical` role and indexed by lemma and surface form. Sense-level
links (evoked frames, verb classes, concept hops, external alignments) are
not indexed here: the detector and the expander read them as one-hop rows
(``store.OneHop``).

Sense rank follows the WordNet numbering convention: the trailing integer of
the sense IRI (`...risk-verb-2` has rank 2), rank 1 being the default sense.
File order cannot carry rank because graphs are sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from . import vocab
from .store import NamedGraph, TripleStore
from .terms import LITERAL, Term

POS_VALUES = ("noun", "verb", "adjective", "adverb", "multiword")
_POS_ORDER = {pos: i for i, pos in enumerate(POS_VALUES)}
ELEMENT_TYPES = ("core", "peripheral", "extraThematic")

_RANK_RE = re.compile(r"-(\d+)$")


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class LexicalEntry:
    node: Term
    lemma: str
    pos: str
    senses: tuple[Term, ...]
    concept_anchors: tuple[Term, ...] = ()

    @property
    def default_sense(self) -> Term:
        return self.senses[0]


@dataclass(frozen=True)
class FrameElement:
    id: Term
    name: str
    element_type: str


def sense_rank(sense: Term) -> int:
    match = _RANK_RE.search(sense.value)
    return int(match.group(1)) if match else 10**9


class Lexicon:
    """Lookup tables scanned from the lexical graphs; keeps no reference to the store."""

    def __init__(self, store: TripleStore, lexical_graphs: list[Term]):
        self._by_lemma: dict[str, list[LexicalEntry]] = {}
        self._by_form: dict[str, list[LexicalEntry]] = {}
        self._frames: dict[Term, list[FrameElement]] = {}
        self._multiwords: list[tuple[str, ...]] = []
        self._build([store.graph(name) for name in lexical_graphs])

    @classmethod
    def from_tables(cls, by_lemma, by_form, frames, multiwords) -> "Lexicon":
        """A lexicon over the tables ``tables()`` gave."""
        lexicon = cls.__new__(cls)
        lexicon._by_lemma, lexicon._by_form, lexicon._frames = by_lemma, by_form, frames
        lexicon._multiwords = multiwords
        return lexicon

    def tables(self):
        """Entries by lemma and by form, frame elements by frame, and the
        multiwords: everything the lookups read, as ``from_tables`` takes it."""
        return self._by_lemma, self._by_form, self._frames, self._multiwords

    # -- build ---------------------------------------------------------------

    @staticmethod
    def _scan(graphs: list[NamedGraph], s=None, p=None, o=None):
        for graph in graphs:
            yield from graph.candidates(s, p, o)

    def _by_predicate(self, graphs: list[NamedGraph], subject: Term) -> dict[Term, list[Term]]:
        """Objects of every triple on ``subject`` in the lexical graphs, by predicate."""
        objects: dict[Term, list[Term]] = {}
        for t in self._scan(graphs, s=subject):
            objects.setdefault(t.p, []).append(t.o)
        return objects

    @staticmethod
    def _literal(subject: Term, objects: dict[Term, list[Term]], predicate: Term, what: str) -> str:
        values = [o.value for o in objects.get(predicate, ()) if o.kind == LITERAL]
        if len(values) != 1:
            raise LexiconError(f"{subject.value}: expected exactly one {what}, found {len(values)}")
        return values[0]

    def _build(self, graphs: list[NamedGraph]) -> None:
        for triple in self._scan(graphs, p=vocab.RDF_TYPE, o=vocab.LEXICAL_ENTRY):
            self._index_entry(graphs, triple.s)
        for triple in self._scan(graphs, p=vocab.RDF_TYPE, o=vocab.FRAME):
            self._index_frame(graphs, triple.s)
        for entries in chain(self._by_lemma.values(), self._by_form.values()):
            entries.sort(key=lambda e: (_POS_ORDER[e.pos], e.node))
        self._multiwords.sort(key=lambda words: (-len(words), words))
        self._check_same_as_symmetry(graphs)

    def _index_entry(self, graphs: list[NamedGraph], node: Term) -> None:
        objects = self._by_predicate(graphs, node)
        lemma = self._literal(node, objects, vocab.LEMMA, "lemma")
        pos = self._literal(node, objects, vocab.POS, "pos")
        if pos not in _POS_ORDER:
            raise LexiconError(f"{node.value}: unknown pos {pos!r}")
        senses = sorted(objects.get(vocab.SENSE, ()), key=lambda s: (sense_rank(s), s))
        if not senses:
            raise LexiconError(f"{node.value}: entry has no senses")
        anchors = sorted(objects.get(vocab.CONCEPT_ANCHOR, ()))
        entry = LexicalEntry(node, lemma, pos, tuple(senses), tuple(anchors))
        self._by_lemma.setdefault(lemma, []).append(entry)
        for form in objects.get(vocab.FORM, ()):
            self._by_form.setdefault(form.value, []).append(entry)
        if pos == "multiword":
            self._multiwords.append(tuple(lemma.split(" ")))

    def _index_frame(self, graphs: list[NamedGraph], node: Term) -> None:
        elements = []
        names = set()
        for fe in sorted(t.o for t in self._scan(graphs, s=node, p=vocab.ELEMENT)):
            objects = self._by_predicate(graphs, fe)
            name = self._literal(fe, objects, vocab.RDFS_LABEL, "element label")
            element_type = self._literal(fe, objects, vocab.ELEMENT_TYPE, "element type")
            if element_type not in ELEMENT_TYPES:
                raise LexiconError(f"{fe.value}: unknown element type {element_type!r}")
            if name in names:
                raise LexiconError(f"{node.value}: duplicate element name {name!r}")
            names.add(name)
            elements.append(FrameElement(fe, name, element_type))
        self._frames[node] = elements

    def _check_same_as_symmetry(self, graphs: list[NamedGraph]) -> None:
        links = {(t.s, t.o) for t in self._scan(graphs, p=vocab.OWL_SAME_AS)}
        for s, o in sorted(links):
            if (o, s) not in links:
                raise LexiconError(f"sameAs is asymmetric: {s.value} -> {o.value} has no inverse")

    # -- lookups ---------------------------------------------------------------

    def lookup_lemma(self, lemma: str, pos: str | None = None) -> list[LexicalEntry]:
        if not lemma:
            raise LexiconError("empty lemma")
        entries = self._by_lemma.get(lemma, [])
        if pos is not None:
            entries = [e for e in entries if e.pos == pos]
        return list(entries)

    def lookup_form(self, form: str) -> list[LexicalEntry]:
        """Entries matching an inflected surface form (lemma matches included)."""
        if not form:
            raise LexiconError("empty form")
        seen = {e.node: e for e in self._by_lemma.get(form, [])}
        for entry in self._by_form.get(form, []):
            seen.setdefault(entry.node, entry)
        return sorted(seen.values(), key=lambda e: (_POS_ORDER[e.pos], e.node))

    def multiwords(self) -> list[tuple[str, ...]]:
        """Multiword lemmas as token tuples, longest first."""
        return list(self._multiwords)

    def frame_elements(self, frame: Term) -> list[FrameElement]:
        """The frame's elements, of every element type, in term order of their ids."""
        if frame not in self._frames:
            raise LexiconError(f"unknown frame: {frame.value}")
        return list(self._frames[frame])
