"""Indexed view over the lexical knowledge graphs.

Entries, frames, and frame elements are built once from the predicate rows
(``store.predicate_rows``) of the graphs marked with the `lexical` role, and
indexed by lemma and surface form. Only those graphs are read, so a value
graph's ``rdfs:label`` or ``fg:lemma`` stays out, and a triple that several
lexical graphs state counts once. Sense-level links (evoked frames, verb
classes, concept hops, external alignments) are not indexed here: the
detector and the expander read them as one-hop rows (``store.OneHop``).

Sense rank follows the WordNet numbering convention: the trailing integer of
the sense IRI (`...risk-verb-2` has rank 2), rank 1 being the default sense.
File order cannot carry rank because graphs are sets.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple

from . import vocab
from .store import Rows, TripleStore, predicate_rows
from .terms import LITERAL, Term

POS_VALUES = ("noun", "verb", "adjective", "adverb", "multiword")
_POS_ORDER = {pos: i for i, pos in enumerate(POS_VALUES)}
ELEMENT_TYPES = ("core", "peripheral", "extraThematic")

_RANK_RE = re.compile(r"-(\d+)$")


class LexiconError(ValueError):
    pass


class LexicalEntry(NamedTuple):
    node: Term
    lemma: str
    pos: str
    senses: tuple[Term, ...]
    concept_anchors: tuple[Term, ...] = ()

    @property
    def default_sense(self) -> Term:
        return self.senses[0]


class FrameElement(NamedTuple):
    id: Term
    name: str
    element_type: str


def sense_rank(sense: Term) -> int:
    match = _RANK_RE.search(sense.value)
    return int(match.group(1)) if match else 10**9


def _entry_order(entry: LexicalEntry):
    return _POS_ORDER[entry.pos], entry.node


def _literal(subject: Term, rows: Rows, what: str) -> str:
    values = [o.value for o in rows.get(subject, ()) if o.kind == LITERAL]
    if len(values) != 1:
        raise LexiconError(f"{subject.value}: expected exactly one {what}, found {len(values)}")
    return values[0]


class Lexicon:
    """Lookup tables built from the lexical graphs; keeps no reference to the store."""

    def __init__(self, store: TripleStore, lexical_graphs: list[Term]):
        graphs = [store.graph(name) for name in lexical_graphs]

        def objects(p: Term) -> Rows:
            return predicate_rows(graphs, p)

        typed = predicate_rows(graphs, vocab.RDF_TYPE, by_object=True)
        lemmas, poses, senses, forms, anchors = map(
            objects, (vocab.LEMMA, vocab.POS, vocab.SENSE, vocab.FORM, vocab.CONCEPT_ANCHOR)
        )
        self._by_lemma: dict[str, list[LexicalEntry]] = {}
        self._by_form: dict[str, list[LexicalEntry]] = {}
        self._multiwords: list[tuple[str, ...]] = []
        for node in typed.get(vocab.LEXICAL_ENTRY, ()):
            lemma = _literal(node, lemmas, "lemma")
            pos = _literal(node, poses, "pos")
            if pos not in _POS_ORDER:
                raise LexiconError(f"{node.value}: unknown pos {pos!r}")
            if node not in senses:
                raise LexiconError(f"{node.value}: entry has no senses")
            ranked = tuple(sorted(senses[node], key=lambda s: (sense_rank(s), s)))
            entry = LexicalEntry(node, lemma, pos, ranked, anchors.get(node, ()))
            self._by_lemma.setdefault(lemma, []).append(entry)
            for form in forms.get(node, ()):
                self._by_form.setdefault(form.value, []).append(entry)
            if pos == "multiword":
                self._multiwords.append(tuple(lemma.split(" ")))
        for entries in chain(self._by_lemma.values(), self._by_form.values()):
            entries.sort(key=_entry_order)
        self._multiwords.sort(key=lambda words: (-len(words), words))

        elements, labels, element_types = map(objects, (vocab.ELEMENT, vocab.RDFS_LABEL, vocab.ELEMENT_TYPE))
        self._frames: dict[Term, list[FrameElement]] = {}
        for frame in typed.get(vocab.FRAME, ()):
            self._frames[frame] = found = []
            for fe in elements.get(frame, ()):
                name = _literal(fe, labels, "element label")
                element_type = _literal(fe, element_types, "element type")
                if element_type not in ELEMENT_TYPES:
                    raise LexiconError(f"{fe.value}: unknown element type {element_type!r}")
                if any(e.name == name for e in found):
                    raise LexiconError(f"{frame.value}: duplicate element name {name!r}")
                found.append(FrameElement(fe, name, element_type))

        same_as = objects(vocab.OWL_SAME_AS)
        for s in sorted(same_as):
            for o in same_as[s]:
                if s not in same_as.get(o, ()):
                    raise LexiconError(f"sameAs is asymmetric: {s.value} -> {o.value} has no inverse")

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
        return sorted(seen.values(), key=_entry_order)

    def multiwords(self) -> list[tuple[str, ...]]:
        """Multiword lemmas as token tuples, longest first."""
        return list(self._multiwords)

    def frame_elements(self, frame: Term) -> list[FrameElement]:
        """The frame's elements, of every element type, in term order of their ids."""
        if frame not in self._frames:
            raise LexiconError(f"unknown frame: {frame.value}")
        return list(self._frames[frame])
