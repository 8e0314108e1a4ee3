"""Frame-based value detection over raw text.

The text frontend is deliberately rule based so that two runs over the same
input and knowledge base produce byte-identical output: Unicode word
tokenization, longest-match multiword segmentation, then lexicon lookups for
lemma, part of speech, and sense. Frames, verb classes, activation and
stance are table lookups: at construction the detector takes the one-hop
rows (``store.OneHop``) of ``evokes``, ``senseKey``, ``triggers``,
``affectRole`` and ``affectPolarity``, which give the same objects, in the
same order, as a pattern match would. ``Detector(store, ...)`` takes them from
a frozen store; ``Detector.from_tables`` takes them from any ``OneHop``, such
as the workspace snapshot's merged with the trigger graphs'.

Node IRIs are ``sent:<id>/n<index>`` with the sentence id percent-encoded
(RFC 3986), so every id yields an IRI the N-Triples reader accepts.

Two sense modes exist. ``firstSense`` keeps one node per surface unit, taking
the first matching entry in part-of-speech order and its top-ranked sense.
``allSenses`` emits a node for every sense of every matching entry, which can
only widen the set of activated values.

Activation is tested per node entity (sense, evoked frames, verb classes):
a direct trigger triple on the entity, or the two-hop closure through a frame
the entity evokes. Each hit is kept as an explicit chain whose every link is
a triple in the store, so any reported activation can be re-checked with a
plain graph query.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from urllib.parse import quote

from . import vocab
from .lexicon import Lexicon
from .rdfio import PrefixTable
from .store import OneHop, TripleStore, one_hop
from .terms import Term, Triple, iri, lit

MODES = ("firstSense", "allSenses")

_WORD = re.compile(r"\w+")
_CHAIN_PREDICATES = {"evokes": vocab.EVOKES, "triggers": vocab.TRIGGERS}
_STANCE_TARGET_POS = {"noun", "multiword"}


class DetectorError(ValueError):
    pass


@dataclass(frozen=True)
class NodeAnnotation:
    """One disambiguated surface unit: a token or a matched multiword."""

    node: Term
    span: tuple[int, int]
    anchor: str
    lemma: str
    pos: str
    sense: Term | None
    frames: tuple[Term, ...]
    verb_classes: tuple[Term, ...]

    def entities(self) -> list[Term]:
        out: list[Term] = [] if self.sense is None else [self.sense]
        out.extend(self.frames)
        out.extend(self.verb_classes)
        return out


@dataclass
class SentenceGraph:
    sentence_id: str
    text: str
    nodes: list[NodeAnnotation]

    @property
    def no_graph(self) -> bool:
        return not self.nodes

    def base_triples(self) -> set[Triple]:
        triples: set[Triple] = set()
        for node in self.nodes:
            n = node.node
            triples.add(Triple(n, vocab.RDF_TYPE, vocab.SENTENCE_NODE))
            triples.add(Triple(n, vocab.ANCHOR, lit(node.anchor)))
            triples.add(Triple(n, vocab.SPAN_START, lit(str(node.span[0]), datatype=vocab.XSD_INTEGER)))
            triples.add(Triple(n, vocab.SPAN_END, lit(str(node.span[1]), datatype=vocab.XSD_INTEGER)))
            triples.add(Triple(n, vocab.LEMMA, lit(node.lemma)))
            triples.add(Triple(n, vocab.POS, lit(node.pos)))
            if node.sense is not None:
                triples.add(Triple(n, vocab.SENSE, node.sense))
            for frame in node.frames:
                triples.add(Triple(n, vocab.EVOKES, frame))
            for verb_class in node.verb_classes:
                triples.add(Triple(n, vocab.VERB_CLASS, verb_class))
        return triples


@dataclass(frozen=True)
class ActivationPath:
    """Alternating entity/edge chain from a node entity to a value.

    ``chain`` looks like ``(sense, "evokes", frame, "triggers", value)``;
    every (subject, edge, object) window corresponds to one store triple.
    """

    value: Term
    node_index: int
    chain: tuple[Term | str, ...]

    def links(self) -> list[Triple]:
        out = []
        for i in range(0, len(self.chain) - 2, 2):
            subject, kind, obj = self.chain[i], self.chain[i + 1], self.chain[i + 2]
            out.append(Triple(subject, _CHAIN_PREDICATES[kind], obj))
        return out


@dataclass(frozen=True)
class StanceJudgment:
    verb_class: Term
    role: str
    polarity: str
    node_index: int
    target_index: int


@dataclass
class DetectionResult:
    graph: SentenceGraph
    paths: list[ActivationPath]
    stances: list[StanceJudgment] = field(default_factory=list)

    @property
    def values(self) -> list[Term]:
        return sorted({p.value for p in self.paths})

    def triples(self) -> set[Triple]:
        """Full per-sentence graph: annotations, activations, justifications."""
        triples = self.graph.base_triples()
        for path in self.paths:
            triples.add(Triple(self.graph.nodes[path.node_index].node, vocab.ACTIVATES, path.value))
            triples.update(path.links())
        for stance in self.stances:
            node = self.graph.nodes[stance.node_index].node
            triples.add(Triple(node, vocab.STANCE_ROLE, lit(stance.role)))
            triples.add(Triple(node, vocab.STANCE_POLARITY, lit(stance.polarity)))
            triples.add(Triple(node, vocab.STANCE_TARGET, self.graph.nodes[stance.target_index].node))
        return triples

    def summary(self, prefixes: PrefixTable) -> dict:
        short = prefixes.shorten
        return {
            "id": self.graph.sentence_id,
            "noGraph": self.graph.no_graph,
            "values": [short(v) for v in self.values],
            "paths": [
                {
                    "node": p.node_index,
                    "chain": [part if isinstance(part, str) else short(part) for part in p.chain],
                }
                for p in self.paths
            ],
            "stances": [
                {
                    "node": s.node_index,
                    "verbClass": short(s.verb_class),
                    "role": s.role,
                    "polarity": s.polarity,
                    "target": s.target_index,
                }
                for s in self.stances
            ],
        }

    def summary_line(self, prefixes: PrefixTable) -> str:
        return json.dumps(self.summary(prefixes), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class Detector:
    """Read-only lookup tables and lexicon; one instance serves many sentences."""

    def __init__(self, store: TripleStore, lexicon: Lexicon, mode: str = "firstSense"):
        if not store.frozen:
            raise DetectorError("detector needs a frozen store")
        self._use(lexicon, mode, one_hop(store))

    @classmethod
    def from_tables(cls, lexicon: Lexicon, rows: OneHop, mode: str = "firstSense") -> "Detector":
        """A detector over the rows of any source, such as the workspace snapshot."""
        detector = cls.__new__(cls)
        detector._use(lexicon, mode, rows)
        return detector

    def _use(self, lexicon: Lexicon, mode: str, rows: OneHop) -> None:
        if mode not in MODES:
            raise DetectorError(f"unknown detector mode: {mode!r}")
        self.lexicon = lexicon
        self.mode = mode
        # Multiwords by first token, each list longest first like lexicon.multiwords().
        self._multiwords: dict[str, list[tuple[str, ...]]] = {}
        for words in lexicon.multiwords():
            self._multiwords.setdefault(words[0], []).append(words)
        self._evokes = rows.objects(vocab.EVOKES)
        self._sense_keys = rows.objects(vocab.SENSE_KEY)
        self._triggers = rows.objects(vocab.TRIGGERS)
        self._affect_roles = rows.objects(vocab.AFFECT_ROLE)
        self._affect_polarities = rows.objects(vocab.AFFECT_POLARITY)

    # -- frontend ------------------------------------------------------------

    def _segment(self, text: str) -> list[tuple[int, int, str]]:
        tokens = [(m.start(), m.end(), m.group().lower()) for m in _WORD.finditer(text)]
        units = []
        i = 0
        while i < len(tokens):
            width = self._multiword_at(tokens, i)
            if width:
                units.append((tokens[i][0], tokens[i + width - 1][1], " ".join(t[2] for t in tokens[i : i + width])))
                i += width
            else:
                units.append(tokens[i])
                i += 1
        return units

    def _multiword_at(self, tokens: list[tuple[int, int, str]], i: int) -> int:
        # Candidates are sorted longest first, so the greedy pick is the longest match.
        for words in self._multiwords.get(tokens[i][2], ()):
            n = len(words)
            if n <= len(tokens) - i and tuple(t[2] for t in tokens[i : i + n]) == words:
                return n
        return 0

    def analyze(self, text: str, sentence_id: str = "s") -> SentenceGraph:
        if not text:
            raise DetectorError("empty sentence text")
        node_prefix = f"{vocab.NAMESPACES['sent']}{quote(sentence_id, safe='')}/n"
        nodes: list[NodeAnnotation] = []
        for start, end, surface in self._segment(text):
            entries = self.lexicon.lookup_form(surface)
            if not entries:
                continue
            if self.mode == "firstSense":
                picks = [(entries[0], entries[0].default_sense)]
            else:
                picks = [(entry, sense) for entry in entries for sense in entry.senses]
            for entry, sense in picks:
                nodes.append(
                    NodeAnnotation(
                        node=iri(f"{node_prefix}{len(nodes)}"),
                        span=(start, end),
                        anchor=text[start:end],
                        lemma=entry.lemma,
                        pos=entry.pos,
                        sense=sense,
                        frames=self._evokes.get(sense, ()),
                        verb_classes=self._sense_keys.get(sense, ()),
                    )
                )
        return SentenceGraph(sentence_id, text, nodes)

    # -- activation ----------------------------------------------------------

    def detect_values(self, graph: SentenceGraph) -> DetectionResult:
        """Direct trigger edges on each node entity, then the two-hop closure
        through the frames the entity evokes; each list in term order."""
        paths = []
        for index, node in enumerate(graph.nodes):
            for entity in node.entities():
                for value in self._triggers.get(entity, ()):
                    paths.append(ActivationPath(value, index, (entity, "triggers", value)))
                for frame in self._evokes.get(entity, ()):
                    for value in self._triggers.get(frame, ()):
                        paths.append(ActivationPath(value, index, (entity, "evokes", frame, "triggers", value)))
        return DetectionResult(graph, paths)

    # -- stance --------------------------------------------------------------

    def _affect_entries(self, verb_class: Term) -> list[tuple[str, str]]:
        # Polarity-major, the order of the (role, polarity) join sorted by variable name.
        roles = self._affect_roles.get(verb_class, ())
        return [(r.value, p.value) for p in self._affect_polarities.get(verb_class, ()) for r in roles]

    def _nearest_preceding_target(self, graph: SentenceGraph, index: int) -> int | None:
        anchor_start = graph.nodes[index].span[0]
        for j in range(index - 1, -1, -1):
            candidate = graph.nodes[j]
            if candidate.span[0] < anchor_start and candidate.pos in _STANCE_TARGET_POS:
                return j
        return None

    def stance_query(self, graph: SentenceGraph) -> list[StanceJudgment]:
        judgments = []
        for index, node in enumerate(graph.nodes):
            affects = [(vc, role, pol) for vc in node.verb_classes for role, pol in self._affect_entries(vc)]
            if not affects:
                continue
            target = self._nearest_preceding_target(graph, index)
            if target is None:
                continue
            for verb_class, role, polarity in affects:
                judgments.append(StanceJudgment(verb_class, role, polarity, index, target))
        return judgments

    # -- pipeline ------------------------------------------------------------

    def run(self, text: str, sentence_id: str = "s") -> DetectionResult:
        graph = self.analyze(text, sentence_id)
        result = self.detect_values(graph)
        result.stances = self.stance_query(graph)
        return result
