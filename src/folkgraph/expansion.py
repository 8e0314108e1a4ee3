"""Trigger-graph expansion: from seed lexemes to curated trigger edges.

Each value has a plan: seed lexemes, per-query selection files, and a list of
queries whose results are accepted automatically. Query results are always
candidates; an edge is only emitted once a candidate is accepted by a
selection file, by auto-accept, or (for nothing) in propose-only mode, which
records candidates for later curation without emitting.

Query dependencies: frame results feed the frame-element, lexical-unit, and
close-match queries; concept results feed the factual query; lexical-unit
synsets feed the YAGO query, which is terminal. Candidate and accepted lists
are kept in term order (``terms``) so runs diff cleanly.

Every query is a one-hop lookup, objects by subject or subjects by object.
``Expander`` takes the rows of ``vocab.ONE_HOP_OBJECTS`` and
``ONE_HOP_SUBJECTS`` (a ``store.OneHop``) at construction, from a store or,
through ``Expander.from_tables``, from any ``OneHop``, such as the workspace
snapshot's; both give the lists ``TripleStore.objects`` and ``subjects`` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import vocab
from .config import config_lines, config_pairs
from .lexicon import Lexicon
from .rdfio import PrefixTable
from .store import OneHop, TripleStore, one_hop
from .terms import Term, Triple, iri

QUERY_KINDS = ("frame", "frameElement", "lexicalUnit", "yago", "closeMatch", "concept", "factual")


class PlanError(ValueError):
    pass


class StaleSelectionError(ValueError):
    """A selection file accepts an IRI that is not among the query's candidates."""


@dataclass(frozen=True)
class Seed:
    lemma: str
    pos: str | None = None


@dataclass
class ExpansionPlan:
    value: Term
    seeds: list[Seed]
    selection_files: dict[str, Path] = field(default_factory=dict)
    auto: set[str] = field(default_factory=set)

    def __post_init__(self):
        overlap = self.auto & set(self.selection_files)
        if overlap:
            raise PlanError(f"{self.value.value}: queries both auto and selected: {sorted(overlap)}")
        for kind in list(self.auto) + list(self.selection_files):
            if kind not in QUERY_KINDS:
                raise PlanError(f"{self.value.value}: unknown query kind {kind!r}")


@dataclass(frozen=True)
class TriggerEdge:
    entity: Term
    value: Term
    kind: str
    provenance: str

    def triples(self) -> list[Triple]:
        return [
            Triple(self.entity, vocab.TRIGGERS, self.value),
            Triple(self.entity, vocab.KIND_PREDICATE[self.kind], self.value),
            Triple(self.entity, vocab.PROVENANCE_PREDICATE[self.provenance], self.value),
        ]


@dataclass
class QueryOutcome:
    candidates: list[Term]
    accepted: list[Term]
    mode: str  # selection | auto | propose


@dataclass
class ExpansionReport:
    value: Term
    queries: dict[str, QueryOutcome]
    edges: list[TriggerEdge]

    def proposed(self) -> list[str]:
        return [kind for kind, q in self.queries.items() if q.mode == "propose"]

    def to_json_dict(self, prefixes: PrefixTable) -> dict:
        return {
            "value": prefixes.shorten(self.value),
            "queries": {
                kind: {
                    "mode": outcome.mode,
                    "candidates": [prefixes.shorten(c) for c in outcome.candidates],
                    "accepted": [prefixes.shorten(a) for a in outcome.accepted],
                }
                for kind, outcome in self.queries.items()
            },
            "edges": [
                {
                    "entity": prefixes.shorten(edge.entity),
                    "kind": edge.kind,
                    "provenance": edge.provenance,
                }
                for edge in self.edges
            ],
        }


def trigger_graph_name(value: Term) -> Term:
    return iri(value.value + "/triggers")


def parse_selection(path: Path, prefixes: PrefixTable) -> list[Term]:
    return [prefixes.expand(line, path) for line in config_lines(path)]


def parse_plan(path: str | Path, prefixes: PrefixTable) -> ExpansionPlan:
    """Plan file: `key = value` lines. Keys: value, seed, select.<kind>, auto."""
    path = Path(path)
    value = None
    seeds = []
    selection_files: dict[str, Path] = {}
    auto: set[str] = set()
    for key, rest in config_pairs(path, PlanError, "plan line"):
        if key == "value":
            value = prefixes.expand(rest, path)
        elif key == "seed":
            lemma, _, pos = (part.strip() for part in rest.partition("|"))
            seeds.append(Seed(lemma, pos or None))
        elif key.startswith("select."):
            selection_files[key[len("select."):]] = path.parent / rest
        elif key == "auto":
            auto.update(rest.split())
        else:
            raise PlanError(f"{path}: unknown key {key!r}")
    if value is None:
        raise PlanError(f"{path}: missing value")
    return ExpansionPlan(value=value, seeds=seeds, selection_files=selection_files, auto=auto)


def _sorted_terms(terms) -> list[Term]:
    return sorted(set(terms))


class Expander:
    """Runs plans over a lexicon and one-hop rows, taken from a store or any ``OneHop``."""

    def __init__(self, store: TripleStore, lexicon: Lexicon, prefixes: PrefixTable | None = None):
        self._use(lexicon, prefixes, one_hop(store))

    @classmethod
    def from_tables(cls, lexicon: Lexicon, rows: OneHop, prefixes: PrefixTable | None = None) -> "Expander":
        """An expander over the rows of any source, such as the workspace snapshot."""
        expander = cls.__new__(cls)
        expander._use(lexicon, prefixes, rows)
        return expander

    def _use(self, lexicon: Lexicon, prefixes: PrefixTable | None, rows: OneHop) -> None:
        self.lexicon = lexicon
        self.prefixes = prefixes or vocab.PREFIXES
        self._objects_of = {p: rows.objects(p) for p in vocab.ONE_HOP_OBJECTS}
        self._subjects_of = {p: rows.subjects(p) for p in vocab.ONE_HOP_SUBJECTS}

    def _objects(self, s: Term, p: Term) -> tuple[Term, ...]:
        return self._objects_of[p].get(s, ())

    def _subjects(self, p: Term, o: Term) -> tuple[Term, ...]:
        return self._subjects_of[p].get(o, ())

    # -- individual queries --------------------------------------------------

    def _seed_senses(self, seed: Seed) -> list[Term]:
        entries = self.lexicon.lookup_lemma(seed.lemma, seed.pos)
        return _sorted_terms(s for e in entries for s in e.senses)

    def frame_activation_query(self, seed: Seed) -> list[Term]:
        return _sorted_terms(
            frame
            for sense in self._seed_senses(seed)
            for frame in self._objects(sense, vocab.EVOKES)
        )

    def concept_activation_query(self, seed: Seed) -> list[Term]:
        anchors = self._seed_anchors(seed)
        neighbors = []
        for anchor in anchors:
            for relation in vocab.CONCEPT_RELATIONS:
                neighbors.extend(self._objects(anchor, relation))
                neighbors.extend(self._subjects(relation, anchor))
        return _sorted_terms(n for n in neighbors if n not in anchors)

    def _seed_anchors(self, seed: Seed) -> list[Term]:
        entries = self.lexicon.lookup_lemma(seed.lemma, seed.pos)
        return _sorted_terms(a for e in entries for a in e.concept_anchors)

    def factual_expansion_query(self, concept: Term) -> list[Term]:
        return list(self._objects(concept, vocab.EXTERNAL_URL))

    def frame_element_query(self, frame: Term):
        return self.lexicon.frame_elements(frame)

    def lexical_unit_split(self, frames: list[Term]) -> tuple[list[Term], list[Term]]:
        """The synsets and the verb classes that ``frames`` reach, each in term order."""
        evokers = _sorted_terms(
            s
            for frame in frames
            for s in self._subjects(vocab.EVOKES, frame)
        )
        via_sense_key = _sorted_terms(
            vc for s in evokers for vc in self._objects(s, vocab.SENSE_KEY)
        )
        synsets = [e for e in evokers if not self._is_verb_class(e)]
        verb_classes = _sorted_terms([e for e in evokers if self._is_verb_class(e)] + via_sense_key)
        return synsets, verb_classes

    def _is_verb_class(self, term: Term) -> bool:
        return term in self._subjects_of[vocab.SENSE_KEY]

    def yago_expansion(self, synsets: list[Term]) -> list[Term]:
        return _sorted_terms(
            y
            for synset in synsets
            for y in self._objects(synset, vocab.OWL_SAME_AS)
        )

    def close_match_expansion(self, frames: list[Term]) -> list[Term]:
        return _sorted_terms(
            e
            for frame in frames
            for e in self._subjects(vocab.SKOS_CLOSE_MATCH, frame)
        )

    # -- plan execution --------------------------------------------------------

    def _apply_selection(self, plan: ExpansionPlan, kind: str, candidates: list[Term]):
        if kind in plan.auto:
            return QueryOutcome(candidates, list(candidates), "auto")
        path = plan.selection_files.get(kind)
        if path is None:
            return QueryOutcome(candidates, [], "propose")
        accepted = parse_selection(path, self.prefixes)
        known = set(candidates)
        stale = [a for a in accepted if a not in known]
        if stale:
            names = ", ".join(t.value for t in stale)
            raise StaleSelectionError(
                f"{plan.value.value}/{kind}: selection accepts non-candidates: {names}"
            )
        return QueryOutcome(candidates, _sorted_terms(accepted), "selection")

    def run_plan(self, plan: ExpansionPlan) -> ExpansionReport:
        if not plan.seeds:
            return ExpansionReport(plan.value, {}, [])

        queries: dict[str, QueryOutcome] = {}

        frame_candidates = _sorted_terms(
            f for seed in plan.seeds for f in self.frame_activation_query(seed)
        )
        queries["frame"] = self._apply_selection(plan, "frame", frame_candidates)
        accepted_frames = queries["frame"].accepted

        element_candidates = _sorted_terms(
            fe.id for frame in accepted_frames for fe in self.frame_element_query(frame)
        )
        queries["frameElement"] = self._apply_selection(plan, "frameElement", element_candidates)

        synsets, verb_classes = self.lexical_unit_split(accepted_frames)
        queries["lexicalUnit"] = self._apply_selection(
            plan, "lexicalUnit", _sorted_terms(synsets + verb_classes)
        )
        synset_set = set(synsets)
        accepted_synsets = [u for u in queries["lexicalUnit"].accepted if u in synset_set]

        queries["yago"] = self._apply_selection(plan, "yago", self.yago_expansion(accepted_synsets))
        queries["closeMatch"] = self._apply_selection(
            plan, "closeMatch", self.close_match_expansion(accepted_frames)
        )

        concept_candidates = _sorted_terms(
            c for seed in plan.seeds for c in self.concept_activation_query(seed)
        )
        queries["concept"] = self._apply_selection(plan, "concept", concept_candidates)

        anchors = _sorted_terms(a for seed in plan.seeds for a in self._seed_anchors(seed))
        factual_candidates = _sorted_terms(
            entity
            for concept in _sorted_terms(anchors + queries["concept"].accepted)
            for entity in self.factual_expansion_query(concept)
        )
        queries["factual"] = self._apply_selection(plan, "factual", factual_candidates)

        edges = self._emit_edges(plan.value, queries, synset_set)
        return ExpansionReport(plan.value, queries, edges)

    def _emit_edges(self, value, queries, synset_set) -> list[TriggerEdge]:
        edges = []
        seen = set()

        def emit(entity: Term, kind: str, provenance: str) -> None:
            key = (entity, kind)
            if key not in seen:
                seen.add(key)
                edges.append(TriggerEdge(entity, value, kind, provenance))

        for frame in queries["frame"].accepted:
            emit(frame, "frame", "seedSelection")
        for element in queries["frameElement"].accepted:
            emit(element, "frameElement", "seedSelection")
        for unit in queries["lexicalUnit"].accepted:
            emit(unit, "synset" if unit in synset_set else "verbClass", "derivedClosure")
        for node in queries["yago"].accepted:
            emit(node, "factualEntity", "yagoQuery")
        for entity in queries["closeMatch"].accepted:
            emit(entity, "closeMatch", "closeMatchQuery")
        for concept in queries["concept"].accepted:
            emit(concept, "concept", "conceptQuery")
        for entity in queries["factual"].accepted:
            emit(entity, "factualEntity", "factualQuery")
        return edges

    def graph_triples(self, report: ExpansionReport) -> list[Triple]:
        return sorted({t for edge in report.edges for t in edge.triples()})
