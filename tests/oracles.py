"""Reference implementations the real modules are checked against.

Everything here favors obviousness over speed: the pattern matcher tries
every combination of triples with nested loops, the generators build small
random graphs with known shape, and ``isomorphic`` compares graphs up to
blank node relabeling. ``objects`` and ``subjects`` read a store by
scanning every triple of every graph, and ``reference_lexicon_tables`` is the
lexicon's per-subject build. Nothing in this file imports the store's
matching code paths beyond the term model, except the reference detector,
which answers every sense, activation and stance lookup with a store pattern
match so the pipeline's one-hop reads and the detector's lookup tables can be
checked against it.
"""

from __future__ import annotations

import random
import re
from itertools import permutations

from folkgraph import vocab
from folkgraph.detector import ActivationPath, NodeAnnotation, SentenceGraph, StanceJudgment
from folkgraph.lexicon import ELEMENT_TYPES, POS_VALUES, FrameElement, LexicalEntry, LexiconError, sense_rank
from folkgraph.terms import BLANK, LITERAL, Binding, Pattern, Term, Triple, Variable, iri, lit


def brute_force_match(graphs: dict[Term, set[Triple]], patterns: list[Pattern]) -> list[Binding]:
    """Evaluate a basic graph pattern with plain nested loops, no indexes."""

    def pools(pattern: Pattern) -> list[Triple]:
        if pattern.graph is None:
            return [t for g in graphs.values() for t in g]
        return list(graphs.get(pattern.graph, set()))

    def extend(binding: Binding, pattern: Pattern, triple: Triple) -> Binding | None:
        out = dict(binding)
        for part, value in ((pattern.s, triple.s), (pattern.p, triple.p), (pattern.o, triple.o)):
            if isinstance(part, Variable):
                if part.name in out and out[part.name] != value:
                    return None
                out[part.name] = value
            elif part != value:
                return None
        return out

    results: list[Binding] = [{}]
    for pattern in patterns:
        pool = pools(pattern)
        results = [
            extended
            for binding in results
            for triple in pool
            if (extended := extend(binding, pattern, triple)) is not None
        ]

    def key(b: Binding):
        return tuple((name, b[name]) for name in sorted(b))

    unique = {key(b): b for b in results}
    return [unique[k] for k in sorted(unique)]


def random_graphs(rng: random.Random, n_graphs: int, n_triples: int) -> dict[Term, set[Triple]]:
    """Random graphs over a small vocabulary so joins actually happen."""
    subjects = [iri(f"urn:x:s{i}") for i in range(rng.randint(2, 6))]
    predicates = [iri(f"urn:x:p{i}") for i in range(rng.randint(1, 4))]
    objects = subjects + [lit(f"v{i}") for i in range(rng.randint(1, 4))]
    graphs: dict[Term, set[Triple]] = {}
    for i in range(n_graphs):
        name = iri(f"urn:x:g{i}")
        graphs[name] = {
            Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
            for _ in range(n_triples)
        }
    return graphs


def random_bgp(rng: random.Random, graphs: dict[Term, set[Triple]]) -> list[Pattern]:
    """A 1-4 pattern BGP mixing constants drawn from the data with variables."""
    all_triples = [t for g in graphs.values() for t in g]
    var_names = ["a", "b", "c", "d"]

    def part(value: Term) -> Term | Variable:
        if rng.random() < 0.55:
            return Variable(rng.choice(var_names))
        if rng.random() < 0.8:
            return value
        return iri("urn:x:absent")

    patterns = []
    for _ in range(rng.randint(1, 4)):
        seed_triple = rng.choice(all_triples)
        scope = None if rng.random() < 0.5 else rng.choice(list(graphs))
        patterns.append(
            Pattern(part(seed_triple.s), part(seed_triple.p), part(seed_triple.o), graph=scope)
        )
    return patterns


def random_lexical_kb(rng: random.Random) -> list[Triple]:
    """A small random lexical graph wired the way the fixtures are.

    Entries have ranked senses; senses evoke frames and may carry sense keys
    to verb classes; verb classes may evoke frames directly; synsets pair
    symmetrically with YAGO nodes; anchors link to concepts and external
    entities.
    """
    ns = vocab.NAMESPACES
    triples = []
    frames = [iri(ns["fs"] + f"F{i}") for i in range(rng.randint(1, 4))]
    for frame in frames:
        triples.append(Triple(frame, vocab.RDF_TYPE, vocab.FRAME))
        for j in range(rng.randint(0, 2)):
            element = iri(ns["fse"] + f"{frame.value.rsplit('/', 1)[1]}.E{j}")
            triples.append(Triple(frame, vocab.ELEMENT, element))
            triples.append(Triple(element, vocab.RDFS_LABEL, lit(f"E{j}")))
            triples.append(Triple(element, vocab.ELEMENT_TYPE, lit(rng.choice(["core", "peripheral"]))))
    n_words = rng.randint(1, 6)
    for i in range(n_words):
        entry = iri(ns["lex"] + f"w{i}-verb")
        triples.append(Triple(entry, vocab.RDF_TYPE, vocab.LEXICAL_ENTRY))
        triples.append(Triple(entry, vocab.LEMMA, lit(f"w{i}")))
        triples.append(Triple(entry, vocab.POS, lit("verb")))
        for rank in range(1, rng.randint(2, 4)):
            sense = iri(ns["wn"] + f"w{i}-verb-{rank}")
            triples.append(Triple(entry, vocab.SENSE, sense))
            for frame in rng.sample(frames, k=rng.randint(0, len(frames))):
                triples.append(Triple(sense, vocab.EVOKES, frame))
            if rng.random() < 0.5:
                verb_class = iri(ns["vn"] + f"V{i}_{rank}")
                triples.append(Triple(sense, vocab.SENSE_KEY, verb_class))
                if rng.random() < 0.4:
                    triples.append(Triple(verb_class, vocab.EVOKES, rng.choice(frames)))
            if rng.random() < 0.4:
                yago = iri(ns["yago"] + f"Y{i}_{rank}")
                triples.append(Triple(sense, vocab.OWL_SAME_AS, yago))
                triples.append(Triple(yago, vocab.OWL_SAME_AS, sense))
        if rng.random() < 0.6:
            anchor = iri(ns["cn"] + f"w{i}")
            triples.append(Triple(entry, vocab.CONCEPT_ANCHOR, anchor))
            neighbor = iri(ns["cn"] + f"n{i}")
            relation = rng.choice(vocab.CONCEPT_RELATIONS)
            triples.append(Triple(anchor, relation, neighbor))
            if rng.random() < 0.5:
                triples.append(Triple(anchor, vocab.EXTERNAL_URL, iri(ns["dbpedia"] + f"D{i}")))
    for frame in frames:
        if rng.random() < 0.3:
            triples.append(Triple(iri(ns["pb"] + f"p{frame.value[-1]}.01"), vocab.SKOS_CLOSE_MATCH, frame))
    return triples


# -- reference store reads and lexicon build --------------------------------------


def objects(store, s: Term, p: Term) -> list[Term]:
    """Objects of (s, p) over every graph, deduplicated and in term order:
    the bindings of ``match([Pattern(s, p, Variable("o"))])``."""
    return sorted({t.o for g in store.graphs.values() for t in g.triples if t.s == s and t.p == p})


def subjects(store, p: Term, o: Term) -> list[Term]:
    """Subjects of (p, o) over every graph, like ``objects``."""
    return sorted({t.s for g in store.graphs.values() for t in g.triples if t.p == p and t.o == o})


def reference_lexicon_tables(store, lexical_graphs: list[Term]):
    """``Lexicon(store, lexical_graphs).tables()`` as the lexicon's per-subject
    build made them: each typed entry and frame is indexed from every triple on
    its subject, graph by graph. A triple that two lexical graphs state counts
    twice here, so compare it with the lexicon on one lexical graph only."""
    stated = [t for name in lexical_graphs for t in store.graph(name).triples]
    by_subject: dict[Term, dict[Term, list[Term]]] = {}
    for t in stated:
        by_subject.setdefault(t.s, {}).setdefault(t.p, []).append(t.o)

    def values(subject: Term, predicate: Term) -> list[Term]:
        return by_subject.get(subject, {}).get(predicate, [])

    def literal(subject: Term, predicate: Term, what: str) -> str:
        found = [o.value for o in values(subject, predicate) if o.kind == LITERAL]
        if len(found) != 1:
            raise LexiconError(f"{subject.value}: expected exactly one {what}, found {len(found)}")
        return found[0]

    by_lemma: dict[str, list[LexicalEntry]] = {}
    by_form: dict[str, list[LexicalEntry]] = {}
    frames: dict[Term, list[FrameElement]] = {}
    multiwords: list[tuple[str, ...]] = []
    for t in stated:
        if t.p != vocab.RDF_TYPE or t.o != vocab.LEXICAL_ENTRY:
            continue
        lemma = literal(t.s, vocab.LEMMA, "lemma")
        pos = literal(t.s, vocab.POS, "pos")
        if pos not in POS_VALUES:
            raise LexiconError(f"{t.s.value}: unknown pos {pos!r}")
        senses = sorted(values(t.s, vocab.SENSE), key=lambda s: (sense_rank(s), s))
        if not senses:
            raise LexiconError(f"{t.s.value}: entry has no senses")
        entry = LexicalEntry(t.s, lemma, pos, tuple(senses), tuple(sorted(values(t.s, vocab.CONCEPT_ANCHOR))))
        by_lemma.setdefault(lemma, []).append(entry)
        for form in values(t.s, vocab.FORM):
            by_form.setdefault(form.value, []).append(entry)
        if pos == "multiword":
            multiwords.append(tuple(lemma.split(" ")))
    for entries in [*by_lemma.values(), *by_form.values()]:
        entries.sort(key=lambda e: (POS_VALUES.index(e.pos), e.node))
    multiwords.sort(key=lambda words: (-len(words), words))
    for t in stated:
        if t.p != vocab.RDF_TYPE or t.o != vocab.FRAME:
            continue
        elements = []
        for fe in sorted(values(t.s, vocab.ELEMENT)):
            name = literal(fe, vocab.RDFS_LABEL, "element label")
            element_type = literal(fe, vocab.ELEMENT_TYPE, "element type")
            if element_type not in ELEMENT_TYPES:
                raise LexiconError(f"{fe.value}: unknown element type {element_type!r}")
            if name in {e.name for e in elements}:
                raise LexiconError(f"{t.s.value}: duplicate element name {name!r}")
            elements.append(FrameElement(fe, name, element_type))
        frames[t.s] = elements
    links = {(t.s, t.o) for t in stated if t.p == vocab.OWL_SAME_AS}
    for s, o in sorted(links):
        if (o, s) not in links:
            raise LexiconError(f"sameAs is asymmetric: {s.value} -> {o.value} has no inverse")
    return by_lemma, by_form, frames, multiwords


def closure_justification_holds(store, trigger_triples: set[Triple], edge) -> bool:
    """Check a derivedClosure trigger edge against its two-hop rationale.

    A synset edge needs some frame f with (entity evokes f) in the store and
    (f triggers value) among the emitted triples. A verb-class edge may also
    route through a sense: (s senseKey entity) and (s evokes f).
    """

    def frame_triggers(frame: Term) -> bool:
        return Triple(frame, vocab.TRIGGERS, edge.value) in trigger_triples

    direct_frames = [
        b["f"] for b in store.match([Pattern(edge.entity, vocab.EVOKES, Variable("f"))])
    ]
    if any(frame_triggers(f) for f in direct_frames):
        return True
    if edge.kind != "verbClass":
        return False
    for binding in store.match(
        [
            Pattern(Variable("s"), vocab.SENSE_KEY, edge.entity),
            Pattern(Variable("s"), vocab.EVOKES, Variable("f")),
        ]
    ):
        if frame_triggers(binding["f"]):
            return True
    return False


# -- reference detector ----------------------------------------------------------

_WORD = re.compile(r"\w+")


def frames_of_sense(store, sense: Term) -> list[Term]:
    return [b["f"] for b in store.match([Pattern(sense, vocab.EVOKES, Variable("f"))])]


def verb_classes_of_sense(store, sense: Term) -> list[Term]:
    return [b["v"] for b in store.match([Pattern(sense, vocab.SENSE_KEY, Variable("v"))])]


def reference_analyze(store, lexicon, text: str, sentence_id: str, mode: str) -> SentenceGraph:
    """Segment by trying every multiword at every token, longest first; read
    frames and verb classes with pattern-match sense lookups on the store."""
    tokens = [(m.start(), m.end(), m.group().lower()) for m in _WORD.finditer(text)]
    units = []
    i = 0
    while i < len(tokens):
        width = 1
        for words in lexicon.multiwords():
            n = len(words)
            if n <= len(tokens) - i and tuple(t[2] for t in tokens[i : i + n]) == words:
                width = n
                break
        units.append((tokens[i][0], tokens[i + width - 1][1], " ".join(t[2] for t in tokens[i : i + width])))
        i += width
    nodes = []
    for start, end, surface in units:
        entries = lexicon.lookup_form(surface)
        if not entries:
            continue
        if mode == "firstSense":
            picks = [(entries[0], entries[0].default_sense)]
        else:
            picks = [(entry, sense) for entry in entries for sense in entry.senses]
        for entry, sense in picks:
            nodes.append(
                NodeAnnotation(
                    node=iri(f"{vocab.NAMESPACES['sent']}{sentence_id}/n{len(nodes)}"),
                    span=(start, end),
                    anchor=text[start:end],
                    lemma=entry.lemma,
                    pos=entry.pos,
                    sense=sense,
                    frames=tuple(frames_of_sense(store, sense)),
                    verb_classes=tuple(verb_classes_of_sense(store, sense)),
                )
            )
    return SentenceGraph(sentence_id, text, nodes)


def reference_activation(store, graph: SentenceGraph) -> list[ActivationPath]:
    """Per node entity: direct trigger edges, then the evokes/triggers closure, as BGPs."""
    paths = []
    for index, node in enumerate(graph.nodes):
        for entity in node.entities():
            for b in store.match([Pattern(entity, vocab.TRIGGERS, Variable("v"))]):
                paths.append(ActivationPath(b["v"], index, (entity, "triggers", b["v"])))
            closure = store.match(
                [
                    Pattern(entity, vocab.EVOKES, Variable("f")),
                    Pattern(Variable("f"), vocab.TRIGGERS, Variable("v")),
                ]
            )
            for b in closure:
                paths.append(ActivationPath(b["v"], index, (entity, "evokes", b["f"], "triggers", b["v"])))
    return paths


def reference_stances(store, graph: SentenceGraph) -> list[StanceJudgment]:
    """Per verb class, the (role, polarity) BGP join; the target is the nearest
    earlier noun or multiword node that starts before the verb's node."""
    judgments = []
    for index, node in enumerate(graph.nodes):
        targets = [
            j
            for j, other in enumerate(graph.nodes[:index])
            if other.span[0] < node.span[0] and other.pos in ("noun", "multiword")
        ]
        if not targets:
            continue
        for verb_class in node.verb_classes:
            join = store.match(
                [
                    Pattern(verb_class, vocab.AFFECT_ROLE, Variable("r")),
                    Pattern(verb_class, vocab.AFFECT_POLARITY, Variable("p")),
                ]
            )
            for b in join:
                judgments.append(StanceJudgment(verb_class, b["r"].value, b["p"].value, index, targets[-1]))
    return judgments


# -- isomorphism -------------------------------------------------------------


def isomorphic(a, b) -> bool:
    """Whether two triple collections are equal up to blank node relabeling.

    Ground triples must match exactly. Blank-containing triples are checked
    by refining candidate label pairings on structural signatures, with a
    permutation search over any leftover ties. Blank node populations in the
    pipeline are tiny, so the search is never a concern.
    """
    a, b = set(a), set(b)
    ground_a = {t for t in a if not _has_blank(t)}
    ground_b = {t for t in b if not _has_blank(t)}
    if ground_a != ground_b:
        return False
    rest_a, rest_b = a - ground_a, b - ground_b
    if len(rest_a) != len(rest_b):
        return False
    if not rest_a:
        return True

    sig_a = _signatures(rest_a)
    sig_b = _signatures(rest_b)
    groups_a: dict[tuple, list[Term]] = {}
    groups_b: dict[tuple, list[Term]] = {}
    for node, sig in sig_a.items():
        groups_a.setdefault(sig, []).append(node)
    for node, sig in sig_b.items():
        groups_b.setdefault(sig, []).append(node)
    if set(groups_a) != set(groups_b):
        return False
    if any(len(groups_a[s]) != len(groups_b[s]) for s in groups_a):
        return False

    # Permute within signature groups; signatures usually pin everything down.
    def assignments(sigs):
        if not sigs:
            yield {}
            return
        sig, rest = sigs[0], sigs[1:]
        for tail in assignments(rest):
            for perm in permutations(groups_b[sig]):
                mapping = dict(zip(groups_a[sig], perm))
                mapping.update(tail)
                yield mapping

    for mapping in assignments(sorted(groups_a)):
        if {_rename(t, mapping) for t in rest_a} == rest_b:
            return True
    return False


def _has_blank(t: Triple) -> bool:
    return t.s.kind == BLANK or t.o.kind == BLANK


def _signatures(triples: set[Triple]) -> dict[Term, tuple]:
    """Per-blank-node structural fingerprints, refined to a fixpoint."""
    nodes = {term for t in triples for term in (t.s, t.o) if term.kind == BLANK}
    colors: dict[Term, tuple] = {node: () for node in nodes}
    for _ in range(len(nodes) + 1):
        nxt = {}
        for node in nodes:
            out = []
            inc = []
            for t in triples:
                if t.s == node:
                    out.append((t.p, _color_of(t.o, colors)))
                if t.o == node:
                    inc.append((t.p, _color_of(t.s, colors)))
            nxt[node] = (tuple(sorted(out)), tuple(sorted(inc)))
        if nxt == colors:
            break
        colors = nxt
    return colors


def _color_of(term: Term, colors: dict[Term, tuple]):
    if term.kind == BLANK:
        return ("blank", colors[term])
    return ("ground", term)


def _rename(t: Triple, mapping: dict[Term, Term]) -> Triple:
    s = mapping.get(t.s, t.s) if t.s.kind == BLANK else t.s
    o = mapping.get(t.o, t.o) if t.o.kind == BLANK else t.o
    return Triple(s, t.p, o)
