"""In-memory triple store with named graphs and pattern matching.

Each named graph keeps its set of triples plus one index, by predicate, whose
buckets list the triples in insertion order. The lexicon, the detector, the
expander and the snapshot read a store as the rows of one predicate at a
time, one two-column table per predicate (vertical partitioning). A pattern
with a bound predicate reads its bucket; any other pattern scans the graph's
triples. Stores are built once and then frozen; mutation after freeze is a
bug in the caller.

``predicate_rows`` groups one predicate's triples over a list of graphs.
``OneHop`` gives a source's one-hop rows, predicate by predicate:
``one_hop(store)`` makes them from a store, and the workspace snapshot
decodes them.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, NamedTuple

from .terms import Binding, Pattern, Term, Triple, Variable

# Subject -> objects, or object -> subjects, of one predicate; each tuple in term order.
Rows = dict[Term, tuple[Term, ...]]


class StoreError(ValueError):
    pass


class NamedGraph:
    """A set of triples under one graph name, with a predicate index."""

    def __init__(self, name: Term):
        self.name = name
        self.triples: set[Triple] = set()
        self._by_p: dict[Term, list[Triple]] = {}

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def add(self, triple: Triple) -> None:
        if triple in self.triples:
            return
        self.triples.add(triple)
        self._by_p.setdefault(triple.p, []).append(triple)

    def candidates(self, s: Term | None, p: Term | None, o: Term | None):
        """Triples matching the given constants; None positions are wildcards.

        Reads the predicate's bucket when ``p`` is bound, else every triple,
        and filters on ``s`` and ``o``.
        """
        pool = self.triples if p is None else self._by_p.get(p, ())
        if s is None and o is None:
            return iter(pool)
        return (t for t in pool if (s is None or t.s == s) and (o is None or t.o == o))


class TripleStore:
    """Named graphs plus cross-graph pattern matching."""

    def __init__(self):
        self.graphs: dict[Term, NamedGraph] = {}
        self.frozen = False

    # -- construction ------------------------------------------------------

    def create_graph(self, name: Term) -> NamedGraph:
        self._check_mutable()
        if name in self.graphs:
            raise StoreError(f"graph already exists: {name.value}")
        graph = NamedGraph(name)
        self.graphs[name] = graph
        return graph

    def add(self, graph_name: Term, triple: Triple) -> None:
        self._check_mutable()
        try:
            graph = self.graphs[graph_name]
        except KeyError:
            raise StoreError(f"no such graph: {graph_name.value}") from None
        graph.add(triple)

    def extend(self, graph_name: Term, triples) -> None:
        self._check_mutable()
        if graph_name in self.graphs:
            graph = self.graphs[graph_name]
        else:
            graph = self.create_graph(graph_name)
        for t in triples:
            graph.add(t)

    def freeze(self) -> None:
        self.frozen = True

    def _check_mutable(self) -> None:
        if self.frozen:
            raise StoreError("store is frozen")

    # -- inspection --------------------------------------------------------

    def graph(self, name: Term) -> NamedGraph:
        try:
            return self.graphs[name]
        except KeyError:
            raise StoreError(f"no such graph: {name.value}") from None

    def __len__(self) -> int:
        return sum(len(g) for g in self.graphs.values())

    def objects_by_subject(self, p: Term) -> Rows:
        """Subject -> objects of ``p`` over every graph, as ``predicate_rows`` gives them."""
        return predicate_rows(self.graphs.values(), p)

    def subjects_by_object(self, p: Term) -> Rows:
        """Object -> subjects of ``p`` over every graph, as ``predicate_rows`` gives them."""
        return predicate_rows(self.graphs.values(), p, by_object=True)

    # -- matching ----------------------------------------------------------

    def _scopes(self, graph_name: Term | None) -> list[NamedGraph]:
        if graph_name is None:
            return list(self.graphs.values())
        return [self.graph(graph_name)]

    def match_pattern(self, pattern: Pattern, binding: Binding | None = None):
        """Yield extended bindings for one pattern, unsorted and undeduplicated."""
        binding = binding or {}
        slots = []
        consts = []
        for position in ("s", "p", "o"):
            part = getattr(pattern, position)
            if isinstance(part, Variable):
                bound = binding.get(part.name)
                slots.append(part.name if bound is None else None)
                consts.append(bound)
            else:
                slots.append(None)
                consts.append(part)
        for graph in self._scopes(pattern.graph):
            for triple in graph.candidates(*consts):
                extended = dict(binding)
                ok = True
                for slot, value in zip(slots, (triple.s, triple.p, triple.o)):
                    if slot is None:
                        continue
                    if slot in extended and extended[slot] != value:
                        ok = False
                        break
                    extended[slot] = value
                if ok:
                    yield extended

    def match(self, patterns: list[Pattern]) -> list[Binding]:
        """Solve a basic graph pattern: sorted, deduplicated bindings.

        Patterns are joined left to right, most-constrained first at each
        step (fewest unbound variables, constants counted as bound).
        """
        if not patterns:
            raise StoreError("empty pattern list")
        bindings: list[Binding] = [{}]
        remaining = list(patterns)
        while remaining:
            bound_vars = set(bindings[0]) if bindings else set()

            def unbound(p: Pattern) -> int:
                return sum(
                    1
                    for part in (p.s, p.p, p.o)
                    if isinstance(part, Variable) and part.name not in bound_vars
                )

            remaining.sort(key=unbound)
            pattern = remaining.pop(0)
            bindings = [ext for b in bindings for ext in self.match_pattern(pattern, b)]
            if not bindings:
                return []
        return _unique_sorted(bindings)


class OneHop(NamedTuple):
    """A source's one-hop rows: ``objects(p)`` gives subject -> objects and
    ``subjects(p)`` object -> subjects, as ``TripleStore.objects_by_subject``
    and ``subjects_by_object`` do, made anew on each call, so a consumer takes
    each once. What they raise, such as a ``KeyError`` for a predicate the
    source does not hold, propagates."""

    objects: Callable[[Term], Rows]
    subjects: Callable[[Term], Rows]

    def union(self, other: OneHop) -> OneHop:
        """The rows of a store holding the triples of both sources."""
        return OneHop(partial(_union, self.objects, other.objects), partial(_union, self.subjects, other.subjects))


def one_hop(store: TripleStore) -> OneHop:
    return OneHop(store.objects_by_subject, store.subjects_by_object)


def _union(rows: Callable[[Term], Rows], extra: Callable[[Term], Rows], predicate: Term) -> Rows:
    """``rows(predicate)`` with ``extra(predicate)`` merged into a copy."""
    merged, more = rows(predicate), extra(predicate)
    if more:
        merged = dict(merged)
        for key, found in more.items():
            have = merged.get(key)
            merged[key] = found if have is None else tuple(sorted({*have, *found}))
    return merged


def predicate_rows(graphs: Iterable[NamedGraph], p: Term, by_object: bool = False) -> Rows:
    """Subject -> the objects of ``p`` in ``graphs`` (object -> the subjects, if
    ``by_object``), each tuple in term order. A triple that several graphs state
    counts once."""
    key, value = (2, 0) if by_object else (0, 2)  # positions in a triple
    found: dict[Term, list[Term]] = {}
    for graph in graphs:
        for triple in graph.candidates(None, p, None):
            values = found.get(triple[key])
            if values is None:
                found[triple[key]] = [triple[value]]
            else:
                values.append(triple[value])
    return {k: tuple(sorted(set(values))) if len(values) > 1 else (*values,) for k, values in found.items()}


def _unique_sorted(bindings: list[Binding]) -> list[Binding]:
    unique = {tuple(sorted(b.items())): b for b in bindings}
    return [unique[items] for items in sorted(unique)]
