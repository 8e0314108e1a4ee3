import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkgraph.store import StoreError, TripleStore, one_hop
from folkgraph.terms import Pattern, Triple, Variable, blank, iri, lit
from oracles import brute_force_match, isomorphic, objects, random_bgp, random_graphs, subjects

EX = "http://example.org/"
G = iri(EX + "g")


def build(*triples, graph=G):
    store = TripleStore()
    store.extend(graph, triples)
    return store


def t(s, p, o):
    return Triple(iri(EX + s), iri(EX + p), o if not isinstance(o, str) else iri(EX + o))


def v(name):
    return Variable(name)


def test_duplicate_graph_name_rejected():
    store = TripleStore()
    store.create_graph(G)
    with pytest.raises(StoreError, match="already exists"):
        store.create_graph(G)


def test_unknown_graph_scope_rejected():
    store = build(t("s", "p", "o"))
    with pytest.raises(StoreError, match="no such graph"):
        store.match([Pattern(v("x"), v("y"), v("z"), graph=iri(EX + "missing"))])


def test_empty_pattern_list_rejected():
    store = build(t("s", "p", "o"))
    with pytest.raises(StoreError, match="empty pattern"):
        store.match([])


def test_frozen_store_rejects_mutation():
    store = build(t("s", "p", "o"))
    store.freeze()
    with pytest.raises(StoreError, match="frozen"):
        store.add(G, t("s", "p", "o2"))
    with pytest.raises(StoreError, match="frozen"):
        store.create_graph(iri(EX + "g2"))


def test_adding_duplicate_triple_is_idempotent():
    store = build(t("s", "p", "o"), t("s", "p", "o"))
    assert len(store) == 1


def test_single_pattern_match():
    store = build(t("s", "p", "o1"), t("s", "p", "o2"), t("s", "q", "o3"))
    got = store.match([Pattern(iri(EX + "s"), iri(EX + "p"), v("o"))])
    assert got == [{"o": iri(EX + "o1")}, {"o": iri(EX + "o2")}]


def test_join_across_patterns():
    store = build(t("a", "knows", "b"), t("b", "knows", "c"), t("a", "knows", "c"))
    got = store.match(
        [
            Pattern(v("x"), iri(EX + "knows"), v("y")),
            Pattern(v("y"), iri(EX + "knows"), v("z")),
        ]
    )
    assert {(b["x"].value, b["z"].value) for b in got} == {(EX + "a", EX + "c")}


def test_match_scopes_to_named_graph():
    store = TripleStore()
    store.extend(G, [t("s", "p", "o1")])
    store.extend(iri(EX + "h"), [t("s", "p", "o2")])
    scoped = store.match([Pattern(v("s"), v("p"), v("o"), graph=iri(EX + "h"))])
    assert [b["o"] for b in scoped] == [iri(EX + "o2")]
    union = store.match([Pattern(v("s"), v("p"), v("o"))])
    assert len(union) == 2


def test_repeated_variable_within_pattern():
    store = build(t("a", "p", "a"), t("a", "p", "b"))
    got = store.match([Pattern(v("x"), iri(EX + "p"), v("x"))])
    assert got == [{"x": iri(EX + "a")}]


def test_bindings_sorted_and_deduplicated():
    store = TripleStore()
    store.extend(G, [t("s", "p", "b"), t("s", "q", "b"), t("s", "p", "a")])
    got = store.match([Pattern(iri(EX + "s"), v("p"), v("o"))])
    keys = [tuple(sorted((k, v.value) for k, v in b.items())) for b in got]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_one_hop_reads_agree_with_brute_force(seed):
    rng = random.Random(seed)
    graphs = random_graphs(rng, n_graphs=rng.randint(1, 3), n_triples=rng.randint(1, 12))
    store = TripleStore()
    for name, triples in graphs.items():
        store.extend(name, triples)
    store.freeze()
    absent = iri(EX + "absent")
    present = sorted(tr for g in graphs.values() for tr in g)
    probes = [rng.choice(present), Triple(absent, absent, absent)]
    for probe in probes:
        found = brute_force_match(graphs, [Pattern(probe.s, probe.p, v("o"))])
        assert objects(store, probe.s, probe.p) == [b["o"] for b in found]
        found = brute_force_match(graphs, [Pattern(v("s"), probe.p, probe.o)])
        assert subjects(store, probe.p, probe.o) == [b["s"] for b in found]
        expected: dict = {}
        for b in brute_force_match(graphs, [Pattern(v("s"), probe.p, v("o"))]):
            expected.setdefault(b["s"], []).append(b["o"])
        assert {s: list(o) for s, o in store.objects_by_subject(probe.p).items()} == expected
        inverse: dict = {}
        for b in brute_force_match(graphs, [Pattern(v("s"), probe.p, v("o"))]):  # sorted by o, then s
            inverse.setdefault(b["o"], []).append(b["s"])
        assert {o: list(s) for o, s in store.subjects_by_object(probe.p).items()} == inverse


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_candidates_are_the_matching_triples_for_every_bound_position(seed):
    rng = random.Random(seed)
    graphs = random_graphs(rng, n_graphs=rng.randint(1, 3), n_triples=rng.randint(0, 12))
    store = TripleStore()
    for name, triples in graphs.items():
        store.extend(name, triples)
    present = sorted(tr for g in graphs.values() for tr in g)
    absent = iri(EX + "absent")
    terms = [absent, *(term for tr in present for term in tr)]
    probes = [Triple(*(rng.choice(terms) for _ in range(3))), Triple(absent, absent, absent)]
    probes += [rng.choice(present)] if present else []
    for name, triples in graphs.items():
        for probe, bound in product(probes, product((False, True), repeat=3)):
            s, p, o = (term if b else None for term, b in zip(probe, bound))
            found = list(store.graph(name).candidates(s, p, o))
            expected = {tr for tr in triples if s in (None, tr.s) and p in (None, tr.p) and o in (None, tr.o)}
            assert len(found) == len(expected) and set(found) == expected, (probe, bound)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_union_of_one_hop_rows_equals_the_rows_of_the_union(seed):
    rng = random.Random(seed)
    graphs = random_graphs(rng, n_graphs=rng.randint(2, 4), n_triples=rng.randint(1, 12))
    names = sorted(graphs)
    cut = rng.randint(0, len(names))
    stores = [TripleStore(), TripleStore(), TripleStore()]  # the first graphs, the others, all
    for at, name in enumerate(names):
        stores[at >= cut].extend(name, graphs[name])
        stores[2].extend(name, graphs[name])
    first, rest, union = (one_hop(store) for store in stores)
    merged = first.union(rest)
    for predicate in sorted({tr.p for g in graphs.values() for tr in g}) + [iri(EX + "absent")]:
        assert merged.objects(predicate) == union.objects(predicate)
        assert merged.subjects(predicate) == union.subjects(predicate)


@st.composite
def store_and_query(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graphs = random_graphs(rng, n_graphs=rng.randint(1, 3), n_triples=rng.randint(1, 12))
    return graphs, random_bgp(rng, graphs)


@settings(max_examples=150, deadline=None)
@given(store_and_query())
def test_match_agrees_with_brute_force(case):
    graphs, patterns = case
    store = TripleStore()
    for name, triples in graphs.items():
        store.extend(name, triples)
    store.freeze()
    assert store.match(patterns) == brute_force_match(graphs, patterns)


def run_random_comparison(n_queries: int, seed: int) -> None:
    """Shared driver; the acceptance suite runs it at full size."""
    rng = random.Random(seed)
    for _ in range(n_queries):
        graphs = random_graphs(rng, n_graphs=rng.randint(1, 3), n_triples=rng.randint(1, 15))
        patterns = random_bgp(rng, graphs)
        store = TripleStore()
        for name, triples in graphs.items():
            store.extend(name, triples)
        store.freeze()
        assert store.match(patterns) == brute_force_match(graphs, patterns)


def test_seeded_random_queries_match_oracle():
    run_random_comparison(n_queries=60, seed=20260814)


# -- isomorphism ---------------------------------------------------------------


def test_isomorphic_ground_graphs_is_set_equality():
    a = [t("s", "p", "o"), t("s", "p", "o2")]
    assert isomorphic(a, list(reversed(a)))
    assert not isomorphic(a, a[:1])


def test_isomorphic_accepts_relabeled_blanks():
    a = [Triple(blank("x"), iri(EX + "p"), blank("y")), Triple(blank("y"), iri(EX + "p"), lit("v"))]
    b = [Triple(blank("n1"), iri(EX + "p"), blank("n2")), Triple(blank("n2"), iri(EX + "p"), lit("v"))]
    assert isomorphic(a, b)


def test_isomorphic_rejects_structural_differences():
    a = [Triple(blank("x"), iri(EX + "p"), blank("x"))]
    b = [Triple(blank("x"), iri(EX + "p"), blank("y"))]
    assert not isomorphic(a, b)


def test_isomorphic_handles_symmetric_ties():
    p = iri(EX + "p")
    a = [Triple(blank("a"), p, blank("b")), Triple(blank("b"), p, blank("a"))]
    b = [Triple(blank("u"), p, blank("w")), Triple(blank("w"), p, blank("u"))]
    assert isomorphic(a, b)
    c = [Triple(blank("u"), p, blank("u")), Triple(blank("w"), p, blank("w"))]
    assert not isomorphic(a, c)


blank_terms = st.integers(0, 3).map(lambda i: blank(f"b{i}"))
nodes = st.one_of(st.integers(0, 3).map(lambda i: iri(f"{EX}n{i}")), blank_terms)
iso_triples = st.lists(
    st.builds(Triple, nodes, st.integers(0, 2).map(lambda i: iri(f"{EX}p{i}")), nodes),
    max_size=12,
)


@given(iso_triples, st.permutations(["b0", "b1", "b2", "b3"]))
def test_isomorphism_invariant_under_relabeling(triples, relabeled):
    mapping = {blank(f"b{i}"): blank(f"r-{relabeled[i]}") for i in range(4)}

    def rename(term):
        return mapping.get(term, term)

    renamed = [Triple(rename(t.s), t.p, rename(t.o)) for t in triples]
    assert isomorphic(triples, renamed)


@given(iso_triples)
def test_isomorphism_detects_missing_triple(triples):
    ground = [t for t in triples if t.s.kind != "blank" and t.o.kind != "blank"]
    if not ground:
        return
    assert not isomorphic(triples, [t for t in triples if t != ground[0]])
