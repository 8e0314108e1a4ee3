import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkgraph.terms import Term, Triple, blank, iri, lit


def test_literal_cannot_have_datatype_and_lang():
    with pytest.raises(ValueError):
        lit("x", datatype="urn:dt", lang="en")


def test_only_literals_carry_datatype_or_lang():
    with pytest.raises(ValueError):
        Term("iri", "urn:x", datatype="urn:dt")
    with pytest.raises(ValueError):
        Term("blank", "b0", lang="en")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Term("variable", "x")


def test_terms_hash_and_compare_by_value():
    assert iri("urn:a") == iri("urn:a")
    assert iri("urn:a") != lit("urn:a")
    assert lit("x", lang="en") != lit("x")
    assert len({iri("urn:a"), iri("urn:a"), blank("a")}) == 2


def test_absent_datatype_and_lang_are_empty_strings():
    assert lit("x") == Term("literal", "x", datatype="", lang="")
    assert (lit("x").datatype, lit("x").lang) == ("", "")
    assert (iri("urn:a").datatype, blank("b").lang) == ("", "")


@pytest.mark.parametrize(
    "term", [iri("urn:a"), blank("b0"), lit("x"), lit("1", datatype="urn:dt"), lit("x", lang="en")]
)
def test_terms_survive_pickle_and_copy(term):
    for clone in (pickle.loads(pickle.dumps(term)), copy.copy(term), copy.deepcopy(term)):
        assert type(clone) is Term
        assert clone == term
        assert (clone.kind, clone.datatype, clone.lang) == (term.kind, term.datatype, term.lang)
    triple = Triple(iri("urn:s"), iri("urn:p"), term)
    assert pickle.loads(pickle.dumps(triple)) == triple


def test_plain_sort_orders_iri_blank_literal():
    terms = sorted([lit("a"), blank("a"), iri("urn:a")])
    assert terms == [iri("urn:a"), blank("a"), lit("a")]
    assert [t.kind for t in terms] == ["iri", "blank", "literal"]


def test_triples_sort_lexicographically():
    t1 = Triple(iri("urn:a"), iri("urn:p"), lit("1"))
    t2 = Triple(iri("urn:a"), iri("urn:p"), lit("2"))
    assert sorted([t2, t1]) == [t1, t2]


_KIND_ORDER = {"iri": 0, "blank": 1, "literal": 2}


def reference_key(term):
    """The RDF term order, written out: kind (IRI, blank, literal), value,
    datatype, language, an absent datatype or language sorting first."""
    return (_KIND_ORDER[term.kind], term.value, term.datatype or "", term.lang or "")


_text = st.sampled_from(["", "a", "ab", "b", "a b", "\u00e9"])
_terms = st.one_of(
    st.builds(iri, _text),
    st.builds(blank, _text),
    st.builds(lit, _text),
    st.builds(lambda value, dt: lit(value, datatype=dt), _text, st.sampled_from(["urn:dt:a", "urn:dt:b"])),
    st.builds(lambda value, lang: lit(value, lang=lang), _text, st.sampled_from(["en", "en-GB", "fr"])),
)


@given(st.lists(_terms, max_size=30), st.lists(st.builds(Triple, _terms, _terms, _terms), max_size=30))
def test_plain_sort_is_the_reference_term_order(terms, triples):
    assert sorted(terms) == sorted(terms, key=reference_key)
    assert sorted(triples) == sorted(triples, key=lambda t: tuple(map(reference_key, t)))
