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


def test_sort_key_orders_iri_blank_literal():
    terms = [lit("a"), blank("a"), iri("urn:a")]
    assert [t.kind for t in sorted(terms, key=Term.key)] == ["iri", "blank", "literal"]


def test_triple_key_is_lexicographic():
    t1 = Triple(iri("urn:a"), iri("urn:p"), lit("1"))
    t2 = Triple(iri("urn:a"), iri("urn:p"), lit("2"))
    assert sorted([t2, t1], key=Triple.key) == [t1, t2]


_text = st.sampled_from(["", "a", "ab", "b", "a b", "\u00e9"])
_terms = st.one_of(
    st.builds(iri, _text),
    st.builds(blank, _text),
    st.builds(lit, _text),
    st.builds(lambda value, dt: lit(value, datatype=dt), _text, st.sampled_from(["urn:dt:a", "urn:dt:b"])),
    st.builds(lambda value, lang: lit(value, lang=lang), _text, st.sampled_from(["en", "en-GB", "fr"])),
)


@given(st.lists(st.builds(Triple, _terms, _terms, _terms), max_size=30))
def test_flat_triple_key_orders_like_nested_term_keys(triples):
    nested = sorted(triples, key=lambda t: (t.s.key(), t.p.key(), t.o.key()))
    assert sorted(triples, key=Triple.key) == nested
    assert all(len(t.key()) == 12 for t in triples)
