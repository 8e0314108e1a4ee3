"""Graph term model: IRIs, literals, blank nodes, triples, and query patterns.

Literals carry an optional datatype IRI or language tag, never both; an
absent one is stored as ``""``. Terms and triples are tuples, so they hash and
compare at C speed and key the store indexes directly. A term's fields are
``(rank, value, datatype, lang)``, ``rank`` being the index of its kind in
``(IRI, BLANK, LITERAL)``, so the tuple order is the RDF term order: IRIs, then
blank nodes, then literals, each by value, datatype and language. A plain
``sorted()`` of terms, or of triples, gives that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

_KINDS = (IRI, BLANK, LITERAL)  # in term order
_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}


class _TermFields(NamedTuple):
    rank: int
    value: str
    datatype: str = ""
    lang: str = ""


class Term(_TermFields):
    __slots__ = ()

    def __new__(cls, kind: str, value: str, datatype: str | None = None, lang: str | None = None):
        if kind not in _RANK:
            raise ValueError(f"unknown term kind: {kind!r}")
        if kind != LITERAL and (datatype or lang):
            raise ValueError("datatype/lang only valid on literals")
        if datatype and lang:
            raise ValueError("literal cannot carry both datatype and language tag")
        return tuple.__new__(cls, (_RANK[kind], value, datatype or "", lang or ""))

    def __getnewargs__(self):  # pickle and copy rebuild a term through __new__
        return (self.kind, self.value, self.datatype, self.lang)

    @property
    def kind(self) -> str:
        return _KINDS[self.rank]


def iri(value: str) -> Term:
    return Term(IRI, value)


def lit(value: str, datatype: str | None = None, lang: str | None = None) -> Term:
    return Term(LITERAL, value, datatype, lang)


def blank(label: str) -> Term:
    return Term(BLANK, label)


class Triple(NamedTuple):
    s: Term
    p: Term
    o: Term


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


@dataclass(frozen=True, slots=True)
class Pattern:
    """One triple pattern of a basic graph pattern.

    ``graph`` restricts matching to a single named graph; ``None`` means the
    union of all graphs in the store.
    """

    s: Term | Variable
    p: Term | Variable
    o: Term | Variable
    graph: Term | None = None


Binding = dict[str, Term]
