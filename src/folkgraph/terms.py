"""Graph term model: IRIs, literals, blank nodes, triples, and query patterns.

Literals carry an optional datatype IRI or language tag, never both.
Terms and triples are tuples, so they hash and compare at C speed and key the
store indexes directly. A tuple compares equal to a plain tuple of the same
fields and orders field by field, so always sort with ``key=Term.key`` or
``key=Triple.key``. ``Triple.key`` is one flat 12-tuple, the three
``Term.key`` tuples end to end: every ``Term.key`` has four fields, so it
orders exactly like the nested ``(s.key(), p.key(), o.key())``, and a sort
compares flat tuples about twice as fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

_KIND_ORDER = {IRI: 0, BLANK: 1, LITERAL: 2}


class _TermFields(NamedTuple):
    kind: str
    value: str
    datatype: str | None = None
    lang: str | None = None


class Term(_TermFields):
    __slots__ = ()

    def __new__(cls, kind: str, value: str, datatype: str | None = None, lang: str | None = None):
        if kind not in _KIND_ORDER:
            raise ValueError(f"unknown term kind: {kind!r}")
        if kind != LITERAL and (datatype or lang):
            raise ValueError("datatype/lang only valid on literals")
        if datatype and lang:
            raise ValueError("literal cannot carry both datatype and language tag")
        return tuple.__new__(cls, (kind, value, datatype, lang))

    def key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.value, self.datatype or "", self.lang or "")


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

    def key(self) -> tuple:
        return self.s.key() + self.p.key() + self.o.key()


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
