"""Graph term model: IRIs, literals, blank nodes, triples, and query patterns.

Literals carry an optional datatype IRI or language tag, never both.
Terms are immutable and hashable so they can key the store indexes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

_KIND_ORDER = {IRI: 0, BLANK: 1, LITERAL: 2}


@dataclass(frozen=True, slots=True)
class Term:
    kind: str
    value: str
    datatype: str | None = None
    lang: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if self.kind != LITERAL and (self.datatype or self.lang):
            raise ValueError("datatype/lang only valid on literals")
        if self.datatype and self.lang:
            raise ValueError("literal cannot carry both datatype and language tag")

    def key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.value, self.datatype or "", self.lang or "")


def iri(value: str) -> Term:
    return Term(IRI, value)


def lit(value: str, datatype: str | None = None, lang: str | None = None) -> Term:
    return Term(LITERAL, value, datatype, lang)


def blank(label: str) -> Term:
    return Term(BLANK, label)


@dataclass(frozen=True, slots=True)
class Triple:
    s: Term
    p: Term
    o: Term

    def key(self) -> tuple:
        return (self.s.key(), self.p.key(), self.o.key())


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
