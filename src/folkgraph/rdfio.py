"""Reading and writing graph documents.

Two formats are supported:

* N-Triples: one triple per line, absolute IRIs only.
* A Turtle subset: ``@prefix`` directives, prefixed names, the ``a`` keyword,
  predicate lists (``;``) and object lists (``,``). Collections, quoted
  triples, blank-node property lists and bare numeric/boolean literals are
  out of scope and rejected with a parse error.

Blank node labels are accepted on parse; the pipeline itself never emits
them. Serialization to N-Triples is deterministic: triples are sorted by
subject, predicate, object.
"""

from __future__ import annotations

import re
from pathlib import Path

from .config import config_pairs
from .terms import BLANK, IRI, LITERAL, Term, Triple, blank, iri, lit

RDF_TYPE = iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_UNESCAPES = {"\n": "\\n", "\r": "\\r", "\t": "\\t", '"': '\\"', "\\": "\\\\"}
_ESCAPE_TABLE = str.maketrans(_UNESCAPES)


class ParseError(ValueError):
    """Syntax error carrying the 1-based line and column of the offending input."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PrefixTable:
    """Prefix-to-namespace mapping used for compaction and qname expansion.

    The config format is one ``prefix = iri`` entry per line, ``#`` comments
    allowed. ``mapping`` is read-only once the table is made: the namespaces
    are indexed once, and ``compact`` remembers every answer it gives.
    """

    def __init__(self, mapping: dict[str, str] | None = None):
        self.mapping: dict[str, str] = dict(mapping or {})
        # Each non-empty namespace with the first prefix bound to it.
        self._prefix_of: dict[str, str] = {}
        for prefix, namespace in self.mapping.items():
            if namespace:
                self._prefix_of.setdefault(namespace, prefix)
        self._namespaces: re.Pattern | None = None  # compiled by the first compact() that needs it
        self._compacted: dict[str, str] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "PrefixTable":
        pairs = config_pairs(path, ValueError, "prefix entry")
        return cls({prefix.rstrip(":"): namespace for prefix, namespace in pairs})

    def expand(self, name: str, source: str | Path | None = None) -> Term:
        """Turn ``fs:RunRisk``, ``<urn:x>`` or ``http://...`` into an IRI term; a prefix
        not in the table is a ``ValueError``, naming the ``source`` file if given,
        unless ``//`` follows its colon."""
        name = name.strip()
        if name.startswith("<") and name.endswith(">"):
            return iri(name[1:-1])
        if ":" in name:
            prefix, local = name.split(":", 1)
            if prefix in self.mapping and not local.startswith("//"):
                return iri(self.mapping[prefix] + local)
            if not local.startswith("//"):
                where = f"{source}: " if source is not None else ""
                raise ValueError(f"{where}unknown prefix {prefix!r} in {name!r}")
        return iri(name)

    def compact(self, value: str) -> str:
        """Longest-namespace-match compaction, else the IRI as ``expand`` reads it back."""
        compacted = self._compacted.get(value)
        if compacted is None:
            if self._namespaces is None:
                # One pattern that tries the namespaces longest first, so its match
                # is the longest; ``(?!)``, which never matches, when there are none.
                longest_first = sorted(self._prefix_of, key=len, reverse=True)
                self._namespaces = re.compile("|".join(map(re.escape, longest_first)) or "(?!)")
            match = self._namespaces.match(value)
            if match is not None:
                namespace = match.group()
                compacted = f"{self._prefix_of[namespace]}:{value[len(namespace):]}"
            elif ":" not in value or value.split(":", 1)[1].startswith("//"):
                compacted = value
            else:
                compacted = f"<{value}>"
            self._compacted[value] = compacted
        return compacted

    def shorten(self, term: Term) -> str:
        """Readable rendering of a term for reports and summaries."""
        if term.kind == IRI:
            return self.compact(term.value)
        if term.kind == BLANK:
            return f"_:{term.value}"
        return term.value


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_space(self) -> None:
        while not self.at_end():
            ch = self.peek()
            if ch in " \t\r\n":
                self.advance()
            elif ch == "#":
                while not self.at_end() and self.peek() != "\n":
                    self.advance()
            else:
                return

    def expect(self, ch: str) -> None:
        if self.at_end() or self.peek() != ch:
            found = "end of input" if self.at_end() else repr(self.peek())
            raise self.error(f"expected {ch!r}, found {found}")
        self.advance()

    def read_iriref(self) -> Term:
        self.expect("<")
        chars = []
        while True:
            if self.at_end():
                raise self.error("unterminated IRI")
            ch = self.advance()
            if ch == ">":
                return iri("".join(chars))
            if ch in " \n\r\t<\"{}|^`":
                raise self.error(f"illegal character {ch!r} in IRI")
            chars.append(ch)

    def read_blank(self) -> Term:
        self.expect("_")
        self.expect(":")
        chars = []
        while not self.at_end() and (self.peek().isalnum() or self.peek() in "_-"):
            chars.append(self.advance())
        if not chars:
            raise self.error("empty blank node label")
        return blank("".join(chars))

    def _read_uchar(self, width: int) -> str:
        digits = []
        for _ in range(width):
            if self.at_end():
                raise self.error("truncated unicode escape")
            digits.append(self.advance())
        try:
            return chr(int("".join(digits), 16))
        except ValueError:
            raise self.error(f"bad unicode escape: {''.join(digits)!r}") from None

    def read_string(self) -> str:
        self.expect('"')
        chars = []
        while True:
            if self.at_end():
                raise self.error("unterminated string literal")
            ch = self.advance()
            if ch == '"':
                return "".join(chars)
            if ch == "\n":
                raise self.error("newline inside string literal")
            if ch == "\\":
                if self.at_end():
                    raise self.error("dangling escape")
                esc = self.advance()
                if esc in _ESCAPES:
                    chars.append(_ESCAPES[esc])
                elif esc == "u":
                    chars.append(self._read_uchar(4))
                elif esc == "U":
                    chars.append(self._read_uchar(8))
                else:
                    raise self.error(f"unknown escape: \\{esc}")
            else:
                chars.append(ch)

    def read_langtag(self) -> str:
        self.expect("@")
        chars = []
        while not self.at_end() and (self.peek().isalnum() or self.peek() == "-"):
            chars.append(self.advance())
        if not chars:
            raise self.error("empty language tag")
        return "".join(chars)

    def read_literal(self, read_datatype) -> Term:
        """A quoted string and its ``@`` tag or its ``^^`` datatype, read by ``read_datatype``.
        An empty datatype IRI is an error: it would be written as no datatype."""
        value = self.read_string()
        if self.peek() == "@":
            return lit(value, lang=self.read_langtag())
        if self.peek() != "^":
            return lit(value)
        self.expect("^")
        self.expect("^")
        line, column = self.line, self.col
        datatype = read_datatype(self).value
        if not datatype:
            raise ParseError("empty datatype IRI", line, column)
        return lit(value, datatype=datatype)


def _read_nt_term(sc: _Scanner) -> Term:
    ch = sc.peek()
    if ch == "<":
        return sc.read_iriref()
    if ch == "_":
        return sc.read_blank()
    if ch == '"':
        return sc.read_literal(_Scanner.read_iriref)
    if ch == "":
        raise sc.error("unexpected end of input")
    raise sc.error(f"unexpected character {ch!r}")


# One N-Triples line as the pipeline writes it: three IRIs, or two IRIs and a
# literal without escapes or an empty datatype IRI. Each character class is the
# scanner's or narrower, so a line this matches reads the same either way.
_IRI_CHAR = r'[^ \t\n\r<>"{}|^`]'
_IRI_BODY = rf"<({_IRI_CHAR}*)>"
_NT_LINE = re.compile(
    rf'{_IRI_BODY}[ \t]*{_IRI_BODY}[ \t]*'
    rf'(?:{_IRI_BODY}|"([^"\\\n]*)"(?:\^\^<({_IRI_CHAR}+)>|@([A-Za-z0-9-]+))?)'
    r"[ \t]*\.[ \t\r]*"
)


class _Interned(dict):
    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        term = self[key] = self.make(key)
        return term


def parse_ntriples(text: str) -> list[Triple]:
    """Line-at-a-time reader; any line it does not recognize sends the whole
    text to the scanner, which keeps error positions, escapes, blank nodes and
    multi-line statements as the scanner reads them."""
    iris = _Interned(iri)
    literals = _Interned(lambda key: lit(*key))
    triples = []
    match = _NT_LINE.fullmatch
    for line in text.split("\n"):
        m = match(line)
        if m is None:
            rest = line.lstrip(" \t\r")
            if rest and rest[0] != "#":
                return _scan_ntriples(text)
            continue
        s, p, o, value, datatype, lang = m.groups()
        obj = iris[o] if value is None else literals[value, datatype, lang]
        triples.append(Triple(iris[s], iris[p], obj))
    return triples


def _scan_ntriples(text: str) -> list[Triple]:
    sc = _Scanner(text)
    triples = []
    while True:
        sc.skip_space()
        if sc.at_end():
            return triples
        s = _read_nt_term(sc)
        if s.kind == LITERAL:
            raise sc.error("literal in subject position")
        sc.skip_space()
        p = sc.read_iriref()
        sc.skip_space()
        o = _read_nt_term(sc)
        sc.skip_space()
        sc.expect(".")
        triples.append(Triple(s, p, o))


_PN_LOCAL_EXTRA = "_-."


def _read_prefixed_name(sc: _Scanner, prefixes: dict[str, str]) -> Term:
    start_line, start_col = sc.line, sc.col
    chars = []
    while not sc.at_end() and (sc.peek().isalnum() or sc.peek() in "_-"):
        chars.append(sc.advance())
    if sc.peek() != ":":
        raise ParseError(f"expected prefixed name near {''.join(chars)!r}", start_line, start_col)
    sc.advance()
    prefix = "".join(chars)
    local = []
    while not sc.at_end() and (sc.peek().isalnum() or sc.peek() in _PN_LOCAL_EXTRA):
        local.append(sc.advance())
    # A trailing dot belongs to the statement, not the name.
    while local and local[-1] == ".":
        local.pop()
        sc.pos -= 1
        sc.col -= 1
    if prefix not in prefixes:
        raise ParseError(f"undeclared prefix {prefix!r}", start_line, start_col)
    return iri(prefixes[prefix] + "".join(local))


def _read_turtle_iri(sc: _Scanner, prefixes: dict[str, str]) -> Term:
    if sc.peek() == "<":
        return sc.read_iriref()
    return _read_prefixed_name(sc, prefixes)


def _read_turtle_object(sc: _Scanner, prefixes: dict[str, str]) -> Term:
    ch = sc.peek()
    if ch == '"':
        return sc.read_literal(lambda scanner: _read_turtle_iri(scanner, prefixes))
    if ch == "_":
        return sc.read_blank()
    if ch in "([":
        raise sc.error("collections and blank-node property lists are not supported")
    if ch.isdigit() or ch in "+-":
        raise sc.error("bare numeric literals are not supported; quote the value")
    return _read_turtle_iri(sc, prefixes)


def _read_directive(sc: _Scanner, prefixes: dict[str, str]) -> None:
    word = []
    while not sc.at_end() and not sc.peek().isspace():
        word.append(sc.advance())
    directive = "".join(word)
    if directive != "@prefix":
        raise sc.error(f"unsupported directive {directive!r}")
    sc.skip_space()
    name = []
    while not sc.at_end() and sc.peek() != ":":
        name.append(sc.advance())
    sc.expect(":")
    sc.skip_space()
    namespace = sc.read_iriref()
    sc.skip_space()
    sc.expect(".")
    prefixes["".join(name).strip()] = namespace.value


def parse_turtle(text: str) -> list[Triple]:
    sc = _Scanner(text)
    prefixes: dict[str, str] = {}
    triples = []
    while True:
        sc.skip_space()
        if sc.at_end():
            return triples
        if sc.peek() == "@":
            _read_directive(sc, prefixes)
            continue
        if sc.peek() == "_":
            subject = sc.read_blank()
        else:
            subject = _read_turtle_iri(sc, prefixes)
        while True:
            sc.skip_space()
            if sc.peek() == "a" and _is_bare_a(sc):
                sc.advance()
                predicate = RDF_TYPE
            else:
                predicate = _read_turtle_iri(sc, prefixes)
            while True:
                sc.skip_space()
                obj = _read_turtle_object(sc, prefixes)
                triples.append(Triple(subject, predicate, obj))
                sc.skip_space()
                if sc.peek() == ",":
                    sc.advance()
                    continue
                break
            if sc.peek() == ";":
                sc.advance()
                sc.skip_space()
                if sc.peek() == ".":
                    break
                continue
            break
        sc.expect(".")


def _is_bare_a(sc: _Scanner) -> bool:
    nxt = sc.text[sc.pos + 1 : sc.pos + 2]
    return nxt == "" or nxt.isspace() or nxt == "<"


def parse(text: str, fmt: str) -> list[Triple]:
    if fmt == "ntriples":
        return parse_ntriples(text)
    if fmt == "turtle":
        return parse_turtle(text)
    raise ValueError(f"unknown format {fmt!r} (expected 'ntriples' or 'turtle')")


def _escape_literal(value: str) -> str:
    return value.translate(_ESCAPE_TABLE)


def term_to_ntriples(term: Term) -> str:
    if term.kind == IRI:
        return f"<{term.value}>"
    if term.kind == BLANK:
        return f"_:{term.value}"
    body = f'"{_escape_literal(term.value)}"'
    if term.datatype:
        return f"{body}^^<{term.datatype}>"
    if term.lang:
        return f"{body}@{term.lang}"
    return body


def to_ntriples(triples) -> str:
    lines = [
        f"{term_to_ntriples(t.s)} {term_to_ntriples(t.p)} {term_to_ntriples(t.o)} ."
        for t in sorted(set(triples))
    ]
    return "".join(line + "\n" for line in lines)


def _turtle_term(term: Term, prefixes: PrefixTable) -> str:
    if term.kind == IRI:
        compact = prefixes.compact(term.value)
        if compact != term.value and _valid_local(compact.split(":", 1)[1]):
            return compact
        return f"<{term.value}>"
    return term_to_ntriples(term)


def _valid_local(local: str) -> bool:
    return all(ch.isalnum() or ch in _PN_LOCAL_EXTRA for ch in local) and not local.endswith(".")


def to_turtle(triples, prefixes: PrefixTable) -> str:
    """Serialize with subject/predicate grouping. Deterministic like to_ntriples."""
    triples = sorted(set(triples))
    used = set()

    def render(term: Term) -> str:
        text = _turtle_term(term, prefixes)
        if ":" in text and not text.startswith(("<", "_:", '"')):
            used.add(text.split(":", 1)[0])
        return text

    by_subject: dict[Term, dict[Term, list[Term]]] = {}
    for t in triples:
        by_subject.setdefault(t.s, {}).setdefault(t.p, []).append(t.o)

    blocks = []
    for subject, preds in by_subject.items():  # in term order, as the sorted triples were added
        lines = []
        for predicate, objects in preds.items():
            pred_text = "a" if predicate == RDF_TYPE else render(predicate)
            objs = ", ".join(render(o) for o in objects)
            lines.append(f"    {pred_text} {objs}")
        blocks.append(render(subject) + "\n" + " ;\n".join(lines) + " .\n")

    header = "".join(
        f"@prefix {p}: <{prefixes.mapping[p]}> .\n" for p in sorted(used) if p in prefixes.mapping
    )
    return header + "\n" + "\n".join(blocks) if header else "\n".join(blocks)


def serialize(triples, fmt: str, prefixes: PrefixTable | None = None) -> str:
    if fmt == "ntriples":
        return to_ntriples(triples)
    if fmt == "turtle":
        return to_turtle(triples, prefixes or PrefixTable())
    raise ValueError(f"unknown format {fmt!r} (expected 'ntriples' or 'turtle')")
