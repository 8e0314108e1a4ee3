"""Value registry: punned value entities, dyads, taxonomy, and provenance.

A registered value is punned: the same IRI is typed as a value individual
and subclassed under the situation class, so downstream queries can treat it
either way. Values belong to one of three modules (MFT, BHV, FOLK), each
emitted as its own named graph.

The BHV circumplex ring is encoded from registration order: each BHV value
points at the next one registered, the last wrapping around to the first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from . import vocab
from .config import config_pairs
from .lexicon import Lexicon
from .rdfio import PrefixTable
from .terms import Term, Triple, iri, lit

MODULES = ("MFT", "BHV", "FOLK")
POLARITIES = ("positive", "negative", "unpolarized")

MODULE_GRAPHS = {
    "MFT": vocab.PREFIXES.expand("g:values-mft"),
    "BHV": vocab.PREFIXES.expand("g:values-bhv"),
    "FOLK": vocab.PREFIXES.expand("g:values-folk"),
}


class ValueModelError(ValueError):
    pass


@dataclass(frozen=True)
class ValueConcept:
    id: Term
    module: str
    polarity: str = "unpolarized"
    dyad_partner: Term | None = None
    parents: tuple[Term, ...] = ()
    provenance_urls: tuple[Term, ...] = ()
    aligned_to: tuple[Term, ...] = ()


@dataclass(frozen=True)
class ValueCandidate:
    label: str
    definition: str
    source_url: str


@dataclass(frozen=True)
class MergeRecord:
    merged_label: str
    canonical_label: str
    reason: str  # synonym | override


@dataclass
class ValueModel:
    values: dict[Term, ValueConcept] = field(default_factory=dict)
    _bhv_order: list[Term] = field(default_factory=list)

    def register(self, spec: ValueConcept) -> ValueConcept:
        if spec.id in self.values:
            raise ValueModelError(f"duplicate value id: {spec.id.value}")
        if spec.module not in MODULES:
            raise ValueModelError(f"{spec.id.value}: unknown module {spec.module!r}")
        if spec.polarity not in POLARITIES:
            raise ValueModelError(f"{spec.id.value}: unknown polarity {spec.polarity!r}")
        if spec.module == "MFT" and spec.dyad_partner is None:
            raise ValueModelError(f"{spec.id.value}: MFT value without dyad partner")
        if spec.module == "FOLK" and not spec.provenance_urls:
            raise ValueModelError(f"{spec.id.value}: FOLK value without provenance")
        if spec.module == "MFT" and spec.parents:
            raise ValueModelError(f"{spec.id.value}: MFT values take no taxonomy parents")
        self.values[spec.id] = spec
        self._check_acyclic(spec.id)
        if spec.module == "BHV":
            self._bhv_order.append(spec.id)
        return spec

    def _check_acyclic(self, start: Term) -> None:
        # Parents may be registered later; walk whatever edges are known so far.
        seen = {start}
        frontier = list(self.values[start].parents)
        while frontier:
            node = frontier.pop()
            if node == start:
                raise ValueModelError(f"taxonomy cycle through {start.value}")
            if node in seen:
                continue
            seen.add(node)
            if node in self.values:
                frontier.extend(self.values[node].parents)

    def get(self, value_id: Term) -> ValueConcept:
        try:
            return self.values[value_id]
        except KeyError:
            raise ValueModelError(f"unknown value: {value_id.value}") from None

    def validate(self) -> None:
        """Cross-value checks that need the full registry."""
        for spec in self.values.values():
            for parent in spec.parents:
                if parent not in self.values:
                    raise ValueModelError(f"{spec.id.value}: unknown parent {parent.value}")
            if spec.aligned_to and spec.module != "FOLK":
                raise ValueModelError(f"{spec.id.value}: only FOLK values are aligned")
            for target in spec.aligned_to:
                if self.get(target).module not in ("MFT", "BHV"):
                    raise ValueModelError(
                        f"{spec.id.value}: alignment target {target.value} is not MFT or BHV"
                    )
            if spec.module == "MFT":
                partner = self.get(spec.dyad_partner)
                if partner.dyad_partner != spec.id:
                    raise ValueModelError(f"dyad not symmetric: {spec.id.value}")
                if {spec.polarity, partner.polarity} != {"positive", "negative"}:
                    raise ValueModelError(f"dyad polarity not opposed: {spec.id.value}")

    def module_graphs(self) -> dict[Term, list[Triple]]:
        """Emit the punned triples for every value, one graph per module."""
        self.validate()
        graphs: dict[Term, list[Triple]] = {name: [] for name in MODULE_GRAPHS.values()}
        for spec in self.values.values():
            out = graphs[MODULE_GRAPHS[spec.module]]
            out.append(Triple(spec.id, vocab.RDF_TYPE, vocab.VALUE))
            out.append(Triple(spec.id, vocab.RDFS_SUBCLASS_OF, vocab.VALUE_SITUATION))
            if spec.polarity != "unpolarized":
                out.append(Triple(spec.id, vocab.POLARITY, lit(spec.polarity)))
            if spec.dyad_partner is not None:
                out.append(Triple(spec.id, vocab.DYAD_PARTNER, spec.dyad_partner))
            for parent in spec.parents:
                out.append(Triple(spec.id, vocab.SKOS_BROADER, parent))
            for url in spec.provenance_urls:
                out.append(Triple(spec.id, vocab.PROV_ATTRIBUTED_TO, url))
            for target in spec.aligned_to:
                out.append(Triple(spec.id, vocab.SKOS_CLOSE_MATCH, target))
        ring = self._bhv_order
        for i, value_id in enumerate(ring):
            graphs[MODULE_GRAPHS["BHV"]].append(
                Triple(value_id, vocab.NEXT_IN_RING, ring[(i + 1) % len(ring)])
            )
        return graphs


# -- manifest loading ---------------------------------------------------------

MANIFEST_COLUMNS = ["id", "module", "polarity", "dyadPartner", "parents", "provenanceUrls", "alignments"]


def _split_terms(cell: str, prefixes: PrefixTable, path: str | Path) -> tuple[Term, ...]:
    return tuple(prefixes.expand(part, path) for part in cell.split("|") if part)


def load_value_manifest(path: str | Path, prefixes: PrefixTable) -> list[ValueConcept]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != MANIFEST_COLUMNS:
            raise ValueModelError(f"{path}: expected columns {MANIFEST_COLUMNS}, got {reader.fieldnames}")
        specs = []
        for row in reader:
            specs.append(
                ValueConcept(
                    id=prefixes.expand(row["id"], path),
                    module=row["module"],
                    polarity=row["polarity"] or "unpolarized",
                    dyad_partner=prefixes.expand(row["dyadPartner"], path) if row["dyadPartner"] else None,
                    parents=_split_terms(row["parents"], prefixes, path),
                    provenance_urls=_split_terms(row["provenanceUrls"], prefixes, path),
                    aligned_to=_split_terms(row["alignments"], prefixes, path),
                )
            )
    return specs


def build_model(specs) -> ValueModel:
    model = ValueModel()
    for spec in specs:
        model.register(spec)
    model.validate()
    return model


# -- candidate deduplication ----------------------------------------------------


def load_merge_overrides(path: str | Path) -> dict[str, str]:
    """Override file: `Alias -> Canonical` per line, `#` comments allowed."""
    return dict(config_pairs(path, ValueModelError, "override line", separator="->"))


def value_id_for_label(label: str) -> Term:
    pascal = "".join(word[0].upper() + word[1:] for word in label.split() if word)
    return iri(vocab.NAMESPACES["folk"] + pascal)


def dedupe_candidates(
    candidates: list[ValueCandidate],
    lexicon: Lexicon,
    overrides: dict[str, str] | None = None,
) -> tuple[list[ValueConcept], list[MergeRecord]]:
    """Merge candidates naming the same semantic space into single FOLK specs.

    Two candidates merge when their label lemmas share a sense in the lexicon;
    the override file can force further merges. The earliest candidate of each
    group names the value and provenance URLs accumulate in input order.
    """
    labels = [c.label for c in candidates]
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueModelError("duplicate candidate labels")

    parent = list(range(len(candidates)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        # Keep the smaller input index as representative.
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    sense_owner: dict[Term, int] = {}
    for i, candidate in enumerate(candidates):
        for entry in lexicon.lookup_lemma(candidate.label.lower()):
            for sense in entry.senses:
                if sense in sense_owner:
                    union(i, sense_owner[sense])
                else:
                    sense_owner[sense] = i

    for alias, canonical in (overrides or {}).items():
        if alias not in index or canonical not in index:
            raise ValueModelError(f"override names unknown candidate: {alias!r} -> {canonical!r}")
        union(index[alias], index[canonical])

    groups: dict[int, list[ValueCandidate]] = {}
    for i, candidate in enumerate(candidates):
        groups.setdefault(find(i), []).append(candidate)

    specs = []
    records = []
    for root in sorted(groups):
        members = groups[root]
        urls = []
        for member in members:
            if member.source_url and member.source_url not in urls:
                urls.append(member.source_url)
        specs.append(
            ValueConcept(
                id=value_id_for_label(members[0].label),
                module="FOLK",
                provenance_urls=tuple(iri(url) for url in urls),
            )
        )
        for member in members[1:]:
            reason = "override" if member.label in (overrides or {}) else "synonym"
            records.append(MergeRecord(member.label, members[0].label, reason))
    records.sort(key=lambda r: (r.canonical_label, r.merged_label))
    return specs, records
