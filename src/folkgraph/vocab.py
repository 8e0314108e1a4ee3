"""Namespaces and schema terms shared across the pipeline.

Fixture data lives under the reserved `.test` domain; the W3C namespaces are
the real ones. `vb` is an alias some sources use for the VerbNet namespace,
kept so either spelling of a prefixed name resolves to the same IRI.
"""

from __future__ import annotations

from .rdfio import PrefixTable
from .terms import Term, iri

KB = "http://kb.folkgraph.test/"

NAMESPACES = {
    "fg": KB + "schema/",
    "lex": KB + "lexicon/",
    "fs": KB + "frame/",
    "fse": KB + "frame-element/",
    "wn": KB + "wordnet/",
    "vn": KB + "verbnet/",
    "vb": KB + "verbnet/",
    "pb": KB + "propbank/",
    "bn": KB + "babelnet/",
    "cn": KB + "conceptnet/",
    "dbpedia": KB + "dbpedia/",
    "wiki": KB + "wikidata/",
    "wikt": KB + "wiktionary/",
    "yago": KB + "yago/",
    "mft": KB + "values/mft/",
    "bhv": KB + "values/bhv/",
    "folk": KB + "values/folk/",
    "g": KB + "graph/",
    "sent": KB + "sentence/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "prov": "http://www.w3.org/ns/prov#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}

PREFIXES = PrefixTable(NAMESPACES)


def fg(local: str) -> Term:
    return iri(NAMESPACES["fg"] + local)


RDF_TYPE = iri(NAMESPACES["rdf"] + "type")
RDFS_SUBCLASS_OF = iri(NAMESPACES["rdfs"] + "subClassOf")
RDFS_LABEL = iri(NAMESPACES["rdfs"] + "label")
OWL_SAME_AS = iri(NAMESPACES["owl"] + "sameAs")
SKOS_BROADER = iri(NAMESPACES["skos"] + "broader")
SKOS_CLOSE_MATCH = iri(NAMESPACES["skos"] + "closeMatch")
PROV_ATTRIBUTED_TO = iri(NAMESPACES["prov"] + "wasAttributedTo")
XSD_INTEGER = NAMESPACES["xsd"] + "integer"

# Lexical layer
LEXICAL_ENTRY = fg("LexicalEntry")
FRAME = fg("Frame")
FRAME_ELEMENT = fg("FrameElement")
LEMMA = fg("lemma")
POS = fg("pos")
SENSE = fg("sense")
FORM = fg("form")
EVOKES = fg("evokes")
SENSE_KEY = fg("senseKey")
CONCEPT_ANCHOR = fg("conceptAnchor")
EXTERNAL_URL = fg("externalUrl")
ELEMENT = fg("element")
ELEMENT_TYPE = fg("elementType")
AFFECT_ROLE = fg("affectRole")
AFFECT_POLARITY = fg("affectPolarity")

CONCEPT_RELATIONS = tuple(
    iri(NAMESPACES["cn"] + name)
    for name in ("Causes", "DerivedFrom", "FormOf", "HasSubevent", "IsA", "UsedFor")
)

# Value layer
VALUE = fg("Value")
VALUE_SITUATION = fg("ValueSituation")
POLARITY = fg("polarity")
DYAD_PARTNER = fg("dyadPartner")
NEXT_IN_RING = fg("nextInRing")
THIN_MORALITY = fg("ThinMorality")
NON_MORAL = fg("NonMoral")

# Trigger layer
TRIGGERS = fg("triggers")

TRIGGER_KINDS = (
    "frame",
    "synset",
    "verbClass",
    "concept",
    "factualEntity",
    "frameElement",
    "closeMatch",
)
KIND_PREDICATE = {kind: fg("triggersAs" + kind[0].upper() + kind[1:]) for kind in TRIGGER_KINDS}

PROVENANCE_TAGS = (
    "seedSelection",
    "derivedClosure",
    "closeMatchQuery",
    "yagoQuery",
    "conceptQuery",
    "factualQuery",
)
PROVENANCE_PREDICATE = {tag: fg("from" + tag[0].upper() + tag[1:]) for tag in PROVENANCE_TAGS}

# Every one-hop row the detector and the expander read, and all the workspace
# snapshot holds: objects by subject of ONE_HOP_OBJECTS, subjects by object of
# ONE_HOP_SUBJECTS.
ONE_HOP_OBJECTS = (
    EVOKES, SENSE_KEY, TRIGGERS, AFFECT_ROLE, AFFECT_POLARITY, OWL_SAME_AS, EXTERNAL_URL, *CONCEPT_RELATIONS
)
ONE_HOP_SUBJECTS = (EVOKES, SENSE_KEY, SKOS_CLOSE_MATCH, *CONCEPT_RELATIONS)

# Sentence annotation layer
SENTENCE_NODE = fg("SentenceNode")
ANCHOR = fg("anchor")
SPAN_START = fg("spanStart")
SPAN_END = fg("spanEnd")
VERB_CLASS = fg("verbClass")
ACTIVATES = fg("activates")
STANCE_ROLE = fg("stanceRole")
STANCE_POLARITY = fg("stancePolarity")
STANCE_TARGET = fg("stanceTarget")
