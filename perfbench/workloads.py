"""Seeded inputs for the three benchmark workloads.

Each generator writes a complete folkgraph project (manifest, graphs, value
manifest, plans, label map, annotated corpus, detect input) under a directory
it is given and returns a ``Workload`` describing it. The program under test
only ever sees those files. The same seed always gives byte-identical files.

* ``fixture``  -- the shipped ``fixtures/`` project, used as shipped.
* ``corpus``   -- the fixture KB and plans with a generated corpus of unique
  sentences built from the fixture lexicon's forms, its multiword and fillers.
* ``kb-scale`` -- a synthetic lexical KB wired like the fixtures (ranked senses,
  evoked frames, verb classes, sameAs pairs, concept anchors), about a tenth
  of its lemmas multiword, with its own values, plans, selections and corpus.

Alongside the files, a generator records what it knows independently of the
program: size properties, and for ``corpus`` the value set each sentence must
detect.
"""

from __future__ import annotations

import csv
import json
import random
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("fixture", "corpus", "kb-scale")

KB = "http://kb.folkgraph.test/"
NS = {
    "fg": KB + "schema/",
    "lex": KB + "lexicon/",
    "fs": KB + "frame/",
    "fse": KB + "frame-element/",
    "wn": KB + "wordnet/",
    "vn": KB + "verbnet/",
    "pb": KB + "propbank/",
    "cn": KB + "conceptnet/",
    "dbpedia": KB + "dbpedia/",
    "yago": KB + "yago/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
}
CONCEPT_RELATIONS = ("Causes", "DerivedFrom", "FormOf", "HasSubevent", "IsA", "UsedFor")

# Words the fixture lexicon does not know (scripts/make_fixtures.py keeps them so).
FILLERS = ("people", "consider", "the", "again", "they", "quietly", "qux", "corge", "waldo")

# Fixture surface units that activate a value once `expand --all` has run,
# and the value each one activates (firstSense mode, see fixtures/plans/).
FIXTURE_TRIGGERS = {
    "dangerous": "folk:Risk",
    "risk": "folk:Risk",
    "gamble": "folk:Risk",
    "venture": "folk:Risk",
    "dishonest": "mft:Loyalty",
    "national": "mft:Loyalty",
    "expose": "mft:Betrayal",
    "exposed": "mft:Betrayal",
    "exposes": "mft:Betrayal",
    "exposing": "mft:Betrayal",
    "course": "folk:Learning",
    "act of dishonesty": "folk:Rigor",
}

ANNOTATORS = ("A00", "A01", "A02", "A03", "A04")
FIXTURE_LABELS = (
    "Care", "Harm", "Fairness", "Cheating", "Loyalty", "Betrayal", "Authority", "Subversion",
    "Purity", "Degradation", "Liberty", "Oppression", "Risk", "Rigor", "Learning",
)
MARKER_LABELS = ("Thin Morality", "Non-Moral")


@dataclass
class Workload:
    name: str
    manifest: Path
    detect_input: Path  # corpus timed by `detect`
    eval_input: Path  # corpus whose detections `eval` reads (ids aligned with the annotations)
    annotations: Path
    sizes: dict = field(default_factory=dict)
    expected_values: dict[str, list[str]] | None = None  # sentence id -> sorted value qnames


def generate(name: str, seed: int, root: Path, out: Path) -> Workload:
    """Write workload ``name`` for ``seed`` under ``out``; ``root`` is the repository."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "fixture":
        return _fixture(root / "fixtures", out)
    if name == "corpus":
        return _corpus(random.Random(seed), root / "fixtures", out)
    if name == "kb-scale":
        return _kb_scale(random.Random(seed), root / "fixtures", out)
    raise ValueError(f"unknown workload {name!r}")


# -- shared helpers ----------------------------------------------------------------


def _write_jsonl(path: Path, sentences: list[tuple[str, str]]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for sid, text in sentences:
            handle.write(json.dumps({"id": sid, "text": text}) + "\n")


def read_jsonl(path: Path) -> list[tuple[str, str]]:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return [(row["id"], row["text"]) for row in rows]


def _text_sizes(sentences: list[tuple[str, str]]) -> dict:
    texts = Counter(text for _, text in sentences)
    repeated = sum(n for n in texts.values() if n > 1) - sum(1 for n in texts.values() if n > 1)
    tokens = sum(len(re.findall(r"\w+", text)) for _, text in sentences)
    return {
        "sentences": len(sentences),
        "repeated_text_share": round(repeated / len(sentences), 4),
        "mean_tokens": round(tokens / len(sentences), 2),
    }


def _lexicon_counts(turtle: str) -> dict:
    return {
        "entries": turtle.count("a fg:LexicalEntry"),
        "multiwords": turtle.count('fg:pos "multiword"'),
    }


def _write_annotations(path: Path, rng: random.Random, sentences, labels) -> None:
    """One to three annotator rows per sentence, labels drawn from the label map."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "text", "annotator", "labels", "confidence"])
        for sid, text in sentences:
            for annotator in rng.sample(ANNOTATORS, rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.3:
                    label = MARKER_LABELS[1]
                elif roll < 0.4:
                    label = MARKER_LABELS[0]
                else:
                    label = "|".join(sorted(set(rng.choices(labels, k=rng.randint(1, 2)))))
                confidence = "Confident" if rng.random() < 0.85 else "Not Confident"
                writer.writerow([sid, text, annotator, label, confidence])


# -- fixture -----------------------------------------------------------------------


def _fixture(fixtures: Path, out: Path) -> Workload:
    sentences = read_jsonl(fixtures / "corpus" / "sentences_1k.jsonl")
    sizes = _lexicon_counts((fixtures / "kb" / "lexicon.ttl").read_text(encoding="utf-8"))
    sizes.update(_text_sizes(sentences))
    return Workload(
        name="fixture",
        manifest=fixtures / "manifest.cfg",
        detect_input=fixtures / "corpus" / "sentences_1k.jsonl",
        eval_input=fixtures / "corpus" / "sentences.jsonl",
        annotations=fixtures / "corpus" / "annotations.csv",
        sizes=sizes,
    )


# -- corpus --------------------------------------------------------------------------

CORPUS_SENTENCES = 10_000


def _fixture_units(turtle: str) -> tuple[list[str], list[str]]:
    """Single-word surface forms and multiword lemmas of the fixture lexicon."""
    units = set(re.findall(r'fg:lemma "([^"]+)"', turtle))
    for forms in re.findall(r'fg:form\s+((?:"[^"]*"\s*,?\s*)+)', turtle):
        units.update(re.findall(r'"([^"]*)"', forms))
    return sorted(u for u in units if " " not in u), sorted(u for u in units if " " in u)


def _corpus(rng: random.Random, fixtures: Path, out: Path) -> Workload:
    tree = out / "project"
    shutil.copytree(fixtures, tree, ignore=shutil.ignore_patterns("workspace"))
    turtle = (tree / "kb" / "lexicon.ttl").read_text(encoding="utf-8")
    words, multiwords = _fixture_units(turtle)
    if set(FILLERS) & set(words):
        raise ValueError(f"fillers that the fixture lexicon knows: {sorted(set(FILLERS) & set(words))}")

    sentences = []
    expected = {}
    for i in range(CORPUS_SENTENCES):
        length = rng.randint(4, 40)
        units = []
        tokens = 1  # the unique tag closing every sentence
        while tokens < length:
            roll = rng.random()
            if roll < 0.02 * (i % 50 != 0):
                unit = rng.choice(multiwords)
            elif roll < 0.25 * (i % 50 != 0):
                unit = rng.choice(words)
            else:
                unit = rng.choice(FILLERS)
            units.append(unit)
            tokens += unit.count(" ") + 1
        sid = f"c{i + 1:05d}"
        text = " ".join(units).capitalize() + f" t{i + 1}."
        sentences.append((sid, text))
        expected[sid] = sorted({FIXTURE_TRIGGERS[u] for u in units if u in FIXTURE_TRIGGERS})

    corpus = tree / "corpus" / "generated.jsonl"
    _write_jsonl(corpus, sentences)
    annotations = tree / "corpus" / "generated.csv"
    _write_annotations(annotations, rng, sentences, FIXTURE_LABELS)
    manifest = tree / "manifest.cfg"
    text = manifest.read_text(encoding="utf-8").replace("corpus/annotations.csv", "corpus/generated.csv")
    manifest.write_text(text, encoding="utf-8")

    sizes = _lexicon_counts(turtle)
    sizes.update(_text_sizes(sentences))
    return Workload("corpus", manifest, corpus, corpus, annotations, sizes, expected)


# -- kb-scale ------------------------------------------------------------------------

KB_ENTRIES = 20_000
KB_MULTIWORD_SHARE = 0.10
KB_FRAMES = 1_000
KB_PLANS = 40
KB_SENTENCES = 400

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _word(i: int) -> str:
    """A distinct consonant-vowel word per index; suffixed forms never collide with it."""
    syllables = []
    i += 70  # at least two syllables
    while i:
        i, r = divmod(i, len(_CONSONANTS) * len(_VOWELS))
        syllables.append(_CONSONANTS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "".join(syllables)


class _Graph:
    def __init__(self):
        self.lines: list[str] = []

    def add(self, s: str, p: str, o: str) -> None:
        self.lines.append(f"{_nt(s)} {_nt(p)} {_nt(o)} .\n")

    def literal(self, s: str, p: str, value: str) -> None:
        self.lines.append(f'{_nt(s)} {_nt(p)} "{value}" .\n')


def _nt(qname: str) -> str:
    prefix, local = qname.split(":", 1)
    return f"<{NS[prefix]}{local}>"


def _kb_scale(rng: random.Random, fixtures: Path, out: Path) -> Workload:
    tree = out / "project"
    (tree / "kb").mkdir(parents=True)
    (tree / "plans" / "selections").mkdir(parents=True)
    (tree / "corpus").mkdir()
    shutil.copy(fixtures / "prefixes.cfg", tree / "prefixes.cfg")

    g = _Graph()
    frames = [f"fs:GF{k}" for k in range(KB_FRAMES)]
    for frame in frames:
        g.add(frame, "rdf:type", "fg:Frame")
        for j in range(rng.randint(0, 2)):
            element = f"fse:GF{frame[5:]}.E{j}"
            g.add(frame, "fg:element", element)
            g.literal(element, "rdfs:label", f"E{j}")
            g.literal(element, "fg:elementType", rng.choice(["core", "peripheral"]))
        if rng.random() < 0.3:
            g.add(f"pb:gp{frame[5:]}.01", "skos:closeMatch", frame)

    n_multi = int(KB_ENTRIES * KB_MULTIWORD_SHARE)
    singles = [_word(i) for i in range(KB_ENTRIES - n_multi)]
    multis: set[str] = set()
    while len(multis) < n_multi:
        multis.add(" ".join(rng.sample(singles, rng.choice((2, 2, 3)))))

    sense_frames: dict[str, list[str]] = {}  # lemma -> frames its senses evoke
    anchors: dict[str, str] = {}  # lemma -> concept neighbor
    urls: dict[str, list[str]] = {}  # concept -> external urls
    forms: list[str] = []
    for i, lemma in enumerate(singles + sorted(multis)):
        pos = "multiword" if " " in lemma else rng.choice(("noun", "noun", "verb", "verb", "adjective", "adverb"))
        stem = f"mw{i}" if pos == "multiword" else lemma
        entry = f"lex:{stem}-{pos}"
        g.add(entry, "rdf:type", "fg:LexicalEntry")
        g.literal(entry, "fg:lemma", lemma)
        g.literal(entry, "fg:pos", pos)
        if pos == "verb":
            for suffix in rng.sample(("ed", "s", "ing"), rng.randint(0, 2)):
                g.literal(entry, "fg:form", lemma + suffix)
                forms.append(lemma + suffix)
        elif pos == "noun" and rng.random() < 0.5:
            g.literal(entry, "fg:form", lemma + "s")
            forms.append(lemma + "s")
        evoked = []
        for rank in range(1, rng.choice((1, 1, 2)) + 1):
            sense = f"wn:{stem}-{pos}-{rank}"
            g.add(entry, "fg:sense", sense)
            for frame in rng.sample(frames, rng.choice((0, 1, 1, 2))):
                g.add(sense, "fg:evokes", frame)
                evoked.append(frame)
            if pos == "verb" and rng.random() < 0.5:
                verb_class = f"vn:G{stem}_{rank}"
                g.add(sense, "fg:senseKey", verb_class)
                if rng.random() < 0.4:
                    g.add(verb_class, "fg:evokes", rng.choice(frames))
                if rng.random() < 0.25:
                    g.literal(verb_class, "fg:affectRole", "Agent")
                    g.literal(verb_class, "fg:affectPolarity", rng.choice(("negative", "positive")))
            if rng.random() < 0.1:
                g.add(sense, "owl:sameAs", f"yago:G{stem}_{rank}")
                g.add(f"yago:G{stem}_{rank}", "owl:sameAs", sense)
        sense_frames[lemma] = evoked
        if pos != "multiword" and rng.random() < 0.25:
            anchor, neighbor = f"cn:g{stem}", f"cn:gn{stem}"
            g.add(entry, "fg:conceptAnchor", anchor)
            g.add(anchor, f"cn:{rng.choice(CONCEPT_RELATIONS)}", neighbor)
            anchors[lemma] = neighbor
            urls[anchor] = [f"dbpedia:GA{i}"] if rng.random() < 0.5 else []
            urls[neighbor] = [f"dbpedia:GN{i}"] if rng.random() < 0.5 else []
            for concept in (anchor, neighbor):
                for url in urls[concept]:
                    g.add(concept, "fg:externalUrl", url)
    (tree / "kb" / "lexicon.nt").write_text("".join(g.lines), encoding="utf-8")

    # Values: the fixture MFT/BHV rows plus one folk value per plan.
    values = [f"Gen{k:02d}" for k in range(KB_PLANS)]
    with (fixtures / "values.csv").open(encoding="utf-8") as handle:
        base_rows = [line for line in handle if not line.startswith("folk:")]
    rows = [f"folk:{v},FOLK,,,,dbpedia:Prov{v},\n" for v in values]
    (tree / "values.csv").write_text("".join(base_rows + rows), encoding="utf-8")
    labels = [f"{label} = mft:{label}" for label in FIXTURE_LABELS[:12]]
    labels += [f"{v} = folk:{v}" for v in values]
    labels += ["Thin Morality = fg:ThinMorality", "Non-Moral = fg:NonMoral"]
    (tree / "labels.cfg").write_text("\n".join(labels) + "\n", encoding="utf-8")

    # Plans: seeds are single-word lemmas whose senses evoke frames. Selections
    # accept a subset of the candidates the generator knows each query returns.
    seedable = [lemma for lemma in singles if sense_frames[lemma]]
    manifest = ["prefixes = prefixes.cfg", "graph = kb/lexicon.nt | ntriples | g:lexicon | lexical", "values = values.csv"]
    for value in values:
        seeds = rng.sample(seedable, rng.randint(2, 4))
        plan = [f"value = folk:{value}"] + [f"seed = {seed}" for seed in seeds]
        plan.append("auto = lexicalUnit yago closeMatch" if rng.random() < 0.5 else "auto = lexicalUnit")
        frame_candidates = sorted({f for seed in seeds for f in sense_frames[seed]})
        chosen = rng.sample(frame_candidates, max(1, len(frame_candidates) // 2))
        _selection(tree, plan, value, "frame", chosen)
        concepts = sorted({anchors[s] for s in seeds if s in anchors})
        if concepts:
            accepted = rng.sample(concepts, rng.randint(1, len(concepts)))
            _selection(tree, plan, value, "concept", accepted)
            facts = sorted({u for s in seeds if s in anchors for u in urls[f"cn:g{s}"]} | {u for c in accepted for u in urls[c]})
            if facts:
                _selection(tree, plan, value, "factual", facts[: rng.randint(1, len(facts))])
        (tree / "plans" / f"{value}.plan").write_text("\n".join(plan) + "\n", encoding="utf-8")
        manifest.append(f"plan = plans/{value}.plan")
    manifest += ["corpus = corpus/annotations.csv", "labelMap = labels.cfg", "detectorMode = firstSense"]
    (tree / "manifest.cfg").write_text("\n".join(manifest) + "\n", encoding="utf-8")

    vocabulary = singles + forms
    multi_list = sorted(multis)
    sentences = []
    for i in range(KB_SENTENCES):
        length = rng.randint(4, 40)
        units = []
        tokens = 1
        while tokens < length:
            roll = rng.random()
            if roll < 0.04:
                unit = rng.choice(multi_list)
            elif roll < 0.6:
                unit = rng.choice(vocabulary)
            else:
                unit = rng.choice(FILLERS)
            units.append(unit)
            tokens += unit.count(" ") + 1
        sentences.append((f"k{i + 1:04d}", " ".join(units).capitalize() + f" t{i + 1}."))
    corpus = tree / "corpus" / "sentences.jsonl"
    _write_jsonl(corpus, sentences)
    annotations = tree / "corpus" / "annotations.csv"
    _write_annotations(annotations, rng, sentences, values[:12] + list(FIXTURE_LABELS[:12]))

    sizes = {"kb_triples_written": len(g.lines), "entries": KB_ENTRIES, "multiwords": n_multi}
    sizes.update(_text_sizes(sentences))
    return Workload("kb-scale", tree / "manifest.cfg", corpus, corpus, annotations, sizes)


def _selection(tree: Path, plan: list[str], value: str, kind: str, accepted: list[str]) -> None:
    name = f"{value}-{kind}.txt"
    (tree / "plans" / "selections" / name).write_text("\n".join(accepted) + "\n", encoding="utf-8")
    plan.append(f"select.{kind} = selections/{name}")
