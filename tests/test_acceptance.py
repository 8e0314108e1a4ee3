"""Acceptance gate: eight end-to-end criteria over the shipped fixtures.

Each test prints one PASS/FAIL line naming its criterion and tolerance.
Everything is exact-match (zero mismatches permitted); the only slack is
the two wall-clock budgets, which are loose on commodity hardware.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from pathlib import Path

import pytest

from folkgraph import cli
from folkgraph.detector import Detector
from folkgraph.expansion import Expander, Seed
from folkgraph.manifest import WORKSPACE_ENV, load_trigger_graphs, load_workspace
from folkgraph.rdfio import parse, serialize
from folkgraph.store import TripleStore
from folkgraph.terms import Term, Triple, blank, iri, lit
from folkgraph.vocab import PREFIXES

from oracles import brute_force_match, isomorphic, random_bgp, random_graphs
from test_expansion import run_closure_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TABLE1 = {
    "A00": (157, 63, 52, 62, 34),
    "A01": (137, 136, 53, 60, 60),
    "A02": (185, 180, 65, 75, 75),
    "A03": (302, 296, 122, 130, 130),
    "A04": (163, 163, 6, 63, 63),
}
TABLE2 = {
    "totalSentences": 1000,
    "graphsProduced": 944,
    "mftAnnotated": 228,
    "thinMorality": 153,
    "nonMoral": 563,
    "detectedAny": 855,
}
OVERLAP = 635


def c(qname: str) -> Term:
    return PREFIXES.expand(qname)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module", autouse=True)
def no_workspace_env():
    # The workspace must resolve next to each copied manifest.
    old = os.environ.pop(WORKSPACE_ENV, None)
    yield
    if old is not None:
        os.environ[WORKSPACE_ENV] = old


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    tree = root / "fixtures"
    shutil.copytree(FIXTURES, tree)
    manifest = str(tree / "manifest.cfg")
    assert cli.main(["build-kb", "--manifest", manifest]) == 0
    assert cli.main(["expand", "--manifest", manifest, "--all"]) == 0
    return {"root": root, "tree": tree, "manifest": manifest, "workspace": tree / "workspace"}


def test_1_risk_expansion_queries(pipeline, capsys):
    store, lexicon, _ = load_workspace(pipeline["workspace"])
    store.freeze()
    expander = Expander(store, lexicon)

    start = time.monotonic()
    frames = set(expander.frame_activation_query(Seed("risk")))
    synsets, verb_classes = expander.lexical_unit_split(sorted(frames))
    units = set(synsets + verb_classes)
    facts = set(expander.factual_expansion_query(c("cn:risk")))
    elapsed = time.monotonic() - start

    expected_frames = {
        c("fs:RiskySituation"), c("fs:RunRisk"), c("fs:BeingAtRisk"),
        c("fs:Daring"), c("fs:Endangering"),
    }
    required_units = {
        c("wn:risk-verb-2"), c("wn:gamble-verb-1"), c("wn:venture-verb-3"),
        c("vn:Risk_94000000"), c("vn:Gamble_70000000"), c("vn:Venture_94100000"),
    }
    expected_facts = {c("dbpedia:Risk"), c("wiki:Q104493")}

    ok = (
        frames == expected_frames
        and required_units <= units
        and facts == expected_facts
        and elapsed < 1.0
    )
    with capsys.disabled():
        verdict(1, "risk expansion queries", ok, f"exact sets, {elapsed:.3f}s < 1s")
    assert frames == expected_frames
    assert required_units <= units
    assert facts == expected_facts
    assert elapsed < 1.0


def test_2_worked_example_detection(pipeline, capsys):
    store, lexicon, meta = load_workspace(pipeline["workspace"])
    load_trigger_graphs(store, pipeline["workspace"])
    store.freeze()
    detector = Detector(store, lexicon, meta["detectorMode"])
    record = json.loads((pipeline["tree"] / "corpus" / "worked_example.jsonl").read_text(encoding="utf-8"))

    start = time.monotonic()
    result = detector.run(record["text"], record["id"])
    elapsed = time.monotonic() - start

    values = sorted(PREFIXES.compact(v.value) for v in result.values)
    expected_values = ["folk:Learning", "folk:Rigor", "folk:Risk", "mft:Betrayal", "mft:Loyalty"]
    chains = {tuple(p["chain"]) for p in result.summary(PREFIXES)["paths"]}
    expected_chains = {
        ("wn:dishonest-adjective-1", "evokes", "fs:Candidness", "triggers", "mft:Loyalty"),
        ("wn:national-adjective-1", "triggers", "mft:Loyalty"),
        ("vn:Expose_48012000", "evokes", "fs:RevealSecret", "triggers", "mft:Betrayal"),
        ("wn:act-of-dishonesty-1", "evokes", "fs:Law", "triggers", "folk:Rigor"),
        ("wn:dangerous-adjective-1", "evokes", "fs:RiskySituation", "triggers", "folk:Risk"),
        ("wn:course-noun-1", "evokes", "fs:Education", "triggers", "folk:Learning"),
    }

    ok = values == expected_values and expected_chains <= chains and elapsed < 1.0
    with capsys.disabled():
        verdict(2, "worked example detection", ok, f"exact value set + chains, {elapsed:.3f}s < 1s")
    assert values == expected_values
    assert expected_chains <= chains
    assert elapsed < 1.0


def test_3_table_reproduction(pipeline, capsys):
    out_dir = pipeline["root"] / "detect-full"
    rc = cli.main([
        "detect", "--manifest", pipeline["manifest"],
        "--input", str(pipeline["tree"] / "corpus" / "sentences.jsonl"),
        "--out", str(out_dir),
    ])
    assert rc == 0
    rc = cli.main([
        "eval", "--manifest", pipeline["manifest"],
        "--detections", str(out_dir / "summary.jsonl"),
    ])
    assert rc == 0

    report = json.loads((pipeline["workspace"] / "eval" / "report.json").read_text(encoding="utf-8"))
    mismatches = []
    for annotator, (tot, tot_nc, agree, agree_tm, agree_tm_nc) in TABLE1.items():
        row = report["perAnnotator"][annotator]
        got = (row["tot"], row["totNC"], row["agree"], row["agreeTM"], row["agreeTMNC"])
        if got != (tot, tot_nc, agree, agree_tm, agree_tm_nc):
            mismatches.append((annotator, got))
    for key, expected in TABLE2.items():
        if report[key] != expected:
            mismatches.append((key, report[key]))
    if report["overlapWithTMorNM"] != OVERLAP:
        mismatches.append(("overlapWithTMorNM", report["overlapWithTMorNM"]))

    ok = not mismatches
    with capsys.disabled():
        verdict(3, "annotation table reproduction", ok, "every cell exact, zero tolerance")
    assert not mismatches, mismatches


def test_4_query_engine_matches_brute_force(capsys):
    rng = random.Random(94000000)
    start = time.monotonic()
    mismatches = 0
    total = 0
    for _ in range(50):
        graphs = random_graphs(rng, n_graphs=rng.randint(1, 3), n_triples=rng.randint(1, 66))
        store = TripleStore()
        for name, triples in graphs.items():
            store.extend(name, triples)
        store.freeze()
        for _ in range(10):
            patterns = random_bgp(rng, graphs)
            if store.match(patterns) != brute_force_match(graphs, patterns):
                mismatches += 1
            total += 1
    elapsed = time.monotonic() - start

    ok = mismatches == 0 and total == 500 and elapsed < 30.0
    with capsys.disabled():
        verdict(4, "query engine vs brute force", ok,
                f"{total} BGPs, {mismatches} mismatches allowed 0, {elapsed:.2f}s < 30s")
    assert mismatches == 0
    assert total == 500
    assert elapsed < 30.0


def test_5_trigger_closure_justified(capsys):
    run_closure_check(100, seed=48012000)
    with capsys.disabled():
        verdict(5, "derived-closure justification", True, "100 random KBs, zero violations")


def _random_serializable_graph(rng: random.Random) -> list[Triple]:
    iris = [iri(f"urn:fixture:r{i}") for i in range(6)]
    blanks = [blank(f"b{i}") for i in range(4)]

    def node():
        return rng.choice(iris if rng.random() < 0.7 else blanks)

    def obj():
        roll = rng.random()
        if roll < 0.45:
            return node()
        if roll < 0.65:
            return lit(f'line {rng.randint(0, 9)}\n"with quotes"\\')
        if roll < 0.85:
            return lit(str(rng.randint(0, 99)), datatype="http://www.w3.org/2001/XMLSchema#integer")
        return lit("bonjour", lang="fr")

    return list({Triple(node(), rng.choice(iris), obj()) for _ in range(rng.randint(1, 30))})


def test_6_serialization_round_trip(capsys):
    rng = random.Random(70000000)
    failures = 0
    for case in range(100):
        triples = _random_serializable_graph(rng)
        fmt = "ntriples" if case % 2 == 0 else "turtle"
        text = serialize(triples, fmt, PREFIXES)
        if not isomorphic(triples, parse(text, fmt)):
            failures += 1
    ok = failures == 0
    with capsys.disabled():
        verdict(6, "serialize/load round trip", ok, f"100 graphs, {failures} failures allowed 0")
    assert failures == 0


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_7_determinism(tmp_path, capsys):
    tree = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, tree)
    manifest = str(tree / "manifest.cfg")
    assert cli.main(["build-kb", "--manifest", manifest]) == 0

    corpus = str(tree / "corpus" / "sentences.jsonl")
    snapshots = []
    for round_dir in ("first", "second"):
        assert cli.main(["expand", "--manifest", manifest, "--all"]) == 0
        out_dir = tmp_path / round_dir
        assert cli.main(["detect", "--manifest", manifest, "--input", corpus, "--out", str(out_dir)]) == 0
        snapshots.append((
            _snapshot(tree / "workspace" / "triggers"),
            _snapshot(tree / "workspace" / "reports"),
            _snapshot(out_dir),
        ))

    ok = snapshots[0] == snapshots[1]
    with capsys.disabled():
        verdict(7, "expand/detect determinism", ok, "byte-identical outputs across reruns")
    assert snapshots[0] == snapshots[1]


def test_8_parallel_throughput(pipeline, capsys):
    out_dir = pipeline["root"] / "detect-jobs4"
    corpus = pipeline["tree"] / "corpus" / "sentences_1k.jsonl"

    start = time.monotonic()
    rc = cli.main([
        "detect", "--manifest", pipeline["manifest"],
        "--input", str(corpus), "--out", str(out_dir), "--jobs", "4",
    ])
    elapsed = time.monotonic() - start
    assert rc == 0

    summaries = [
        json.loads(line)
        for line in (out_dir / "summary.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    graphs = sum(1 for s in summaries if not s["noGraph"])

    ok = len(summaries) == 1000 and graphs == 944 and elapsed < 10.0
    with capsys.disabled():
        verdict(8, "parallel detect throughput", ok,
                f"1000 sentences, {graphs} graphs expected 944, {elapsed:.2f}s < 10s")
    assert len(summaries) == 1000
    assert graphs == 944
    assert elapsed < 10.0
