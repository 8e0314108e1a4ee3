#!/usr/bin/env python3
"""Offline benchmark of the folkgraph pipeline.

    python3 perfbench/run.py --workload fixture|corpus|kb-scale --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed (see workloads.py). The
benchmark then runs the real CLI from this checkout's ``src/`` in fresh
processes, one command at a time (a closed loop with one client):
``build-kb``, ``expand --all``, ``detect --jobs 1``, ``detect --jobs N``
(N = the CPUs this process may use), a set-up probe and ``eval``. It repeats
that pipeline until S seconds have passed and reports medians. Workspace and
outputs go under ``.perfbench_work/`` in the checkout.

Every output is checked: every input sentence appears exactly once in
``summary.jsonl``, the summary is byte-identical across ``--jobs`` values,
iterations and runs with the same seed, every activation-chain link is a
store triple, and ``eval`` totals match the fixture's shipped tables or a
recount from the generated annotations. A command fails on a non-zero exit
or a failed check; a sentence fails when missing, duplicated or (``corpus``)
detected with other values than the generator put in it.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates an untraced pipeline with one whose commands record spans around
folkgraph's public functions (spans.py) and reports the per-layer metrics,
each module's self time and the tracing overhead. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI = [sys.executable, "-c", "import sys; from folkgraph.cli import main; sys.exit(main())"]
PROBE = [sys.executable, str(HERE / "probe.py")]
MODULES = ("rdfio", "store", "lexicon", "values", "expansion", "detector", "evaluation", "manifest", "cli")
MIN_SETUP_SAMPLES = 3
REPEAT_UNTIL_S = 1.0
MAX_REPEATS = 5
STARTUP_SAMPLES = 5

# The shipped fixture's evaluation totals (README, acceptance criterion 3).
FIXTURE_TABLE1 = {
    "A00": (157, 63, 52, 62, 34),
    "A01": (137, 136, 53, 60, 60),
    "A02": (185, 180, 65, 75, 75),
    "A03": (302, 296, 122, 130, 130),
    "A04": (163, 163, 6, 63, 63),
}
FIXTURE_TABLE2 = {
    "totalSentences": 1000,
    "graphsProduced": 944,
    "mftAnnotated": 228,
    "thinMorality": 153,
    "nonMoral": 563,
    "detectedAny": 855,
    "overlapWithTMorNM": 635,
}
WORKED_EXAMPLE_VALUES = ["folk:Learning", "folk:Rigor", "folk:Risk", "mft:Betrayal", "mft:Loyalty"]


class Run:
    """One benchmark run: the commands it spawns, their checks and failure counts."""

    def __init__(self, workload: workloads.Workload, work: Path, jobs: int, seed: int):
        self.w = workload
        self.work = work
        self.jobs = jobs
        self.key = f"{workload.name}:{seed}:{tree_digest(workload.manifest.parent)}"
        self.pass_dir = work / "pass"
        self.workspace = self.pass_dir / "workspace-0"  # where the setup probe and worked example read
        (work / "logs").mkdir()
        pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        self.sentences = [sid for sid, _ in workloads.read_jsonl(workload.detect_input)]
        self.plans = sum(1 for line in workload.manifest.read_text(encoding="utf-8").splitlines()
                         if line.split("=")[0].strip() == "plan")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.eval_detections: Path | None = None
        self.spawned = 0
        self.probes = 0

    # -- processes ---------------------------------------------------------------

    def spawn(self, argv: list[str], label: str, workspace: Path | None = None) -> tuple[int, float, float, str]:
        """Run one command to completion: exit code, wall seconds, peak RSS in MB, stdout."""
        self.spawned += 1
        out_path = self.work / "logs" / f"stdout-{self.spawned}.txt"
        err_path = self.work / "logs" / f"stderr-{self.spawned}.txt"
        env = dict(self.env, FOLKGRAPH_WORKSPACE=str(workspace or self.workspace))
        with out_path.open("w") as out, err_path.open("w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8")
        if code != 0:
            tail = err_path.read_text(encoding="utf-8").strip().splitlines()[-1:]
            self.fail(label, f"exit {code} {' '.join(tail)}")
        return code, wall, usage.ru_maxrss / 1024, stdout

    def command(self, label: str, args: list[str], workspace: Path, trace: Path | None = None):
        self.attempted += 1
        argv = CLI + args if trace is None else PROBE + ["cli", str(trace), f"{self.key}:{label}"] + args
        return self.spawn(argv, label, workspace)

    def probe_setup(self, summary: Path | None, trace: Path | None = None) -> dict | None:
        self.attempted += 1
        self.probes += 1
        argv = PROBE + ["setup", str(self.w.manifest)] + ([str(summary)] if summary else [])
        if trace is not None:
            argv += ["--trace", str(trace), f"{self.key}:setup"]
        code, _, _, stdout = self.spawn(argv, "setup probe")
        if code != 0:
            return None
        report = json.loads(stdout.strip().splitlines()[-1])
        if report.get("bad_links"):
            self.fail("activation chains", f"{len(report['bad_links'])} links not in the store, "
                      f"e.g. {report['bad_links'][0]}")
        return report

    def fail(self, what: str, why: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(f"{what}: {why}")

    # -- checks ------------------------------------------------------------------

    def check_summary(self, out_dir: Path, label: str, stdout: str) -> str | None:
        """Count missing/duplicated sentences and other output faults; return the summary digest."""
        summary = out_dir / "summary.jsonl"
        if not summary.is_file():
            self.fail(label, "no summary.jsonl", len(self.sentences))
            return None
        data = summary.read_bytes()
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        seen = Counter(r["id"] for r in records)
        bad = sum(1 for sid in self.sentences if seen[sid] != 1)
        if bad or len(records) != len(self.sentences):
            self.fail(label, f"{bad} sentences missing or duplicated, {len(records)} records", max(bad, 1))
        graphs = sum(1 for r in records if not r["noGraph"])
        files = sum(1 for p in out_dir.iterdir() if p.suffix == ".nt")
        if f"graphs: {graphs} " not in stdout or files != graphs:
            self.fail(label, f"{graphs} graphs in summary, {files} graph files, stdout {stdout.strip()!r}")
        if self.w.expected_values is not None:
            wrong = [r["id"] for r in records if r["values"] != self.w.expected_values.get(r["id"])]
            if wrong:
                self.fail(label, f"{len(wrong)} sentences detect other values than generated, "
                          f"e.g. {wrong[0]}", len(wrong))
        return hashlib.sha256(data).hexdigest()

    def check_identical(self, digest: str | None, label: str) -> None:
        if digest is None:
            return
        if self.digest is None:
            self.digest = digest
            self.check_against_earlier_runs(digest)
        elif digest != self.digest:
            self.fail(label, "summary.jsonl differs from the first detect of this run")

    def check_against_earlier_runs(self, digest: str) -> None:
        path = self.work.parent / "digests.json"
        known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        if known.setdefault(self.key, digest) != digest:
            self.fail("detect", f"summary.jsonl differs from an earlier run on the same inputs ({self.key})")
        path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")

    def check_eval(self, workspace: Path, detections: Path) -> None:
        report_path = workspace / "eval" / "report.json"
        if not report_path.is_file():
            self.fail("eval", "no report.json")
            return
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if self.w.name == "fixture":
            expected = dict(FIXTURE_TABLE2)
            got = {key: report.get(key) for key in expected}
            for annotator, cells in FIXTURE_TABLE1.items():
                row = report["perAnnotator"].get(annotator, {})
                expected[annotator] = cells
                got[annotator] = tuple(row.get(k) for k in ("tot", "totNC", "agree", "agreeTM", "agreeTMNC"))
        else:
            expected = recount(self.w.annotations, detections)
            got = {key: report.get(key) for key in expected}
        if got != expected:
            diff = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
            self.fail("eval", f"tables differ (got, expected): {diff}")

    def check_worked_example(self) -> None:
        example = self.w.manifest.parent / "corpus" / "worked_example.jsonl"
        out_dir = self.work / "out-example"
        code, _, _, _ = self.command("detect worked example",
                                     ["detect", "--manifest", str(self.w.manifest),
                                      "--input", str(example), "--out", str(out_dir)], self.workspace)
        if code == 0:
            values = json.loads((out_dir / "summary.jsonl").read_text(encoding="utf-8"))["values"]
            if values != WORKED_EXAMPLE_VALUES:
                self.fail("worked example", f"values {values}")

    # -- one pass of the pipeline -----------------------------------------------------

    def pipeline(self, traced: bool, tag: str) -> tuple[dict, dict]:
        """Run every command once; return end-to-end samples and per-command trace files.

        Untraced, commands shorter than REPEAT_UNTIL_S run again, up to
        MAX_REPEATS times, and the pass keeps their median. Every run writes
        into directories no earlier run wrote to: on ext4, truncating and
        rewriting an existing file forces writeback on close, which made a
        repeated build-kb vary between 0.07 and 0.7 s.
        """
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir = self.work / f"pass-{tag}"
        self.pass_dir.mkdir()
        manifest = str(self.w.manifest)
        traces = {}

        def trace(name):
            if not traced:
                return None
            traces[name] = self.pass_dir / f"trace-{name}.json"
            return traces[name]

        def build_and_expand(workspace: Path) -> tuple[float, float, int]:
            code, build_s, _, stdout = self.command(
                "build-kb", ["build-kb", "--manifest", manifest], workspace, trace("build-kb"))
            if code == 0 and " triples: " not in stdout:
                self.fail("build-kb", f"unexpected output {stdout!r}")
            written = sum(p.stat().st_size for p in workspace.rglob("*") if p.is_file())
            code, expand_s, _, stdout = self.command(
                "expand", ["expand", "--manifest", manifest, "--all"], workspace, trace("expand"))
            if code == 0 and f"plans run: {self.plans}" not in stdout:
                self.fail("expand", f"expected {self.plans} plans, got {stdout.strip().splitlines()[-1:]}")
            return build_s, expand_s, written

        builds = [build_and_expand(self.pass_dir / "workspace-0")]
        while not traced and sum(b + e for b, e, _ in builds) < REPEAT_UNTIL_S and len(builds) < MAX_REPEATS:
            builds.append(build_and_expand(self.pass_dir / f"workspace-{len(builds)}"))
        self.workspace = workspace = self.pass_dir / "workspace-0"
        sample = {
            "build_kb_s": statistics.median(b for b, _, _ in builds),
            "expand_s": statistics.median(e for _, e, _ in builds),
            "workspace_bytes": builds[0][2],
        }
        wall = sample["wall"] = {"build-kb": builds[0][0], "expand": builds[0][1]}  # for the tracing overhead

        out1 = self.pass_dir / "out-j1"
        code, wall["detect"], sample["peak_rss_mb"], stdout = self.command(
            "detect --jobs 1", ["detect", "--manifest", manifest, "--input", str(self.w.detect_input),
                                "--out", str(out1), "--jobs", "1"], workspace, trace("detect"))
        self.attempted += len(self.sentences)
        sample["detect_j1_sps"] = len(self.sentences) / wall["detect"]
        self.check_identical(self.check_summary(out1, "detect --jobs 1", stdout), "detect --jobs 1")

        if not traced:
            outn = self.pass_dir / "out-jn"
            label = f"detect --jobs {self.jobs}"
            code, seconds, _, stdout = self.command(
                label, ["detect", "--manifest", manifest, "--input", str(self.w.detect_input),
                        "--out", str(outn), "--jobs", str(self.jobs)], workspace)
            self.attempted += len(self.sentences)
            sample["detect_jN_sps"] = len(self.sentences) / seconds
            self.check_identical(self.check_summary(outn, label, stdout), label)

        probes = [self.probe_setup(None if traced else out1 / "summary.jsonl", trace("setup"))]
        while not traced and probes[-1] is not None and (
            sum(p["setup_s"] for p in probes) < REPEAT_UNTIL_S and len(probes) < MAX_REPEATS
        ):
            probes.append(self.probe_setup(None))
        probes = [p for p in probes if p is not None]
        if probes:
            sample["setup_s"] = statistics.median(p["setup_s"] for p in probes)
            sample["bytes_per_triple"] = statistics.median(p["rss_bytes"] / p["triples"] for p in probes)

        # eval reads no workspace file; each run writes its tables into a new one.
        detections = self.eval_input_detections(out1)
        evals = []
        while not evals or not traced and sum(evals) < REPEAT_UNTIL_S and len(evals) < MAX_REPEATS:
            target = self.pass_dir / f"eval-{len(evals)}"
            code, seconds, _, _ = self.command(
                "eval", ["eval", "--manifest", manifest, "--detections", str(detections)], target, trace("eval"))
            if code == 0:
                self.check_eval(target, detections)
            evals.append(seconds)
        sample["eval_s"] = statistics.median(evals)
        wall["eval"] = evals[0]
        return sample, traces

    def eval_input_detections(self, out1: Path) -> Path:
        """Detections `eval` reads; the fixture annotates another corpus than it times."""
        if self.w.eval_input == self.w.detect_input:
            return out1 / "summary.jsonl"
        if self.eval_detections is None:
            out_dir = self.work / "out-eval"
            self.command("detect eval corpus", ["detect", "--manifest", str(self.w.manifest),
                                                "--input", str(self.w.eval_input), "--out", str(out_dir)], self.workspace)
            self.eval_detections = out_dir / "summary.jsonl"
        return self.eval_detections

    def startup_s(self) -> float:
        samples = []
        for _ in range(STARTUP_SAMPLES):
            self.attempted += 1
            code, wall, _, _ = self.spawn([sys.executable, "-c", "import folkgraph.cli"], "startup")
            samples.append(wall)
        return statistics.median(samples)


# -- metrics ---------------------------------------------------------------------------


def tree_digest(directory: Path) -> str:
    """Short digest of every input file under ``directory``, workspaces excluded."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "workspace" not in path.relative_to(directory).parts:
            digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def recount(annotations: Path, detections: Path) -> dict:
    """Coverage totals recounted from the annotation rows and the detect summary."""
    records = {}
    for line in detections.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        records[record["id"]] = record
    total = graphs = detected = 0
    with annotations.open(encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            total += 1
            record = records[row["id"]]
            graphs += not record["noGraph"]
            detected += (not record["noGraph"]) and bool(record["values"])
    return {"totalSentences": total, "graphsProduced": graphs, "detectedAny": detected}


def end_to_end(samples: list[dict]) -> dict:
    names = ("setup_s", "build_kb_s", "expand_s", "detect_j1_sps", "detect_jN_sps", "eval_s", "peak_rss_mb")
    return {name: statistics.median(s[name] for s in samples if name in s) for name in names
            if any(name in s for s in samples)}


def merge_traces(paths: dict) -> tuple[dict, dict]:
    """Sum calls, times and counters over the traced commands of one pipeline pass."""
    merged = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(), "counters": Counter()}
    per_command = {}
    for command, path in paths.items():
        if not path.is_file():
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        per_command[command] = data
        for key in merged:
            merged[key].update(data[key])
    return merged, per_command


def layer_metrics(untraced: dict, traced: dict, traces: dict, startup_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus the raw trace of each traced command."""
    merged, per_command = merge_traces(traces)
    total, calls, self_s, counts = merged["total_s"], merged["calls"], merged["self_s"], merged["counters"]
    detect = per_command.get("detect", {"spans": [], "counters": {}})
    sentence_ms = sorted((span[5] - span[4]) * 1000 for span in detect["spans"] if span[3] == "detector.run")
    sentences = max(counts["detector.sentences"], 1)
    candidates = counts["expansion.candidates"]
    metrics = {
        "rdfio.parse_s": total["rdfio.parse"],
        "rdfio.parse_triples_per_s": counts["rdfio.triples_parsed"] / max(total["rdfio.parse"], 1e-9),
        "rdfio.serialize_s": total["rdfio.serialize"],
        "store.extend_s": total["store.extend"],
        "store.match_calls": calls["store.match"],
        "store.match_s": total["store.match"],
        "store.bytes_per_triple": untraced.get("bytes_per_triple", 0.0),
        "lexicon.build_s": total["lexicon.build"],
        "lexicon.multiwords": detect["counters"].get("lexicon.multiwords", 0),
        "lexicon.oov_unit_ratio": counts["lexicon.oov_units"] / max(counts["lexicon.units"], 1),
        "values.build_s": total["values.load_manifest"] + total["values.build_model"] + total["values.module_graphs"],
        "expansion.run_plan_s": total["expansion.run_plan"],
        "expansion.candidates": candidates,
        "expansion.accepted_ratio": counts["expansion.accepted"] / max(candidates, 1),
        "detector.init_s": total["detector.init"],
        "detector.analyze_s": total["detector.analyze"],
        "detector.activation_s": total["detector.activation"],
        "detector.stance_s": total["detector.stance"],
        "detector.summary_s": total["detector.summary"],
        "detector.sentence_ms.p50": percentile(sentence_ms, 0.50),
        "detector.sentence_ms.p99": percentile(sentence_ms, 0.99),
        "detector.nodes_per_sentence": counts["detector.nodes"] / sentences,
        "detector.paths_per_sentence": counts["detector.paths"] / sentences,
        "evaluation.load_s": total["evaluation.load_label_map"] + total["evaluation.load_corpus"]
        + total["evaluation.load_detections"],
        "evaluation.stats_s": self_s["evaluation.coverage_stats"] + self_s["evaluation.annotator_stats"],
        "manifest.load_workspace_s": total["manifest.load_workspace"],
        "manifest.load_triggers_s": total["manifest.load_triggers"],
        "manifest.build_workspace_s": total["manifest.build_workspace"],
        "manifest.bytes_written": untraced["workspace_bytes"],
        "cli.startup_s": startup_s,
        "cli.write_s": total["cli.write"],
        "cli.files_written": calls["cli.write"],
        "cli.jobs_speedup": untraced["detect_jN_sps"] / untraced["detect_j1_sps"],
        "trace.overhead_ratio": sum(traced["wall"].values()) / sum(untraced["wall"].values()) - 1,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
    return metrics, per_command


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


# -- reporting -----------------------------------------------------------------------


def output_location(path: Path) -> str:
    """The file system type and mount point holding ``path``, from /proc/mounts."""
    best = ("?", "")
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best[1]):
                    best = (fstype, mount)
    except OSError:
        pass
    return f"{path} ({best[0]} at {best[1] or '?'})"


def stage_lines(per_command: dict) -> list[str]:
    lines = []
    for command, data in per_command.items():
        top = sorted(data["self_s"].items(), key=lambda kv: -kv[1])[:6]
        lines.append(f"  {command:9s} " + "  ".join(f"{name} {value:.4f}s" for name, value in top))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "folkgraph" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no folkgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    jobs = len(os.sched_getaffinity(0))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.generate(args.workload, args.seed, ROOT, work / "inputs")
        run = Run(workload, work, jobs, args.seed)
        started = time.monotonic()
        samples, layer_samples, per_command = [], [], {}
        passes = 0
        while not samples or time.monotonic() - started < args.seconds:
            passes += 1
            sample, _ = run.pipeline(False, f"u{passes}")
            if not samples and workload.name == "fixture":
                run.check_worked_example()
            samples.append(sample)
            if args.trace:
                traced, traces = run.pipeline(True, f"t{passes}")
                metrics, per_command = layer_metrics(sample, traced, traces, run.startup_s())
                layer_samples.append(metrics)
        while not args.trace and sum("setup_s" in s for s in samples) < MIN_SETUP_SAMPLES:
            probe = run.probe_setup(None)
            if probe is None:
                break
            samples.append({"setup_s": probe["setup_s"]})

        values = end_to_end(samples)
        if args.trace:
            values = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
        print(f"workload {workload.name} seed {args.seed}: {json.dumps(workload.sizes, sort_keys=True)}")
        print(f"python {sys.version.split()[0]}, nproc {jobs}, detect --jobs {jobs}, "
              f"outputs in {output_location(work)}")
        print(f"pipeline passes: {passes}{' untraced + traced' if args.trace else ''}; "
              f"set-up probes: {run.probes}")
        if per_command:
            print("largest self times per traced command (last pass):")
            print("\n".join(stage_lines(per_command)))
        for metric in wanted:
            print(f"  {metric['name']:34s} {values.get(metric['name'], 0.0):14.6g} {metric['unit']}")
        print(f"  {'failed_ops_ratio':34s} {run.failed / max(run.attempted, 1):14.6g} ratio "
              f"({run.failed} of {run.attempted} operations)")
        for problem in run.problems[:20]:
            print(f"FAILED {problem}")
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
