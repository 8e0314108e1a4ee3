"""Entry points the benchmark runs in fresh interpreters.

    probe.py setup MANIFEST [SUMMARY] [--trace OUT RUN_ID]
        Time load_manifest -> load_workspace -> load_trigger_graphs -> freeze
        -> Detector(...), the set-up every command and every --jobs worker
        pays. Report it with the store size and the resident memory the load
        added. Given a detect summary, also check that every link of every
        activation chain in it is a triple of the loaded store.

    probe.py cli OUT RUN_ID ARGS...
        Run `folkgraph ARGS...` in this process with spans recorded, and
        write them to OUT.

Both print one JSON object on stdout and exit with the command's code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _bad_links(store, prefixes, summary_path: str) -> tuple[int, list[str]]:
    from folkgraph import vocab
    from folkgraph.terms import Triple

    predicates = {"evokes": vocab.EVOKES, "triggers": vocab.TRIGGERS}
    graphs = list(store.graphs.values())
    checked, bad = 0, []
    with open(summary_path, encoding="utf-8") as handle:
        for line in handle:
            for path in json.loads(line)["paths"]:
                chain = path["chain"]
                for i in range(0, len(chain) - 2, 2):
                    link = Triple(
                        prefixes.expand(chain[i]), predicates[chain[i + 1]], prefixes.expand(chain[i + 2])
                    )
                    checked += 1
                    if not any(link in graph for graph in graphs):
                        bad.append(" ".join(chain[i : i + 3]))
    return checked, bad


def setup(manifest_path: str, summary_path: str | None) -> int:
    from folkgraph import detector, manifest

    before = _resident_bytes()
    start = time.perf_counter()
    loaded = manifest.load_manifest(manifest_path)
    workspace = manifest.workspace_dir(manifest_path)
    store, lexicon, _ = manifest.load_workspace(workspace)
    manifest.load_trigger_graphs(store, workspace)
    store.freeze()
    detector.Detector(store, lexicon, loaded.detector_mode)
    elapsed = time.perf_counter() - start
    report = {"setup_s": elapsed, "triples": len(store), "rss_bytes": _resident_bytes() - before}
    if summary_path:
        report["links"], report["bad_links"] = _bad_links(store, loaded.prefixes, summary_path)
    print(json.dumps(report))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    tracer = None
    if mode == "cli":
        out, run_id, rest = rest[0], rest[1], rest[2:]
    elif "--trace" in rest:
        at = rest.index("--trace")
        out, run_id = rest[at + 1], rest[at + 2]
        rest = rest[:at]
    else:
        out = None
    if out is not None:
        import spans

        tracer = spans.Tracer(run_id)
        missing = spans.install(tracer)
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
    try:
        if mode == "cli":
            from folkgraph import cli

            code = cli.main(rest)
        elif mode == "setup":
            code = setup(rest[0], rest[1] if len(rest) > 1 else None)
        else:
            print(f"unknown probe mode {mode!r}", file=sys.stderr)
            return 2
    finally:
        if tracer is not None:
            tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
