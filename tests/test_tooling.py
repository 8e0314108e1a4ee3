"""The benchmark's tracer and the test runner agree with the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_perfbench_target_exists():
    # spans.install skips a target it cannot find, which would empty its layer metrics silently.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    code = "import spans; print(spans.install(spans.Tracer('t')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
