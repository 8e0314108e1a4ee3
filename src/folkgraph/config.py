"""Line reader shared by the pipeline's small text config files.

Manifests, plans, selections, prefix tables, label maps and merge overrides
all hold one entry per line. ``#`` starts a comment only at the start of a
line or after whitespace, so a namespace such as ``...22-rdf-syntax-ns#``
keeps its ``#``.
"""

from __future__ import annotations

import re
from pathlib import Path

_COMMENT = re.compile(r"(?:^|\s)#.*")


def config_lines(path: str | Path) -> list[str]:
    """The non-blank lines of a config file, comments removed and stripped."""
    lines = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = _COMMENT.sub("", raw, count=1).strip()
        if line:
            lines.append(line)
    return lines


def config_pairs(
    path: str | Path, error: type[Exception], what: str, separator: str = "="
) -> list[tuple[str, str]]:
    """``key <separator> value`` lines as stripped pairs; a line without the
    separator raises ``error`` naming ``what`` the line should have been."""
    pairs = []
    for line in config_lines(path):
        key, found, value = line.partition(separator)
        if not found:
            raise error(f"{path}: malformed {what}: {line!r}")
        pairs.append((key.strip(), value.strip()))
    return pairs
