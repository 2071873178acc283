"""Output checks that do not rely on the code under test.

A small CoNLL-U reader and tree validator of the benchmark's own, plus
``Checker``, which counts checked units and failures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Block:
    comments: list[str]
    rows: list[list[str]]  # ten fields per token line

    @property
    def sent_id(self) -> str | None:
        for line in self.comments:
            key, sep, value = line[1:].partition("=")
            if sep and key.strip() == "sent_id":
                return value.strip()
        return None


def read_blocks(path: Path) -> list[Block]:
    blocks = []
    comments: list[str] = []
    rows: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        if not line:
            if comments or rows:
                blocks.append(Block(comments, rows))
            comments, rows = [], []
        elif line.startswith("#"):
            comments.append(line)
        else:
            rows.append(line.split("\t"))
    if comments or rows:
        blocks.append(Block(comments, rows))
    return blocks


def is_valid_tree(rows: list[list[str]]) -> bool:
    """Ids 1..n in order, heads in range, one root labelled ``root`` and
    no other token labelled so, and no cycles."""
    if any(len(r) != 10 for r in rows):
        return False
    try:
        ids = [int(r[0]) for r in rows]
        heads = [int(r[6]) for r in rows]
    except ValueError:
        return False
    n = len(rows)
    if n == 0 or ids != list(range(1, n + 1)):
        return False
    if any(h < 0 or h > n or h == i for i, h in zip(ids, heads)):
        return False
    if sum(h == 0 for h in heads) != 1:
        return False
    if any((h == 0) != (r[7] == "root") for h, r in zip(heads, rows)):
        return False
    for start in ids:
        seen = set()
        cur = start
        while cur != 0:
            if cur in seen:
                return False
            seen.add(cur)
            cur = heads[cur - 1]
    return True


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Checker:
    """Counts checked units.  A failure of a check marked ``known_defect``
    is counted in ``failed`` like any other but leaves ``correct`` true:
    it is a documented defect of the program that the benchmark reports
    rather than hides."""

    attempted: int = 0
    failed: int = 0
    known_defect_failed: int = 0
    correct: bool = True
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, known_defect: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if known_defect:
                self.known_defect_failed += 1
            else:
                self.correct = False
            if len(self.messages) < 20:
                self.messages.append(what + (" (known defect)" if known_defect else ""))
        return ok
