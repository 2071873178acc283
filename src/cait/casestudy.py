"""Developmental aggregation of construction labels.

Groups tagged utterances into fixed-width child-age bins (half-open
intervals, floor binning) split by speaker, derives proportion curves,
and exports a long-format CSV ready for plotting. The clausal view drops
FOR, FRA and X and renormalizes over the remaining seven categories.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

from .conllu import Sentence, SpeakerRole, _lines
from .cxntag import CxnLabel

__all__ = [
    "NONCLAUSAL_LABELS",
    "BinnedDistribution",
    "AgeBinning",
    "bin_by_age",
    "clausal_proportions",
    "emit_curves",
    "read_curves",
]

NONCLAUSAL_LABELS = frozenset({CxnLabel.FOR, CxnLabel.FRA, CxnLabel.X})


@dataclass
class BinnedDistribution:
    bin_start_months: int
    bin_width_months: int
    speaker: SpeakerRole
    counts: dict[CxnLabel, int] = field(default_factory=dict)

    @property
    def n_utterances(self) -> int:
        return sum(self.counts.values())


@dataclass
class AgeBinning:
    bins: list[BinnedDistribution]
    unbinned: int  # utterances lacking an age or a CS/CDS speaker


def bin_by_age(
    labeled: Iterable[tuple[Sentence, CxnLabel]], width_months: int = 3
) -> AgeBinning:
    """One distribution per (floor(age/width), speaker) cell.

    Utterances without an age, or with a speaker outside CS/CDS, are
    counted in the unbinned remainder rather than silently dropped, so
    bins plus remainder always partition the input.
    """
    if width_months < 1:
        raise ValueError("bin width must be >= 1 month")
    cells: dict[tuple[int, SpeakerRole], BinnedDistribution] = {}
    unbinned = 0
    for sentence, label in labeled:
        age = sentence.child_age_months
        role = sentence.speaker_role
        if age is None or role not in (SpeakerRole.CS, SpeakerRole.CDS):
            unbinned += 1
            continue
        start = int(age // width_months) * width_months
        cell = cells.get((start, role))
        if cell is None:
            cell = BinnedDistribution(start, width_months, role)
            cells[(start, role)] = cell
        cell.counts[label] = cell.counts.get(label, 0) + 1
    ordered = [cells[k] for k in sorted(cells, key=lambda k: (k[0], k[1].value))]
    return AgeBinning(ordered, unbinned)


def clausal_proportions(
    dist: BinnedDistribution, include_nonclausal: bool = False
) -> dict[CxnLabel, float]:
    """Proportions per label; the clausal view excludes FOR/FRA/X and
    renormalizes. Empty mapping when nothing remains after exclusion."""
    counts = {
        label: count
        for label, count in dist.counts.items()
        if include_nonclausal or label not in NONCLAUSAL_LABELS
    }
    total = sum(counts.values())
    if total == 0:
        return {}
    return {label: count / total for label, count in counts.items()}


# Each column of the curves CSV, with how ``read_curves`` parses it.
_CURVE_FIELDS = {"bin_start": int, "speaker": SpeakerRole, "label": CxnLabel,
                 "count": int, "proportion": float, "n_utterances": int}


def emit_curves(
    bins: Sequence[BinnedDistribution], sink: IO, include_nonclausal: bool = True
) -> None:
    """Long-format CSV, rows ordered by (bin, speaker, label); proportions
    follow the chosen view and its denominator."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(_CURVE_FIELDS)
    ordered = sorted(bins, key=lambda b: (b.bin_start_months, b.speaker.value))
    for dist in ordered:
        props = clausal_proportions(dist, include_nonclausal)
        denominator = sum(dist.counts[label] for label in props)
        for label in sorted(props, key=lambda l: l.value):
            writer.writerow(
                [
                    dist.bin_start_months,
                    dist.speaker.value,
                    label.value,
                    dist.counts[label],
                    f"{props[label]:.6f}",
                    denominator,
                ]
            )


def read_curves(source: str | Path | bytes | IO) -> list[dict]:
    """Parse a curves CSV, read through the CoNLL-U reader's ``_lines``, back
    into row dicts (counts as ints)."""
    rows = csv.DictReader(_lines(source))
    return [{name: parse(row[name]) for name, parse in _CURVE_FIELDS.items()}
            for row in rows]
