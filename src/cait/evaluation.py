"""Attachment scoring, tag accuracy, slices, significance tests and
label-level error analysis for gold/predicted treebank pairs.

Scoring follows shared-task practice: punctuation tokens are scored,
multiword ranges and empty nodes are not. Sentence length for binning
excludes punctuation. All aggregates accumulate integer counts before any
division, so results are order-independent and bitwise deterministic.
"""

from __future__ import annotations

import math
import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .conllu import ConlluError, Sentence, SpeakerRole, Token

__all__ = [
    "AlignmentError",
    "SentencePairScore",
    "SliceScore",
    "EvalReport",
    "TTestResult",
    "ConfusionMatrix",
    "DeltaMatrix",
    "Normalization",
    "ConfusionScope",
    "ErrorScope",
    "LENGTH_BINS",
    "length_bin",
    "align",
    "score_sentence",
    "aggregate",
    "evaluate_treebanks",
    "tag_accuracy",
    "paired_ttest",
    "per_label_error_rates",
    "confusion",
    "confusion_delta",
    "write_matrix_tsv",
    "reg_inc_beta",
]


class AlignmentError(ValueError):
    def __init__(self, sent_id: str, position: int, message: str):
        super().__init__(f"sentence {sent_id}, token {position}: {message}")
        self.sent_id = sent_id
        self.position = position


LENGTH_BINS: tuple[tuple[str, int, float], ...] = (
    ("<=3", 0, 3),
    ("4-6", 4, 6),
    ("7-10", 7, 10),
    (">10", 11, math.inf),
)


def length_bin(length_nopunct: int) -> str:
    for name, lo, hi in LENGTH_BINS:
        if lo <= length_nopunct <= hi:
            return name
    raise ValueError(f"negative length {length_nopunct}")


@dataclass
class SentencePairScore:
    sent_id: str
    n_scored: int
    n_head_correct: int
    n_las_correct: int
    exact: bool
    unlabeled_exact: bool
    speaker_role: SpeakerRole
    length_nopunct: int


class SliceScore(NamedTuple):
    las: float
    uas: float
    n_sentences: int


class ErrorScope(Enum):
    LAS = "las"          # wrong head or wrong label counts as an error
    LABEL_ONLY = "label"  # only a wrong label counts


class ConfusionScope(Enum):
    LABEL_ONLY = "label"   # every aligned token contributes
    LAS_ERRORS = "las"     # only LAS-incorrect tokens contribute


@dataclass
class EvalReport:
    las: float
    uas: float
    em: float
    uem: float
    upos_acc: float | None = None
    xpos_acc: float | None = None
    # filled by ``aggregate`` and ``evaluate_treebanks``; ``cait eval`` keeps none
    per_sentence: list[SentencePairScore] = field(default_factory=list)
    slices: dict[str, SliceScore] = field(default_factory=dict)
    # (gold deprel, predicted deprel, head correct) -> aligned tokens
    deprel_counts: Counter[tuple[str, str, bool]] = field(
        default_factory=Counter, compare=False, repr=False
    )

    def per_label_error_rates(
        self, min_gold: int = 100, scope: ErrorScope = ErrorScope.LAS
    ) -> dict[str, float]:
        """``per_label_error_rates`` of the scored treebanks."""
        _check_min_gold(min_gold)
        return _error_rates(self.deprel_counts, min_gold, scope)

    def confusion(
        self, scope: ConfusionScope = ConfusionScope.LABEL_ONLY
    ) -> ConfusionMatrix:
        """``confusion`` of the scored treebanks."""
        return _confusion(self.deprel_counts, scope)


@dataclass
class TTestResult:
    n: int
    mean_diff: float
    t_stat: float
    p_value: float
    df: int
    degenerate: bool = False


def _norm_form(form: str) -> str:
    return unicodedata.normalize("NFC", "".join(form.split()))


_Pairs = list[tuple[Token, Token]]


def align(gold: Sentence, pred: Sentence) -> _Pairs:
    """Pair syntactic words positionally; MWT ranges and empty nodes are
    not part of the token sequence and therefore never scored."""
    if len(gold.tokens) != len(pred.tokens):
        raise AlignmentError(
            gold.sent_id,
            min(len(gold.tokens), len(pred.tokens)) + 1,
            f"token counts differ ({len(gold.tokens)} gold vs {len(pred.tokens)} predicted)",
        )
    pairs = []
    for i, (g, p) in enumerate(zip(gold.tokens, pred.tokens), 1):
        if g.form != p.form and _norm_form(g.form) != _norm_form(p.form):
            raise AlignmentError(
                gold.sent_id, i, f"forms differ ({g.form!r} vs {p.form!r})"
            )
        pairs.append((g, p))
    return pairs


def score_sentence(
    gold: Sentence, pred: Sentence, *, universal_deprel_only: bool = False
) -> SentencePairScore:
    """Count head-correct and label-and-head-correct tokens in one walk.

    Deprel comparison is exact including subtypes unless
    ``universal_deprel_only`` is set. Punctuation is scored; it is only
    excluded from ``length_nopunct``.
    """
    return _Tally(keep_scores=True).fold(gold, align(gold, pred), universal_deprel_only)


def aggregate(scores: Sequence[SentencePairScore]) -> EvalReport:
    """Micro-averaged LAS/UAS over token totals plus sentence-level EM/UEM,
    with CS/CDS slices and the four length bins crossed with speaker."""
    tally = _Tally(keep_scores=True)
    for score in scores:
        tally.add(score)
    return tally.report()


def _slice(sentences: int, tokens: int, heads: int, las: int, *_: int) -> SliceScore:
    if tokens == 0:
        return SliceScore(0.0, 0.0, sentences)
    return SliceScore(100.0 * las / tokens, 100.0 * heads / tokens, sentences)


class _Tally:
    """One fold of a prediction's scored sentence pairs. ``counts`` maps
    (speaker role, length without punctuation) to sentences, tokens, correct
    heads, correct heads and labels, exact and unlabeled-exact sentences;
    ``las`` and ``uas`` are each pair's percentages, in order, for the
    t-test. ``scores`` keeps the scores themselves only if asked. ``fold``
    counts all of these, and the tag and deprel counters, in one walk."""

    def __init__(self, keep_scores: bool = False):
        self.counts: dict[tuple[SpeakerRole, int], list[int]] = {}
        self.las, self.uas = array("d"), array("d")
        self.scores: list[SentencePairScore] | None = [] if keep_scores else None
        self.agree: Counter[str] = Counter()  # tag field -> equal aligned tokens
        self.filled: Counter[str] = Counter()  # tag field -> predicted, not "_"
        self.deprels: Counter[tuple[str, str, bool]] = Counter()  # gold, pred, head ok

    def fold(
        self, gold: Sentence, pairs: _Pairs, universal_deprel_only: bool
    ) -> SentencePairScore | None:
        """Score ``gold``'s aligned pairs in one walk and fold the counts
        with the pairs' tag and deprel counts; the ``SentencePairScore`` is
        built, kept and returned only if the tally keeps scores."""
        heads = las = nopunct = upos = xpos = upos_filled = xpos_filled = 0
        deprels = self.deprels
        for g, p in pairs:
            head_ok = g.head == p.head
            if head_ok:
                heads += 1
                if universal_deprel_only:
                    las += g.deprel_base == p.deprel_base
                else:
                    las += g.deprel == p.deprel
            nopunct += g.upos != "PUNCT"
            upos += g.upos == p.upos
            xpos += g.xpos == p.xpos
            upos_filled += p.upos != "_"
            xpos_filled += p.xpos != "_"
            deprels[g.deprel, p.deprel, head_ok] += 1
        self.agree["upos"] += upos
        self.agree["xpos"] += xpos
        self.filled["upos"] += upos_filled
        self.filled["xpos"] += xpos_filled
        n = len(pairs)
        exact, unlabeled_exact = las == n, heads == n
        self._count(gold.speaker_role, nopunct, n, heads, las, exact, unlabeled_exact)
        if self.scores is None:
            return None
        score = SentencePairScore(gold.sent_id, n, heads, las, exact, unlabeled_exact,
                                  gold.speaker_role, nopunct)
        self.scores.append(score)
        return score

    def add(self, score: SentencePairScore) -> None:
        self._count(score.speaker_role, score.length_nopunct, score.n_scored,
                    score.n_head_correct, score.n_las_correct, score.exact,
                    score.unlabeled_exact)
        if self.scores is not None:
            self.scores.append(score)

    def _count(self, role: SpeakerRole, length: int, n: int, heads: int, las: int,
               exact: bool, unlabeled_exact: bool) -> None:
        cell = self.counts.setdefault((role, length), [0] * 6)
        cell[0] += 1
        cell[1] += n
        cell[2] += heads
        cell[3] += las
        cell[4] += bool(exact)
        cell[5] += bool(unlabeled_exact)
        self.las.append(100.0 * las / n if n else 100.0)
        self.uas.append(100.0 * heads / n if n else 100.0)

    def total(self, role=None, lo=-math.inf, hi=math.inf) -> tuple[int, ...]:
        """The summed counts of ``role`` (of all for None), lengths lo to hi."""
        counts = self.counts.items()
        cells = [c for (r, n), c in counts if role in (None, r) and lo <= n <= hi]
        return tuple(map(sum, zip((0,) * 6, *cells)))

    def report(self) -> EvalReport:
        """``aggregate`` of the folded scores, with the deprel counts and the
        tag accuracies of the tag fields the prediction fills."""
        if not self.counts:
            raise ValueError("cannot aggregate an empty score list")
        sentences, tokens, heads, las, exact, unlabeled_exact = self.total()
        if tokens == 0:
            raise ValueError("no scored tokens")
        roles = (SpeakerRole.CS, SpeakerRole.CDS)
        slices = {role.value: _slice(*self.total(role)) for role in roles}
        slices.update((f"{role.value}:{name}", _slice(*self.total(role, lo, hi)))
                      for role in roles for name, lo, hi in LENGTH_BINS)
        report = EvalReport(
            las=100.0 * las / tokens, uas=100.0 * heads / tokens,
            em=100.0 * exact / sentences, uem=100.0 * unlabeled_exact / sentences,
            per_sentence=self.scores or [], slices=slices, deprel_counts=self.deprels,
        )
        if self.filled["upos"]:
            report.upos_acc = 100.0 * self.agree["upos"] / tokens
        if self.filled["xpos"]:
            report.xpos_acc = 100.0 * self.agree["xpos"] / tokens
        return report


class _Stream:
    """A sentence iterable, read to its end or to its first read error,
    which is kept for ``_tally`` to raise in its turn."""

    def __init__(self, sentences: Iterable[Sentence]):
        self._sentences = iter(sentences)
        self.count = 0
        self.error: ConlluError | OSError | None = None

    def __iter__(self) -> Iterator[Sentence]:
        try:
            for sentence in self._sentences:
                self.count += 1
                yield sentence
        except (ConlluError, OSError) as exc:
            self.error = exc


def _tally(
    gold: Iterable[Sentence],
    *preds: Iterable[Sentence],
    universal_deprel_only: bool = False,
    keep_scores: bool = False,
) -> Iterator[_Tally]:
    """Yield one tally per prediction, in order. Gold and every prediction
    are read to their ends, or to their own read errors, in one lockstep
    loop, and each pair is aligned once, as it is taken, so that no
    sentence or alignment outlives its pairs; each pair's
    ``SentencePairScore`` is kept only with ``keep_scores``.

    A prediction stops scoring at its first error while the others go on.
    A gold read error is raised first; then, as each tally is taken, the
    first of its prediction's errors in this order: a read error, differing
    sentence counts, the pair's ``AlignmentError``. The order is that of
    reading gold and each prediction whole before scoring them.
    """
    golds = _Stream(gold)
    streams = [_Stream(pred) for pred in preds]
    tallies = [_Tally(keep_scores) for _ in preds]
    pair_errors: list[AlignmentError | None] = [None] * len(preds)
    for gsent, *psents in zip_longest(golds, *streams):
        for i, psent in enumerate(psents):
            if gsent is not None and psent is not None and pair_errors[i] is None:
                try:
                    tallies[i].fold(gsent, align(gsent, psent), universal_deprel_only)
                except AlignmentError as exc:
                    pair_errors[i] = exc
    if golds.error is not None:
        raise golds.error
    for stream, tally, pair_error in zip(streams, tallies, pair_errors):
        if stream.error is not None:
            raise stream.error
        if golds.count != stream.count:
            raise AlignmentError(
                "<treebank>",
                0,
                f"sentence counts differ ({golds.count} vs {stream.count})",
            )
        if pair_error is not None:
            raise pair_error
        yield tally


def tag_accuracy(
    gold: Iterable[Sentence], pred: Iterable[Sentence], tagfield: str = "upos"
) -> float:
    """Percentage of aligned tokens whose UPOS (or XPOS) values are equal."""
    if tagfield not in ("upos", "xpos"):
        raise ValueError(f"tagfield must be 'upos' or 'xpos', got {tagfield!r}")
    tally = next(_tally(gold, pred))
    tokens = tally.total()[1]
    if tokens == 0:
        raise ValueError("no tokens to score")
    return 100.0 * tally.agree[tagfield] / tokens


def evaluate_treebanks(
    gold: Iterable[Sentence],
    pred: Iterable[Sentence],
    *,
    universal_deprel_only: bool = False,
) -> EvalReport:
    """Score every sentence pair and aggregate, adding tag accuracies when
    the prediction carries any POS annotation. The report also carries the
    deprel counts behind its ``per_label_error_rates`` and ``confusion``.

    ``gold`` and ``pred`` are treebanks or any sentence iterables, such as
    two ``iter_sentences`` streams, which are read in lockstep."""
    tallies = _tally(
        gold, pred, universal_deprel_only=universal_deprel_only, keep_scores=True
    )
    return next(tallies).report()


# ---------------------------------------------------------------------------
# Paired t-test (no statistics dependency; the test suite checks this
# against a numerically integrated Student-t density)
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float, tol: float = 1e-12) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided paired Student t-test over elementwise differences.

    Zero-variance differences: zero mean gives t=0, p=1; non-zero mean
    gives p=0 with the ``degenerate`` flag set (infinite t).
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 observations")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    ss = sum((d - mean) ** 2 for d in diffs)
    df = n - 1
    if ss == 0.0:
        if mean == 0.0:
            return TTestResult(n, 0.0, 0.0, 1.0, df)
        return TTestResult(n, mean, math.copysign(math.inf, mean), 0.0, df, True)
    sd = math.sqrt(ss / df)
    t = mean / (sd / math.sqrt(n))
    p = reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(n, mean, t, min(1.0, p), df)


# ---------------------------------------------------------------------------
# Error analysis
# ---------------------------------------------------------------------------

def per_label_error_rates(
    gold: Iterable[Sentence],
    pred: Iterable[Sentence],
    min_gold: int = 100,
    scope: ErrorScope = ErrorScope.LAS,
) -> dict[str, float]:
    """Error rate per gold deprel, normalized by gold label frequency;
    labels with fewer than ``min_gold`` gold instances are omitted."""
    _check_min_gold(min_gold)  # before any sentence is read
    return _error_rates(next(_tally(gold, pred)).deprels, min_gold, scope)


def _check_min_gold(min_gold: int) -> None:
    if min_gold < 1:
        raise ValueError("min_gold must be >= 1")


def _error_rates(
    deprels: Counter[tuple[str, str, bool]], min_gold: int, scope: ErrorScope
) -> dict[str, float]:
    freq: Counter[str] = Counter()
    errors: Counter[str] = Counter()
    for (g, p, head_ok), count in deprels.items():
        freq[g] += count
        if g != p or (scope is ErrorScope.LAS and not head_ok):
            errors[g] += count
    return {
        label: errors[label] / count
        for label, count in sorted(freq.items())
        if count >= min_gold
    }


class Normalization(Enum):
    RAW = "raw"
    ROW_NORMALIZED = "row_normalized"


@dataclass
class ConfusionMatrix:
    """Gold-by-predicted deprel cells over ``labels``, one row per gold
    label: ``int`` counts, or ``float`` shares of their row once
    row-normalized. ``np.array(m.counts)`` gives an array."""

    labels: list[str]
    counts: list[list[int]] | list[list[float]]
    normalization: Normalization = Normalization.RAW

    def row_normalized(self) -> ConfusionMatrix:
        """Each row over its sum; a row summing to 0 stays all zeros."""
        rows = [
            [count / total for count in row] if (total := sum(row)) else [0.0] * len(row)
            for row in self.counts
        ]
        return ConfusionMatrix(list(self.labels), rows, Normalization.ROW_NORMALIZED)


@dataclass
class DeltaMatrix:
    labels: list[str]
    values: list[list[float]]


def confusion(
    gold: Iterable[Sentence],
    pred: Iterable[Sentence],
    scope: ConfusionScope = ConfusionScope.LABEL_ONLY,
) -> ConfusionMatrix:
    """Gold-by-predicted deprel counts over aligned tokens."""
    return _confusion(next(_tally(gold, pred)).deprels, scope)


def _confusion(
    deprels: Counter[tuple[str, str, bool]], scope: ConfusionScope
) -> ConfusionMatrix:
    kept = [
        (g, p, count)
        for (g, p, head_ok), count in deprels.items()
        if not (scope is ConfusionScope.LAS_ERRORS and head_ok and g == p)
    ]
    labels = sorted({label for g, p, _ in kept for label in (g, p)})
    index = {label: i for i, label in enumerate(labels)}
    rows = [[0] * len(labels) for _ in labels]
    for g, p, count in kept:
        rows[index[g]][index[p]] += count
    return ConfusionMatrix(labels, rows)


def confusion_delta(a: ConfusionMatrix, b: ConfusionMatrix) -> DeltaMatrix:
    """Elementwise a - b over the union label set (missing labels are
    zero-padded); positive cells mean ``a`` errs more."""
    if a.normalization is not Normalization.ROW_NORMALIZED:
        raise ValueError("matrix a must be row-normalized")
    if b.normalization is not Normalization.ROW_NORMALIZED:
        raise ValueError("matrix b must be row-normalized")
    labels = sorted(set(a.labels) | set(b.labels))

    def cells(m: ConfusionMatrix) -> dict[tuple[str, str], float]:
        return {(g, p): value for g, row in zip(m.labels, m.counts)
                for p, value in zip(m.labels, row)}

    ca, cb = cells(a), cells(b)
    return DeltaMatrix(labels, [
        [ca.get((g, p), 0.0) - cb.get((g, p), 0.0) for p in labels] for g in labels
    ])


def write_matrix_tsv(
    labels: Sequence[str],
    values: Sequence[Sequence[float]],
    sink: IO,
    digits: int = 4,
) -> None:
    """TSV with a header row/column of labels; cells with fixed decimals,
    or as integers when every cell is an ``int``."""
    integral = all(type(v) is int for row in values for v in row)
    sink.write("\t" + "\t".join(labels) + "\n")
    for i, label in enumerate(labels):
        row = values[i]
        cells = [str(v) for v in row] if integral else [f"{v:.{digits}f}" for v in row]
        sink.write(label + "\t" + "\t".join(cells) + "\n")
