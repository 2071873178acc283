"""Gold-annotation inconsistency linting.

Two patterns known to contaminate child-interaction treebanks: possessive
pronouns attached as ``det`` instead of ``nmod:poss``, and noun-premodifying
nouns attached as ``nmod`` instead of ``compound``. The linter only
suggests; rewriting happens in ``apply_fixes``. Rates are token-level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

from .conllu import Sentence, Token, Treebank

__all__ = ["LintRule", "LintFinding", "LintReport", "lint_all", "apply_fixes"]


class LintRule(Enum):
    POSS_AS_DET = "POSS_AS_DET"
    NN_AS_NMOD = "NN_AS_NMOD"


@dataclass(frozen=True)
class LintFinding:
    sent_id: str
    token_id: int
    rule: LintRule
    gold_deprel: str
    suggested_deprel: str
    context: str


@dataclass
class LintReport:
    rule: LintRule
    findings: list[LintFinding] = field(default_factory=list)
    n_flagged: int = 0
    n_candidates: int = 0

    @property
    def rate(self) -> float:
        # 0 findings over 0 candidates reports as rate 0.
        return self.n_flagged / self.n_candidates if self.n_candidates else 0.0


def _context(sentence: Sentence, token: Token, window: int = 2) -> str:
    lo = token.id - window
    hi = token.id + window
    return " ".join(t.form for t in sentence.tokens if lo <= t.id <= hi)


def _is_possessive_pronoun(sentence: Sentence, tok: Token) -> bool:
    return tok.upos == "PRON" and tok.feats.get("Poss") == "Yes"


def _is_nn_premodifier(sentence: Sentence, tok: Token) -> bool:
    # Nominal immediately preceding a nominal head, with no case dependent
    # (a case child marks a prepositional phrase, which nmod is for).
    if tok.upos not in ("NOUN", "PROPN"):
        return False
    head = next((t for t in sentence.tokens if t.id == tok.head), None)
    if head is None or head.upos not in ("NOUN", "PROPN"):
        return False
    if tok.id + 1 != head.id:
        return False
    return not any(
        t.head == tok.id and t.deprel_base == "case" for t in sentence.tokens
    )


_Candidate = Callable[[Sentence, Token], bool]

# (rule, is_candidate, flagged deprel, suggested deprel)
_Rule = tuple[LintRule, _Candidate, str, str]
_RULES: tuple[_Rule, ...] = (
    (LintRule.POSS_AS_DET, _is_possessive_pronoun, "det", "nmod:poss"),
    (LintRule.NN_AS_NMOD, _is_nn_premodifier, "nmod", "compound"),
)


def _scan(sentence: Sentence, report: LintReport, row: _Rule) -> list[LintFinding]:
    """Add the sentence's candidates to the report: flag those labeled with
    the row's flagged deprel; those already labeled with its suggestion
    count towards the rate only. Returns the sentence's findings."""
    _, is_candidate, flagged_deprel, suggested = row
    findings = []
    for tok in sentence.tokens:
        if tok.deprel in (flagged_deprel, suggested) and is_candidate(sentence, tok):
            report.n_candidates += 1
            if tok.deprel == flagged_deprel:
                report.n_flagged += 1
                findings.append(
                    LintFinding(
                        sentence.sent_id,
                        tok.id,
                        report.rule,
                        tok.deprel,
                        suggested,
                        _context(sentence, tok),
                    )
                )
    report.findings += findings
    return findings


def lint_all(
    tb: Iterable[Sentence], fixed: Callable[[Sentence], object] | None = None
) -> list[LintReport]:
    """Both rules' reports, in ``LintRule`` order, from one pass over
    ``tb``, a treebank or any sentence iterable. Each rule is scanned on its
    own, so each report is what that rule alone finds. With ``fixed``, each
    sentence is passed to it as soon as it is linted, with its findings'
    suggestions applied: what ``apply_fixes`` gives for it when sent_ids
    are unique, as under a strict read."""
    reports = [LintReport(rule) for rule, *_ in _RULES]
    for sentence in tb:
        found = [
            f
            for report, row in zip(reports, _RULES)
            for f in _scan(sentence, report, row)
        ]
        if fixed is not None:
            fixed(_fix(sentence, {f.token_id: f.suggested_deprel for f in found}))
    for report in reports:
        report.findings.sort(key=lambda f: (f.sent_id, f.token_id))
    return reports


def _fix(sentence: Sentence, fixes: dict[int, str] | None) -> Sentence:
    if not fixes:
        return sentence
    tokens = [t.copy(deprel=fixes.get(t.id, t.deprel)) for t in sentence.tokens]
    return replace(sentence, tokens=tokens)


def apply_fixes(tb: Iterable[Sentence], findings: Sequence[LintFinding]) -> Treebank:
    """Return a treebank with every finding's suggestion applied."""
    by_sentence: dict[str, dict[int, str]] = {}
    for f in findings:
        by_sentence.setdefault(f.sent_id, {})[f.token_id] = f.suggested_deprel
    return Treebank([_fix(s, by_sentence.get(s.sent_id)) for s in tb])
