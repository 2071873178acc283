"""Gold-annotation inconsistency linting.

Two patterns known to contaminate child-interaction treebanks: possessive
pronouns attached as ``det`` instead of ``nmod:poss``, and noun-premodifying
nouns attached as ``nmod`` instead of ``compound``. The linter only
suggests; rewriting happens in ``apply_fixes``. Rates are token-level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

from .conllu import Sentence, Token, Treebank

__all__ = ["LintRule", "LintFinding", "LintReport", "lint_poss_det",
           "lint_nn_nmod", "lint_all", "apply_fixes"]


class LintRule(Enum):
    POSS_AS_DET = "POSS_AS_DET"
    NN_AS_NMOD = "NN_AS_NMOD"


_SUGGESTION = {
    LintRule.POSS_AS_DET: "nmod:poss",
    LintRule.NN_AS_NMOD: "compound",
}


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


def _lint(
    tb: Treebank,
    rule: LintRule,
    is_candidate: Callable[[Sentence, Token], bool],
    flagged_deprel: str,
) -> LintReport:
    """Flag candidates labeled ``flagged_deprel``; candidates already
    labeled ``_SUGGESTION[rule]`` count towards the rate only."""
    accepted = _SUGGESTION[rule]
    report = LintReport(rule)
    for sentence in tb.sentences:
        for tok in sentence.tokens:
            if tok.deprel in (flagged_deprel, accepted) and is_candidate(sentence, tok):
                report.n_candidates += 1
                if tok.deprel == flagged_deprel:
                    report.n_flagged += 1
                    report.findings.append(
                        LintFinding(
                            sentence.sent_id,
                            tok.id,
                            rule,
                            tok.deprel,
                            accepted,
                            _context(sentence, tok),
                        )
                    )
    report.findings.sort(key=lambda f: (f.sent_id, f.token_id))
    return report


def lint_poss_det(tb: Treebank) -> LintReport:
    """Possessive pronouns (PRON, Poss=Yes) attached as det.

    Candidates are all possessive-pronoun prenominal modifiers: the flagged
    tokens plus those already labeled nmod:poss.
    """
    return _lint(tb, LintRule.POSS_AS_DET, _is_possessive_pronoun, "det")


def lint_nn_nmod(tb: Treebank) -> LintReport:
    """Noun-premodifying nouns attached as nmod instead of compound."""
    return _lint(tb, LintRule.NN_AS_NMOD, _is_nn_premodifier, "nmod")


def lint_all(tb: Treebank) -> list[LintReport]:
    return [lint_poss_det(tb), lint_nn_nmod(tb)]


def apply_fixes(tb: Treebank, findings: Sequence[LintFinding]) -> Treebank:
    """Return a treebank with every finding's suggestion applied."""
    by_sentence: dict[str, dict[int, str]] = {}
    for f in findings:
        by_sentence.setdefault(f.sent_id, {})[f.token_id] = f.suggested_deprel
    sentences = []
    for sentence in tb.sentences:
        fixes = by_sentence.get(sentence.sent_id)
        if not fixes:
            sentences.append(sentence)
            continue
        tokens = [t.copy(deprel=fixes.get(t.id, t.deprel)) for t in sentence.tokens]
        sentences.append(replace(sentence, tokens=tokens))
    return replace(tb, sentences=sentences)
