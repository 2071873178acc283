"""Frozen copy of the tag-question stripping, the two decision lists and
the functions that run them, as they were before both lists read one
sentence view.

The property tests in ``test_cxntag_properties.py`` hold the live code to
this oracle: same labels, fired rules, traces, stripped sentences and
errors. Do not edit it to follow a change in ``cait.cxntag``; a change of
behaviour must show up as a failing test.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace
from typing import Callable, Sequence

from cait.conllu import Diagnostic, Sentence, Token, detokenize
from cait.cxntag import (
    AUX_LEMMAS,
    BE_SURFACE,
    COMPLEX_RELATIONS,
    CONTROL_VERBS,
    NEGATION_FORMS,
    SUBJECT_RELATIONS,
    TRANSCRIPTION_MARKERS,
    WH_WORDS,
    Backend,
    CxnLabel,
    FormulaicLexicon,
    MissingAnnotationError,
    TaggedUtterance,
    normalize_utterance,
)


_TAG_AUXES = (
    "is isn't was wasn't are aren't were weren't am do don't does doesn't did "
    "didn't can can't could couldn't will won't would wouldn't shall shan't "
    "should shouldn't have haven't has hasn't had hadn't ain't"
).split()
_TAG_PRONOUNS = "it you he she we they i that this".split()

TAG_QUESTION_SURFACE = frozenset(
    [normalize_utterance(f"{aux} {pron}")
     for aux, pron in itertools.product(_TAG_AUXES, _TAG_PRONOUNS)]
    + ["okay", "ok", "right", "huh", "eh", "yeah"]
)


def _subtree_ids(sentence: Sentence, head_id: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for tok in sentence.tokens:
        children.setdefault(tok.head, []).append(tok.id)
    out = {head_id}
    stack = [head_id]
    while stack:
        cur = stack.pop()
        for child in children.get(cur, []):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def _structural_tag_span(sentence: Sentence) -> set[int] | None:
    toks = sentence.tokens
    by_id = {t.id: t for t in toks}
    content = [t for t in toks if t.upos != "PUNCT"]
    if len(content) < 3:
        return None
    last_content = content[-1].id
    root = sentence.root()
    for head in toks:
        if head.deprel_base != "parataxis":
            continue
        if head.upos != "AUX" and head.effective_lemma() not in AUX_LEMMAS:
            continue
        sub = _subtree_ids(sentence, head.id)
        non_punct = [i for i in sub if by_id[i].upos != "PUNCT"]
        if not non_punct or max(non_punct) != last_content:
            continue
        pron = neg = 0
        ok = True
        for i in sorted(sub):
            tok = by_id[i]
            if tok is head or tok.upos == "PUNCT":
                continue
            if tok.upos == "PRON" and tok.deprel_base in SUBJECT_RELATIONS:
                pron += 1
            elif tok.form.lower() in NEGATION_FORMS:
                neg += 1
            else:
                ok = False
                break
        if not ok or pron != 1 or neg > 1:
            continue
        if min(sub) <= 1:
            continue
        if root is not None and root.id in sub:
            continue
        ids = sorted(sub)
        if ids != list(range(ids[0], ids[-1] + 1)):
            continue
        return sub
    return None


def _surface_tag_span(sentence: Sentence) -> set[int] | None:
    toks = sentence.tokens
    content = [t for t in toks if t.upos != "PUNCT"]
    root = sentence.root()
    for k in (3, 2, 1):
        if len(content) - k < 1:
            continue
        tail = content[-k:]
        positions = [t.id for t in tail]
        if positions != list(range(positions[0], positions[-1] + 1)):
            continue
        key = normalize_utterance(" ".join(t.form for t in tail))
        if key not in TAG_QUESTION_SURFACE:
            continue
        if root is not None and root.id in positions:
            continue
        if k < 3:
            # Short tags are ambiguous with clause cores ("what is it?");
            # demand explicit loose attachment or a comma boundary.
            by_id = {t.id: t for t in toks}
            prev = by_id.get(positions[0] - 1)
            loose = any(
                t.deprel_base in ("parataxis", "discourse") for t in tail
            )
            if not loose and not (prev is not None and prev.form == ","):
                continue
        return set(positions)
    return None


def _remains_interrogative(tokens: Sequence[Token]) -> bool:
    for tok in tokens:
        if tok.feats.get("PronType") == "Int":
            return True
        if tok.effective_lemma() in WH_WORDS:
            return True
    for tok in tokens:
        if tok.upos == "PUNCT":
            continue
        return tok.upos == "AUX"
    return False


def _renumbered_deps(deps: str, id_map: dict[int, int]) -> str:
    """DEPS with the head of each ``head:deprel`` item (``h`` or ``a.b``,
    where ``a`` is renumbered) sent through ``id_map``; 0 stays 0, an item
    whose head is not in ``id_map`` is dropped, an item of another form is
    kept as written, and nothing left is ``_``."""
    if deps == "_":
        return deps
    out = []
    for item in deps.split("|"):
        m = re.fullmatch(r"(\d+)(\.\d+)?:(.*)", item, re.DOTALL)
        if m is None:
            out.append(item)
            continue
        head = int(m.group(1))
        if head != 0:
            if head not in id_map:
                continue
            head = id_map[head]
        out.append(f"{head}{m.group(2) or ''}:{m.group(3)}")
    return "|".join(out) or "_"


def strip_tag_question(sentence: Sentence) -> Sentence:
    """Remove an utterance-final tag question and re-close the tree.

    Detected either structurally (a sentence-final parataxis subtree of
    auxiliary + optional negation + pronoun) or by a closed surface list.
    A removed "?" is replaced with sentence-final "." unless the remainder
    is itself interrogative. Identity when no tag is present; idempotent.
    The removed surface text is logged as a ``tag-question`` diagnostic.
    """
    span = _structural_tag_span(sentence) or _surface_tag_span(sentence)
    if span is None:
        return sentence
    toks = sentence.tokens
    by_id = {t.id: t for t in toks}

    removed = set(span)
    prev = by_id.get(min(span) - 1)
    if prev is not None and prev.form == ",":
        removed.add(prev.id)
    max_content = max(t.id for t in toks if t.upos != "PUNCT")
    removed_q = False
    for tok in toks:
        if tok.id > max_content and tok.upos == "PUNCT" and "?" in tok.form:
            removed.add(tok.id)
            removed_q = True
        elif tok.id in span and "?" in tok.form:
            removed_q = True

    stripped_text = " ".join(t.form for t in toks if t.id in removed)
    kept = [t.copy() for t in toks if t.id not in removed]
    if not kept:
        return sentence

    root_id = next((t.id for t in kept if t.head == 0), kept[0].id)
    for tok in kept:
        if tok.head in removed:
            tok.head = root_id
            if tok.deprel == "root":
                tok.deprel = "dep" if tok.id != root_id else "root"

    if removed_q:
        mark = "?" if _remains_interrogative(kept) else "."
        kept.append(
            Token(
                id=max(t.id for t in kept) + 1,
                form=mark,
                lemma=mark,
                upos="PUNCT",
                xpos=".",
                head=root_id,
                deprel="punct",
            )
        )

    id_map = {tok.id: i + 1 for i, tok in enumerate(kept)}
    for tok in kept:
        tok.head = id_map.get(tok.head, 0) if tok.head != 0 else 0
        tok.id = id_map[tok.id]
        tok.deps = _renumbered_deps(tok.deps, id_map)

    mwt = [
        replace(r, start=id_map[r.start], end=id_map[r.end])
        for r in sentence.mwt
        if r.start in id_map and r.end in id_map
    ]
    empty = []
    for e in sentence.empty_nodes:
        if e.anchor == 0 or e.anchor in id_map:
            anchor = id_map.get(e.anchor, 0)
            columns = ((f"{anchor}.{e.sub}",) + tuple(e.columns[1:8])
                       + (_renumbered_deps(e.columns[8], id_map),)
                       + tuple(e.columns[9:]))
            empty.append(replace(e, anchor=anchor, columns=columns))

    out = replace(
        sentence,
        tokens=kept,
        mwt=mwt,
        empty_nodes=empty,
        comments=list(sentence.comments),
        diagnostics=list(sentence.diagnostics)
        + [Diagnostic("tag-question", stripped_text)],
    )
    new_text = detokenize(out)
    out.text = new_text
    out.comments = [
        f"# text = {new_text}" if re.match(r"^#\s*text\s*=", c) else c
        for c in out.comments
    ]
    return out


# ---------------------------------------------------------------------------
# Shared clause helpers
# ---------------------------------------------------------------------------

class _Clause:
    """Precomputed views over one sentence for the UD rule predicates."""

    def __init__(self, sentence: Sentence):
        self.tokens = sentence.tokens
        self.by_id = {t.id: t for t in self.tokens}
        self.children: dict[int, list[Token]] = {}
        for tok in self.tokens:
            self.children.setdefault(tok.head, []).append(tok)
        roots = self.children.get(0, [])
        self.root: Token | None = roots[0] if roots else None
        self.content = [t for t in self.tokens if t.upos != "PUNCT"]
        peripheral: set[int] = set()
        for tok in self.tokens:
            if tok.deprel_base in ("discourse", "vocative"):
                peripheral.update(_subtree_ids(sentence, tok.id))
        self.first_core: Token | None = None
        for tok in self.tokens:
            if tok.upos == "PUNCT" or tok.id in peripheral:
                continue
            self.first_core = tok
            break

    def deps(self, tok: Token | None, *bases: str) -> list[Token]:
        if tok is None:
            return []
        return [c for c in self.children.get(tok.id, []) if c.deprel_base in bases]

    def ends_with_question_mark(self) -> bool:
        for tok in reversed(self.tokens):
            if tok.upos != "PUNCT" and tok.deprel_base != "punct":
                return False
            if "?" in tok.form:
                return True
        return False

    def is_wh(self, tok: Token) -> bool:
        if "Int" in tok.feats.get("PronType", ""):
            return True
        return tok.effective_lemma() in WH_WORDS

    def in_main_clause(self, tok: Token) -> bool:
        cur = tok
        seen = set()
        while cur.head != 0 and cur.id not in seen:
            seen.add(cur.id)
            if cur.deprel_base in ("ccomp", "xcomp", "advcl", "acl", "csubj"):
                return False
            nxt = self.by_id.get(cur.head)
            if nxt is None:
                return False
            cur = nxt
        return cur.head == 0


def _is_exclusion(sentence: Sentence) -> bool:
    content = [t for t in sentence.tokens if t.upos != "PUNCT"]
    return bool(content) and all(
        t.form.lower() in TRANSCRIPTION_MARKERS for t in content
    )


def _is_past_participle(tok: Token) -> bool:
    if tok.xpos == "VBN":
        return True
    if tok.feats.get("Voice") == "Pass":
        return True
    return (
        tok.feats.get("VerbForm") == "Part" and tok.feats.get("Tense") != "Pres"
    )


def _is_base_form(tok: Token) -> bool:
    if tok.feats.get("Mood") == "Imp" or tok.feats.get("VerbForm") == "Inf":
        return True
    if tok.xpos == "VB":
        return True
    return not tok.feats and tok.form.lower() == tok.effective_lemma()


# ---------------------------------------------------------------------------
# UD decision list
# ---------------------------------------------------------------------------

# Shared by both decision lists: it reads only ``.tokens``.
def _rule_1_formulaic(c: _Clause | Sentence, lexicon: FormulaicLexicon) -> bool:
    return " ".join(t.form for t in c.tokens) in lexicon


def _ud_rule_2_incomplete_or_exclamative(c: _Clause, lexicon) -> bool:
    root = c.root
    # Incomplete copula: bare "be" root with nothing beyond a subject,
    # expletive or peripheral material. An expletive TOGETHER with a
    # subject is a full existential and belongs to the copula rule.
    if root is not None and root.effective_lemma() == "be":
        has_subj = has_expl = False
        ok = True
        for child in c.children.get(root.id, []):
            base = child.deprel_base
            if base == "punct":
                continue
            if base in SUBJECT_RELATIONS:
                has_subj = True
            elif base == "expl":
                has_expl = True
            elif base in ("discourse", "vocative"):
                continue
            elif base == "advmod" and child.form.lower() in NEGATION_FORMS:
                continue
            else:
                ok = False
                break
        if ok and not (has_subj and has_expl):
            return True
    # Exclamative: "what/such (a) ..." nominal with no verb at all.
    if any(t.upos in ("VERB", "AUX") for t in c.tokens):
        return False
    first = c.first_core
    if first is None or first.effective_lemma() not in ("what", "such"):
        return False
    rest = [t for t in c.content if t.id > first.id]
    return bool(rest) and rest[0].effective_lemma() in ("a", "an")


def _ud_rule_3_aux_inversion(c: _Clause, lexicon) -> bool:
    first = c.first_core
    if first is None or first.upos != "AUX":
        return False
    if not c.ends_with_question_mark():
        return False
    clause_head = c.by_id.get(first.head) if first.head != 0 else first
    if first.deprel_base not in ("aux", "cop") and first.head != 0:
        return False
    subjects = c.deps(clause_head, "nsubj", "csubj", "expl") + c.deps(
        first, "nsubj", "csubj", "expl"
    )
    return any(s.id > first.id for s in subjects)


def _ud_rule_4_fronted_wh(c: _Clause, lexicon) -> bool:
    first = c.first_core
    if first is None or not c.is_wh(first) or not c.in_main_clause(first):
        return False
    limit_positions = [
        t.id
        for t in c.deps(c.root, "nsubj", "csubj", "expl", "aux", "cop")
    ]
    if not limit_positions:
        return True
    return first.id <= min(limit_positions)


def _ud_rule_5_complex(c: _Clause, lexicon) -> bool:
    for tok in c.tokens:
        if c.deps(tok, *COMPLEX_RELATIONS):
            return True
    for tok in c.tokens:
        if tok.upos == "VERB" and tok.deprel_base == "conj":
            head = c.by_id.get(tok.head)
            if head is not None and head.upos == "VERB":
                return True
    return False


def _ud_rule_6_copula(c: _Clause, lexicon) -> bool:
    root = c.root
    if root is None:
        return False
    if c.deps(root, "cop"):
        return True
    if root.effective_lemma() == "be" and c.deps(root, "expl"):
        return True
    be_aux = [
        t for t in c.deps(root, "aux") if t.effective_lemma() == "be"
    ]
    return bool(be_aux) and _is_past_participle(root)


def _ud_rule_7_fragment(c: _Clause, lexicon) -> bool:
    root = c.root
    if root is None:
        return True
    if root.upos not in ("VERB", "AUX"):
        return True
    # Bare participle: no auxiliary, no subject ("running.").
    if root.upos == "VERB" and root.feats.get("VerbForm") in ("Part", "Ger"):
        if not c.deps(root, "aux") and not c.deps(root, *SUBJECT_RELATIONS):
            return True
    return False


def _ud_rule_8_imperative(c: _Clause, lexicon) -> bool:
    root = c.root
    if root is None:
        return False
    if root.feats.get("Mood") == "Imp":
        return True
    subjects = c.deps(root, *SUBJECT_RELATIONS)
    if root.upos == "VERB" and not subjects:
        first = c.first_core
        if first is root or (
            first is not None and first.deprel_base == "aux" and first.head == root.id
        ):
            return True
    if root.effective_lemma() == "let" and any(
        t.form.lower() in ("'s", "us", "’s") for t in c.deps(root, "obj")
    ):
        return True
    # Emphatic "you" imperative: you + base-form verb, no question mark.
    if root.upos == "VERB" and not c.ends_with_question_mark():
        for subj in subjects:
            if (
                subj.effective_lemma() == "you"
                and subj.id == root.id - 1
                and _is_base_form(root)
            ):
                return True
    return False


def _ud_rule_9_elliptic_aux(c: _Clause, lexicon) -> bool:
    root = c.root
    return (
        root is not None
        and root.upos == "AUX"
        and bool(c.deps(root, "nsubj"))
        and not c.deps(root, "cop")
    )


def _ud_rule_10_transitive(c: _Clause, lexicon) -> bool:
    root = c.root
    if root is None:
        return False
    if c.deps(root, "obj"):
        return True
    if root.effective_lemma() in CONTROL_VERBS:
        for xcomp in c.deps(root, "xcomp"):
            if xcomp.upos == "VERB":
                return True
    return False


def _ud_rule_11_verb_rooted(c: _Clause, lexicon) -> bool:
    return c.root is not None and c.root.upos in ("VERB", "AUX")


def _ud_rule_12_fallback(c: _Clause, lexicon) -> bool:
    return True


UD_RULES: tuple[tuple[int, CxnLabel, Callable], ...] = (
    (1, CxnLabel.FOR, _rule_1_formulaic),
    (2, CxnLabel.FRA, _ud_rule_2_incomplete_or_exclamative),
    (3, CxnLabel.QYN, _ud_rule_3_aux_inversion),
    (4, CxnLabel.QWH, _ud_rule_4_fronted_wh),
    (5, CxnLabel.COM, _ud_rule_5_complex),
    (6, CxnLabel.COP, _ud_rule_6_copula),
    (7, CxnLabel.FRA, _ud_rule_7_fragment),
    (8, CxnLabel.IMP, _ud_rule_8_imperative),
    (9, CxnLabel.SPI, _ud_rule_9_elliptic_aux),
    (10, CxnLabel.SPT, _ud_rule_10_transitive),
    (11, CxnLabel.SPI, _ud_rule_11_verb_rooted),
    (12, CxnLabel.FRA, _ud_rule_12_fallback),
)


def ud_rule_trace(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> list[tuple[int, CxnLabel, bool]]:
    """Evaluate every UD rule predicate independently (for auditing the
    first-match property); rule 0 is the transcription-marker exclusion."""
    lexicon = lexicon or FormulaicLexicon.default()
    trace = [(0, CxnLabel.X, _is_exclusion(sentence))]
    clause = _Clause(sentence)
    for ordinal, label, pred in UD_RULES:
        trace.append((ordinal, label, bool(pred(clause, lexicon))))
    return trace


def tag_ud(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> TaggedUtterance:
    """First matching step of the UD decision list wins."""
    lexicon = lexicon or FormulaicLexicon.default()
    if _is_exclusion(sentence):
        return TaggedUtterance(sentence.sent_id, CxnLabel.X, Backend.UD_RULES, 0)
    missing = [
        t.id for t in sentence.tokens if t.upos == "_" or t.deprel == "_"
    ]
    if missing:
        raise MissingAnnotationError(
            f"sentence {sentence.sent_id}: tokens {missing} lack UPOS or deprel "
            "annotation; use the POS_RULES backend for un-parsed input"
        )
    clause = _Clause(sentence)
    for ordinal, label, pred in UD_RULES:
        if pred(clause, lexicon):
            return TaggedUtterance(sentence.sent_id, label, Backend.UD_RULES, ordinal)
    raise AssertionError("rule 12 is total")  # pragma: no cover


# ---------------------------------------------------------------------------
# POS-only decision list
# ---------------------------------------------------------------------------

def _pos_first_content(sentence: Sentence) -> Token | None:
    for tok in sentence.tokens:
        if tok.upos in ("PUNCT", "INTJ"):
            continue
        return tok
    return None


def _pos_ends_q(sentence: Sentence) -> bool:
    for tok in reversed(sentence.tokens):
        if tok.upos != "PUNCT":
            return False
        if "?" in tok.form:
            return True
    return False


def _pos_rule_2_wh_question(s: Sentence, lexicon) -> bool:
    first = _pos_first_content(s)
    return (
        _pos_ends_q(s)
        and first is not None
        and first.effective_lemma() in WH_WORDS
    )


def _pos_rule_3_yn_question(s: Sentence, lexicon) -> bool:
    first = _pos_first_content(s)
    return _pos_ends_q(s) and first is not None and first.upos == "AUX"


def _pos_rule_4_no_verb(s: Sentence, lexicon) -> bool:
    return not any(t.upos in ("VERB", "AUX") for t in s.tokens)


def _pos_rule_5_be_only(s: Sentence, lexicon) -> bool:
    verbal = [t for t in s.tokens if t.upos in ("VERB", "AUX")]
    return bool(verbal) and all(
        t.effective_lemma() == "be" or t.form.lower() in BE_SURFACE for t in verbal
    )


def _pos_rule_6_imperative(s: Sentence, lexicon) -> bool:
    first = _pos_first_content(s)
    if first is not None and first.upos == "VERB":
        return True
    toks = s.tokens
    for i, tok in enumerate(toks[:-1]):
        if tok.effective_lemma() == "let" and toks[i + 1].form.lower() in (
            "'s",
            "us",
            "’s",
        ):
            return True
    return False


def _pos_rule_7_complex(s: Sentence, lexicon) -> bool:
    if sum(1 for t in s.tokens if t.upos == "VERB") >= 2:
        return True
    return any(t.upos == "SCONJ" for t in s.tokens)


def _pos_rule_8_transitive(s: Sentence, lexicon) -> bool:
    verb_positions = [i for i, t in enumerate(s.tokens) if t.upos == "VERB"]
    if not verb_positions:
        return False
    first_verb = min(verb_positions)
    return any(
        t.upos in ("NOUN", "PRON", "PROPN")
        for t in s.tokens[first_verb + 1 :]
    )


def _pos_rule_9_fallback(s: Sentence, lexicon) -> bool:
    return True


POS_RULES: tuple[tuple[int, CxnLabel, Callable], ...] = (
    (1, CxnLabel.FOR, _rule_1_formulaic),
    (2, CxnLabel.QWH, _pos_rule_2_wh_question),
    (3, CxnLabel.QYN, _pos_rule_3_yn_question),
    (4, CxnLabel.FRA, _pos_rule_4_no_verb),
    (5, CxnLabel.COP, _pos_rule_5_be_only),
    (6, CxnLabel.IMP, _pos_rule_6_imperative),
    (7, CxnLabel.COM, _pos_rule_7_complex),
    (8, CxnLabel.SPT, _pos_rule_8_transitive),
    (9, CxnLabel.SPI, _pos_rule_9_fallback),
)


def pos_rule_trace(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> list[tuple[int, CxnLabel, bool]]:
    lexicon = lexicon or FormulaicLexicon.default()
    trace = [(0, CxnLabel.X, _is_exclusion(sentence))]
    for ordinal, label, pred in POS_RULES:
        trace.append((ordinal, label, bool(pred(sentence, lexicon))))
    return trace


def tag_pos(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> TaggedUtterance:
    """POS/word-order heuristics; total, never raises."""
    lexicon = lexicon or FormulaicLexicon.default()
    if _is_exclusion(sentence):
        return TaggedUtterance(sentence.sent_id, CxnLabel.X, Backend.POS_RULES, 0)
    for ordinal, label, pred in POS_RULES:
        if pred(sentence, lexicon):
            return TaggedUtterance(sentence.sent_id, label, Backend.POS_RULES, ordinal)
    raise AssertionError("rule 9 is total")  # pragma: no cover


# ---------------------------------------------------------------------------
# Batch driver and accuracy
# ---------------------------------------------------------------------------

def tag_utterance(
    sentence: Sentence,
    backend: Backend = Backend.UD_RULES,
    lexicon: FormulaicLexicon | None = None,
) -> TaggedUtterance:
    """Strip an utterance-final tag question, then run one backend."""
    stripped = strip_tag_question(sentence)
    removed = next(
        (d.message for d in stripped.diagnostics if d.code == "tag-question"), None
    )
    if backend is Backend.UD_RULES:
        tagged = tag_ud(stripped, lexicon)
    else:
        tagged = tag_pos(stripped, lexicon)
    tagged.stripped_tag_question = removed
    return tagged
