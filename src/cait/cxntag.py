"""Utterance-level construction tagging.

Classifies each utterance into one of ten construction categories (FOR,
FRA, QWH, QYN, COP, IMP, SPI, SPT, COM, X) with two interchangeable
backends: an ordered twelve-step decision list over UD annotations, and a
coarser POS-only heuristic list for input without dependency relations.
Utterance-final tag questions are detected and removed before tagging.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, lru_cache
from importlib import resources
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from .conllu import (
    Diagnostic,
    Sentence,
    SpeakerRole,
    Token,
    Treebank,
    _map_deps,
    _metadata_item,
    _moved,
    _name,
    detokenize,
    table_lines,
    table_map,
)

__all__ = [
    "CxnLabel",
    "Backend",
    "FormulaicLexicon",
    "TaggedUtterance",
    "MissingAnnotationError",
    "CxnEvalReport",
    "CXN_LABEL_ORDER",
    "normalize_utterance",
    "strip_tag_question",
    "tag_ud",
    "tag_pos",
    "tag_treebank",
    "ud_rule_trace",
    "pos_rule_trace",
    "cxn_accuracy",
    "load_gold_labels",
]


class CxnLabel(str, Enum):
    FOR = "FOR"  # formulaic social routine
    FRA = "FRA"  # fragment without a finite predicate
    QWH = "QWH"  # fronted wh-question
    QYN = "QYN"  # yes/no question with auxiliary inversion
    COP = "COP"  # copula clause
    IMP = "IMP"  # imperative / hortative
    SPI = "SPI"  # subject-predicate, intransitive
    SPT = "SPT"  # subject-predicate, transitive
    COM = "COM"  # complex, multiple predicates
    X = "X"      # exclusion: unintelligible / transcription markers only


CXN_LABEL_ORDER: tuple[CxnLabel, ...] = tuple(CxnLabel)


class Backend(Enum):
    UD_RULES = "ud"
    POS_RULES = "pos"


class MissingAnnotationError(ValueError):
    pass


WH_WORDS = frozenset(
    ["who", "whom", "what", "where", "when", "why", "how", "which", "whose"]
)

# Control verbs whose infinitival complement carries the proposition's
# object (rule 10): "she needs to eat", "I'm going to read that book".
CONTROL_VERBS = frozenset(
    ["want", "need", "try", "like", "have", "go", "start", "begin", "love", "hate"]
)

AUX_LEMMAS = frozenset(
    ["be", "do", "have", "can", "will", "would", "could", "should", "shall",
     "may", "might", "must"]
)

BE_SURFACE = frozenset(
    ["be", "am", "is", "are", "was", "were", "been", "being", "'s", "'m", "'re",
     "s", "m", "re", "ai"]
)

NEGATION_FORMS = frozenset(["not", "n't", "nt", "n’t", "never"])

TRANSCRIPTION_MARKERS = frozenset(["xxx", "yyy", "www"])

COMPLEX_RELATIONS = frozenset(["ccomp", "advcl", "acl", "parataxis"])

SUBJECT_RELATIONS = frozenset(["nsubj", "csubj"])


# ---------------------------------------------------------------------------
# Lexicon
# ---------------------------------------------------------------------------

_TERMINAL_PUNCT = " \t.,!?;:…\"»«()[]"


# CHILDES utterances, and the one- to three-token tails that tag-question
# detection looks up, repeat heavily.
@lru_cache(maxsize=4096)
def normalize_utterance(text: str) -> str:
    """Case-fold, fold the curly apostrophe into the straight one, strip
    terminal punctuation, collapse whitespace and close up tokenized
    contractions ("do n’t" -> "don't", "you 're" -> "you're")."""
    t = text.casefold().replace("’", "'").strip(_TERMINAL_PUNCT)
    t = " ".join(t.split())
    t = t.replace(" n't", "n't")
    t = re.sub(r"\s+(?=')", "", t)
    return t


@dataclass(frozen=True)
class FormulaicLexicon:
    """Exact-match patterns for formulaic social routines."""

    patterns: frozenset[str]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("formulaic lexicon must not be empty")

    def __contains__(self, text: str) -> bool:
        return normalize_utterance(text) in self.patterns

    @classmethod
    def from_file(cls, source: str | Path | bytes | IO) -> "FormulaicLexicon":
        patterns = frozenset(normalize_utterance(line) for _, line in table_lines(source))
        if not patterns:
            raise ValueError(f"{_name(source)}: formulaic lexicon must not be empty")
        return cls(patterns)

    @classmethod
    @cache
    def default(cls) -> "FormulaicLexicon":
        """The packaged lexicon, read once per process."""
        data = resources.files("cait").joinpath("data/formulaic_lexicon.txt")
        with data.open("rb") as stream:
            return cls.from_file(stream)


@dataclass
class TaggedUtterance:
    sent_id: str
    label: CxnLabel
    backend: Backend
    fired_rule: int
    stripped_tag_question: str | None = None


# ---------------------------------------------------------------------------
# Tag-question stripping
# ---------------------------------------------------------------------------

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
_TAG_LAST_WORDS = frozenset(tag.rpartition(" ")[2] for tag in TAG_QUESTION_SURFACE)


def _structural_tag_span(view: _View) -> set[int] | None:
    content = view.content
    if len(content) < 3:
        return None
    last_content = content[-1].id
    for head in view.tokens:
        if head.deprel_base != "parataxis":
            continue
        if head.upos != "AUX" and head.effective_lemma() not in AUX_LEMMAS:
            continue
        sub = _subtree_ids(view, head.id)
        non_punct = [i for i in sub if view.by_id[i].upos != "PUNCT"]
        if not non_punct or max(non_punct) != last_content:
            continue
        pron = neg = 0
        ok = True
        for i in sorted(sub):
            tok = view.by_id[i]
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
        if view.root is not None and view.root.id in sub:
            continue
        ids = sorted(sub)
        if ids != list(range(ids[0], ids[-1] + 1)):
            continue
        return sub
    return None


def _surface_tag_span(view: _View) -> set[int] | None:
    content = view.content
    if len(content) < 2:
        return None
    # A tail that is a tag ends in the last word of its last form, unless
    # that form normalizes to "" ("okay ?" with a "?" that is not PUNCT).
    last = normalize_utterance(content[-1].form)
    if last and last.rpartition(" ")[2] not in _TAG_LAST_WORDS:
        return None
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
        if view.root is not None and view.root.id in positions:
            continue
        if k < 3:
            # Short tags are ambiguous with clause cores ("what is it?");
            # demand explicit loose attachment or a comma boundary.
            prev = view.by_id.get(positions[0] - 1)
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


def strip_tag_question(sentence: Sentence) -> Sentence:
    """Remove an utterance-final tag question and re-close the tree.

    Detected either structurally (a sentence-final parataxis subtree of
    auxiliary + optional negation + pronoun) or by a closed surface list.
    A removed "?" is replaced with sentence-final "." unless the remainder
    is itself interrogative. When the removed tokens held the root, the
    first kept token that hung from them takes its place, and the others
    attach to it. Identity when no tag is present. Idempotent on an
    utterance with one appended tag; of two stacked tags, each call removes
    the last. The removed surface text is logged as a ``tag-question``
    diagnostic. Builds one view of the sentence, and one more of a stripped
    result, which ``tag_utterance`` tags.
    """
    return _strip(_View(sentence))[0]


def _strip(view: _View) -> tuple[Sentence, _View]:
    """``strip_tag_question`` on a view: the sentence it returns, and that
    sentence's view, which is ``view`` itself when nothing is stripped."""
    sentence = view.sentence
    span = _structural_tag_span(view) or _surface_tag_span(view)
    if span is None:
        return sentence, view
    toks = sentence.tokens

    removed = set(span)
    prev = view.by_id.get(min(span) - 1)
    if prev is not None and prev.form == ",":
        removed.add(prev.id)
    max_content = max(t.id for t in view.content)
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
        return sentence, view

    lost = [t for t in kept if t.head in removed]
    if lost and view.root is not None and all(t.head for t in kept):
        lost[0].head, lost[0].deprel = 0, "root"  # the root went with the tag
    root_id = next((t.id for t in kept if t.head == 0), kept[0].id)
    for tok in kept:
        if tok.head in removed:
            tok.head = root_id
            if tok.deprel == "root":
                tok.deprel = "dep" if tok.id != root_id else "root"

    if removed_q:
        mark = "?" if _remains_interrogative(kept) else "."
        kept.append(Token(max(t.id for t in kept) + 1, mark, mark, "PUNCT", ".",
                          head=root_id, deprel="punct"))

    id_map = {tok.id: i + 1 for i, tok in enumerate(kept)}
    for tok in kept:
        tok.head = id_map.get(tok.head, 0) if tok.head != 0 else 0
        tok.id = id_map[tok.id]
        tok.deps = _map_deps(tok.deps, id_map.get, id_map.get)

    mwt = [
        replace(r, start=id_map[r.start], end=id_map[r.end])
        for r in sentence.mwt
        if r.start in id_map and r.end in id_map
    ]
    empty = [
        _moved(e, a, id_map.get, id_map.get)
        for e in sentence.empty_nodes
        if (a := id_map.get(e.anchor, 0)) or e.anchor == 0
    ]

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
        f"# text = {new_text}" if _metadata_item(c)[0] == "text" else c
        for c in out.comments
    ]
    return out, _View(out)


# ---------------------------------------------------------------------------
# Sentence view and shared rule helpers
# ---------------------------------------------------------------------------

class _View:
    """One sentence as tag-question stripping and both decision lists read
    it, built in one pass over the tokens; the cheapest parts are computed
    on every use. Each public call views its sentence once, and stripping a
    tag question views the result once more, the view that ``tag_utterance``
    hands on to the decision list."""

    def __init__(self, sentence: Sentence):
        self.sentence = sentence
        self.tokens = sentence.tokens
        self.root: Token | None = None
        self.content: list[Token] = []
        self.by_id: dict[int, Token] = {}  # the last token of a duplicate id wins
        # (token, deprel base) pairs by head id, each list in token order.
        self.children: dict[int, list[tuple[Token, str]]] = {}
        peripheral = []
        for tok in self.tokens:
            base = tok.deprel_base
            if tok.upos != "PUNCT":
                self.content.append(tok)
            if tok.head == 0 and self.root is None:
                self.root = tok
            self.by_id[tok.id] = tok
            self.children.setdefault(tok.head, []).append((tok, base))
            if base in ("discourse", "vocative"):
                peripheral.append(tok.id)
        # The first content token outside discourse and vocative subtrees.
        core = self.content
        if peripheral:
            outside = set().union(*(_subtree_ids(self, i) for i in peripheral))
            core = [t for t in core if t.id not in outside]
        self.first_core = core[0] if core else None

    @property
    def pos_first(self) -> Token | None:
        """The first content token that is not an interjection."""
        for tok in self.content:
            if tok.upos != "INTJ":
                return tok
        return None

    @property
    def ud_ends_q(self) -> bool:
        """A "?" in the final run of tokens that are PUNCT or attached as
        punct."""
        for tok in reversed(self.tokens):
            if tok.upos != "PUNCT" and tok.deprel_base != "punct":
                return False
            if "?" in tok.form:
                return True
        return False

    @property
    def pos_ends_q(self) -> bool:
        """A "?" in the final run of PUNCT tokens."""
        for tok in reversed(self.tokens):
            if tok.upos != "PUNCT":
                return False
            if "?" in tok.form:
                return True
        return False

    def deps(self, tok: Token | None, *bases: str) -> list[Token]:
        if tok is None:
            return []
        return [c for c, base in self.children.get(tok.id, ()) if base in bases]

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


def _subtree_ids(view: _View, head_id: int) -> set[int]:
    out = {head_id}
    stack = [head_id]
    while stack:
        for child, _ in view.children.get(stack.pop(), ()):
            if child.id not in out:
                out.add(child.id)
                stack.append(child.id)
    return out


# Rule 0 of both decision lists.
def _is_exclusion(view: _View, lexicon) -> bool:
    for tok in view.content:
        if tok.form.lower() not in TRANSCRIPTION_MARKERS:
            return False
    return bool(view.content)


# Rule 1 of both decision lists.
def _rule_1_formulaic(view: _View, lexicon: FormulaicLexicon) -> bool:
    return " ".join(t.form for t in view.tokens) in lexicon


def _is_wh(tok: Token) -> bool:
    if "Int" in tok.feats.get("PronType", ""):
        return True
    return tok.effective_lemma() in WH_WORDS


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

def _ud_rule_2_incomplete_or_exclamative(c: _View, lexicon) -> bool:
    root = c.root
    # Incomplete copula: bare "be" root with nothing beyond a subject,
    # expletive or peripheral material. An expletive TOGETHER with a
    # subject is a full existential and belongs to the copula rule.
    if root is not None and root.effective_lemma() == "be":
        has_subj = has_expl = False
        ok = True
        for child, base in c.children.get(root.id, ()):
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


def _ud_rule_3_aux_inversion(c: _View, lexicon) -> bool:
    first = c.first_core
    if first is None or first.upos != "AUX":
        return False
    if not c.ud_ends_q:
        return False
    clause_head = c.by_id.get(first.head) if first.head != 0 else first
    if first.deprel_base not in ("aux", "cop") and first.head != 0:
        return False
    subjects = c.deps(clause_head, "nsubj", "csubj", "expl") + c.deps(
        first, "nsubj", "csubj", "expl"
    )
    return any(s.id > first.id for s in subjects)


def _ud_rule_4_fronted_wh(c: _View, lexicon) -> bool:
    first = c.first_core
    if first is None or not _is_wh(first) or not c.in_main_clause(first):
        return False
    limit_positions = [
        t.id
        for t in c.deps(c.root, "nsubj", "csubj", "expl", "aux", "cop")
    ]
    if not limit_positions:
        return True
    return first.id <= min(limit_positions)


def _ud_rule_5_complex(c: _View, lexicon) -> bool:
    # A complex relation under any token, or a verb conjoined to a verb.
    for head_id, siblings in c.children.items():
        head = c.by_id.get(head_id)
        if head is None:
            continue
        for tok, base in siblings:
            if base in COMPLEX_RELATIONS:
                return True
            if base == "conj" and tok.upos == "VERB" and head.upos == "VERB":
                return True
    return False


def _ud_rule_6_copula(c: _View, lexicon) -> bool:
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


def _ud_rule_7_fragment(c: _View, lexicon) -> bool:
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


def _ud_rule_8_imperative(c: _View, lexicon) -> bool:
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
    if root.upos == "VERB" and not c.ud_ends_q:
        for subj in subjects:
            if (
                subj.effective_lemma() == "you"
                and subj.id == root.id - 1
                and _is_base_form(root)
            ):
                return True
    return False


def _ud_rule_9_elliptic_aux(c: _View, lexicon) -> bool:
    root = c.root
    return (
        root is not None
        and root.upos == "AUX"
        and bool(c.deps(root, "nsubj"))
        and not c.deps(root, "cop")
    )


def _ud_rule_10_transitive(c: _View, lexicon) -> bool:
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


def _ud_rule_11_verb_rooted(c: _View, lexicon) -> bool:
    return c.root is not None and c.root.upos in ("VERB", "AUX")


def _ud_rule_12_fallback(c: _View, lexicon) -> bool:
    return True


UD_RULES: tuple[tuple[int, CxnLabel, Callable], ...] = (
    (0, CxnLabel.X, _is_exclusion),
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

# ---------------------------------------------------------------------------
# POS-only decision list
# ---------------------------------------------------------------------------

def _pos_rule_2_wh_question(v: _View, lexicon) -> bool:
    first = v.pos_first
    return v.pos_ends_q and first is not None and first.effective_lemma() in WH_WORDS


def _pos_rule_3_yn_question(v: _View, lexicon) -> bool:
    first = v.pos_first
    return v.pos_ends_q and first is not None and first.upos == "AUX"


def _pos_rule_4_no_verb(v: _View, lexicon) -> bool:
    return not any(t.upos in ("VERB", "AUX") for t in v.tokens)


def _pos_rule_5_be_only(v: _View, lexicon) -> bool:
    verbal = [t for t in v.tokens if t.upos in ("VERB", "AUX")]
    return bool(verbal) and all(
        t.effective_lemma() == "be" or t.form.lower() in BE_SURFACE for t in verbal
    )


def _pos_rule_6_imperative(v: _View, lexicon) -> bool:
    first = v.pos_first
    if first is not None and first.upos == "VERB":
        return True
    toks = v.tokens
    for tok, nxt in zip(toks, toks[1:]):
        if tok.effective_lemma() == "let" and nxt.form.lower() in ("'s", "us", "’s"):
            return True
    return False


def _pos_rule_7_complex(v: _View, lexicon) -> bool:
    if sum(1 for t in v.tokens if t.upos == "VERB") >= 2:
        return True
    return any(t.upos == "SCONJ" for t in v.tokens)


def _pos_rule_8_transitive(v: _View, lexicon) -> bool:
    verb_positions = [i for i, t in enumerate(v.tokens) if t.upos == "VERB"]
    if not verb_positions:
        return False
    first_verb = min(verb_positions)
    return any(t.upos in ("NOUN", "PRON", "PROPN") for t in v.tokens[first_verb + 1 :])


def _pos_rule_9_fallback(v: _View, lexicon) -> bool:
    return True


POS_RULES: tuple[tuple[int, CxnLabel, Callable], ...] = (
    (0, CxnLabel.X, _is_exclusion),
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


# ---------------------------------------------------------------------------
# Running a decision list
# ---------------------------------------------------------------------------

_RULES = {Backend.UD_RULES: UD_RULES, Backend.POS_RULES: POS_RULES}


def _rules(backend: Backend) -> tuple[tuple[int, CxnLabel, Callable], ...]:
    """The backend's decision list; a ``ValueError`` for a non-member."""
    rules = _RULES.get(backend)
    if rules is None:
        members = ", ".join(str(member) for member in Backend)
        raise ValueError(f"backend {backend!r} is not one of {members}")
    return rules


def _tag(
    view: _View, backend: Backend, lexicon: FormulaicLexicon | None
) -> TaggedUtterance:
    """The first matching rule of the backend's decision list; the UD list
    first refuses a view whose tokens lack UPOS or deprel, unless it is a
    transcription-marker exclusion."""
    lexicon = lexicon or FormulaicLexicon.default()
    if backend is Backend.UD_RULES:
        missing = [t.id for t in view.tokens if t.upos == "_" or t.deprel == "_"]
        if missing and not _is_exclusion(view, lexicon):
            raise MissingAnnotationError(
                f"sentence {view.sentence.sent_id}: tokens {missing} lack UPOS or "
                "deprel annotation; use the POS_RULES backend for un-parsed input"
            )
    for ordinal, label, pred in _rules(backend):
        if pred(view, lexicon):
            return TaggedUtterance(view.sentence.sent_id, label, backend, ordinal)
    raise AssertionError("the last rule is total")  # pragma: no cover


def _trace(
    view: _View, backend: Backend, lexicon: FormulaicLexicon | None
) -> list[tuple[int, CxnLabel, bool]]:
    lexicon = lexicon or FormulaicLexicon.default()
    return [(o, label, bool(pred(view, lexicon))) for o, label, pred in _RULES[backend]]


def ud_rule_trace(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> list[tuple[int, CxnLabel, bool]]:
    """Evaluate every UD rule predicate independently (for auditing the
    first-match property); rule 0 is the transcription-marker exclusion."""
    return _trace(_View(sentence), Backend.UD_RULES, lexicon)


def tag_ud(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> TaggedUtterance:
    """First matching step of the UD decision list wins."""
    return _tag(_View(sentence), Backend.UD_RULES, lexicon)


def pos_rule_trace(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> list[tuple[int, CxnLabel, bool]]:
    return _trace(_View(sentence), Backend.POS_RULES, lexicon)


def tag_pos(
    sentence: Sentence, lexicon: FormulaicLexicon | None = None
) -> TaggedUtterance:
    """POS/word-order heuristics; total, never raises."""
    return _tag(_View(sentence), Backend.POS_RULES, lexicon)


# ---------------------------------------------------------------------------
# Batch driver and accuracy
# ---------------------------------------------------------------------------

def tag_utterance(
    sentence: Sentence,
    backend: Backend = Backend.UD_RULES,
    lexicon: FormulaicLexicon | None = None,
) -> TaggedUtterance:
    """Strip an utterance-final tag question, then run one backend on the
    view that stripping built: one view for an utterance that keeps its
    tail, two for one whose tag question is stripped."""
    stripped, view = _strip(_View(sentence))
    tagged = _tag(view, backend, lexicon)
    if stripped is not sentence:  # the removed text is its last diagnostic
        tagged.stripped_tag_question = stripped.diagnostics[-1].message
    return tagged


def _tag_each(
    sentences: Iterable[Sentence], backend: Backend, lexicon: FormulaicLexicon | None
) -> Iterator[tuple[Sentence, TaggedUtterance | None, Exception | None]]:
    """Each sentence with its tag, or with the error that tagging it raised;
    a ``backend`` that is not a ``Backend`` raises before any is tagged."""
    _rules(backend)
    for sentence in sentences:
        try:
            tagged = tag_utterance(sentence, backend, lexicon)
        except Exception as exc:  # noqa: BLE001 - reported per sentence
            yield sentence, None, exc
        else:
            yield sentence, tagged, None


def tag_treebank(
    tb: Treebank,
    backend: Backend = Backend.UD_RULES,
    lexicon: FormulaicLexicon | None = None,
) -> tuple[list[TaggedUtterance], list[tuple[str, Exception]]]:
    """Tag every sentence; per-sentence failures are collected, never fatal."""
    results = list(_tag_each(tb.sentences, backend, lexicon))
    tagged = [item for _, item, error in results if error is None]
    errors = [(s.sent_id, error) for s, _, error in results if error is not None]
    return tagged, errors


@dataclass
class CxnEvalReport:
    accuracy: float
    per_category: dict[CxnLabel, float]
    # gold x predicted counts over CXN_LABEL_ORDER, one row per gold label
    confusion: list[list[int]]
    by_speaker: dict[str, float] = field(default_factory=dict)
    n: int = 0


def load_gold_labels(source: str | Path | bytes | IO) -> dict[str, CxnLabel]:
    """Read a two-column gold TSV: sent_id TAB label."""
    return table_map(source, str, CxnLabel, "a construction label")


def cxn_accuracy(
    pred: Sequence[TaggedUtterance],
    gold: Mapping[str, CxnLabel],
    speakers: Mapping[str, SpeakerRole] | None = None,
) -> CxnEvalReport:
    """Overall accuracy, per-gold-category recall, 10x10 confusion matrix,
    and (when speaker roles are supplied) CS/CDS split accuracies."""
    if not pred:
        raise ValueError("no predictions to score")
    index = {label: i for i, label in enumerate(CXN_LABEL_ORDER)}
    rows = [[0] * len(index) for _ in index]
    correct = 0
    speaker_totals: dict[str, list[int]] = {}
    for item in pred:
        if item.sent_id not in gold:
            raise ValueError(f"sent_id {item.sent_id!r} missing from gold labels")
        g = gold[item.sent_id]
        rows[index[g]][index[item.label]] += 1
        hit = g is item.label
        correct += hit
        if speakers is not None and item.sent_id in speakers:
            role = speakers[item.sent_id]
            if role in (SpeakerRole.CS, SpeakerRole.CDS):
                totals = speaker_totals.setdefault(role.value, [0, 0])
                totals[0] += hit
                totals[1] += 1
    per_category = {
        label: 100.0 * rows[i][i] / n_gold
        for label, i in index.items()
        if (n_gold := sum(rows[i]))
    }
    by_speaker = {
        role: 100.0 * hits / total
        for role, (hits, total) in sorted(speaker_totals.items())
    }
    return CxnEvalReport(
        accuracy=100.0 * correct / len(pred),
        per_category=per_category,
        confusion=rows,
        by_speaker=by_speaker,
        n=len(pred),
    )
