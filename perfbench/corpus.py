"""Seeded input corpora for the benchmark workloads.

The trees come from ``tests/synth.py`` (imported, never modified) plus the
templates below, which add what the synthetic corpus lacks: utterance-final
tag questions, possessive ``det`` and noun-noun ``nmod`` attachments for the
two lint rules, multi-clause and formulaic utterances, transcription
markers, speaker codes beyond CHI and MOT, and utterances without an age.

Every utterance carries the construction label a human annotator would
give it (``gold``).  ``REFERENCE`` holds, per template, the label and
rule the ``ud`` and ``pos`` decision lists of the reference implementation
assign, so the benchmark can check ``tag-cxn`` output row by row and
predict its ``--gold`` accuracy exactly.

Files are written by this module's own CoNLL-U writer, so the inputs do
not depend on the serializer under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import synth
from helpers import build_sentence

_PRES = {"Mood": "Ind", "Tense": "Pres", "VerbForm": "Fin"}
_GER = {"Tense": "Pres", "VerbForm": "Part"}
_POSS = {"Poss": "Yes", "PronType": "Prs"}

# Speaker codes and their share of utterances.  SIB is not in the default
# role map, so its utterances read as OTHER and are never age-binned.
SPEAKERS = (("CHI", 0.45), ("MOT", 0.30), ("FAT", 0.08), ("INV", 0.05),
            ("ADU", 0.04), ("SIB", 0.08))
NO_AGE_SHARE = 0.12
EXTRA_SHARE = 0.35  # utterances from the templates below, not from synth


@dataclass
class Utterance:
    sent_id: str
    template: str
    gold: str
    tokens: list  # objects with the CoNLL-U token attributes
    speaker: str | None = None
    age: str | None = None  # the comment line's value, CHAT or months
    age_key: str = "age_months"
    age_months: float | None = None
    text: str | None = None


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

# The synthetic CHILDES templates, keyed by their (upos, deprel) sequence.
_SYNTH_TEMPLATES = {
    (("DET", "det"), ("NOUN", "nsubj"), ("VERB", "root"), ("PUNCT", "punct")):
        ("synth-spi", "SPI"),
    (("PRON", "nsubj"), ("VERB", "root"), ("DET", "det"), ("NOUN", "obj"),
     ("PUNCT", "punct")): ("synth-spt", "SPT"),
    (("VERB", "root"), ("DET", "det"), ("NOUN", "obj"), ("PUNCT", "punct")):
        ("synth-imp", "IMP"),
    (("AUX", "aux"), ("PRON", "nsubj"), ("VERB", "root"), ("DET", "det"),
     ("NOUN", "obj"), ("PUNCT", "punct")): ("synth-qyn", "QYN"),
    (("ADV", "root"), ("AUX", "cop"), ("DET", "det"), ("NOUN", "nsubj"),
     ("PUNCT", "punct")): ("synth-qwh", "QWH"),
    (("PRON", "nsubj"), ("AUX", "cop"), ("DET", "det"), ("NOUN", "root"),
     ("PUNCT", "punct")): ("synth-cop", "COP"),
    (("VERB", "root"), ("PROPN", "vocative"), ("PUNCT", "punct")):
        ("synth-voc", "IMP"),
    (("PRON", "nsubj"), ("AUX", "aux"), ("VERB", "root"), ("PUNCT", "punct")):
        ("synth-prog", "SPI"),
    (("PRON", "expl"), ("VERB", "root"), ("DET", "det"), ("NOUN", "nsubj"),
     ("PUNCT", "punct")): ("synth-exist", "COP"),
    (("AUX", "aux"), ("PART", "advmod"), ("VERB", "root"), ("PRON", "obj"),
     ("PUNCT", "punct")): ("synth-neg-imp", "IMP"),
    (("DET", "det"), ("NOUN", "nsubj"), ("AUX", "cop"), ("ADJ", "root"),
     ("PUNCT", "punct")): ("synth-adj-cop", "COP"),
    (("PRON", "nsubj"), ("VERB", "root"), ("PRON", "obj"), ("PUNCT", "punct")):
        ("synth-pron-spt", "SPT"),
    (("NOUN", "root"), ("PUNCT", "punct")): ("synth-noun", "FRA"),
    (("DET", "det"), ("ADJ", "amod"), ("NOUN", "root"), ("PUNCT", "punct")):
        ("synth-np", "FRA"),
}


def _extra_templates(rng: random.Random) -> list[tuple[str, str, list]]:
    """(name, gold label, rows); rows as in ``helpers.build_sentence``."""
    noun, noun2 = rng.sample(synth._NOUNS, 2)
    base, _ = rng.choice(synth._TRANS)
    ibase, ithird, iger = rng.choice(synth._INTR)
    adj = rng.choice(synth._ADJS)
    poss = rng.choice(["my", "your", "his", "her", "our"])
    formula = rng.choice([
        [("thank", "thank", "VERB", 0, "root"), ("you", "you", "PRON", 1, "obj")],
        [("bye", "bye", "INTJ", 0, "root"), ("bye", "bye", "INTJ", 1, "discourse")],
        [("hello", "hello", "INTJ", 0, "root")],
        [("please", "please", "INTJ", 0, "root")],
        [("night", "night", "NOUN", 0, "root"), ("night", "night", "NOUN", 1, "compound")],
    ])
    return [
        ("tagq-cop", "COP", [
            ("it", "it", "PRON", 4, "nsubj"),
            ("is", "be", "AUX", 4, "cop", _PRES),
            ("a", "a", "DET", 4, "det"),
            (noun, noun, "NOUN", 0, "root"),
            (",", ",", "PUNCT", 6, "punct"),
            ("is", "be", "AUX", 4, "parataxis", _PRES),
            ("n't", "not", "PART", 6, "advmod"),
            ("it", "it", "PRON", 6, "nsubj"),
            ("?", "?", "PUNCT", 4, "punct")]),
        ("tagq-spt", "SPT", [
            ("you", "you", "PRON", 2, "nsubj"),
            (base, base, "VERB", 0, "root", _PRES),
            ("the", "the", "DET", 4, "det"),
            (noun, noun, "NOUN", 2, "obj"),
            (",", ",", "PUNCT", 6, "punct"),
            ("do", "do", "AUX", 2, "parataxis", _PRES),
            ("n't", "not", "PART", 6, "advmod"),
            ("you", "you", "PRON", 6, "nsubj"),
            ("?", "?", "PUNCT", 2, "punct")]),
        ("tagq-surface", "SPI", [
            ("the", "the", "DET", 2, "det"),
            (noun, noun, "NOUN", 3, "nsubj"),
            (ithird, ibase, "VERB", 0, "root", _PRES),
            (",", ",", "PUNCT", 5, "punct"),
            ("right", "right", "ADV", 3, "discourse"),
            ("?", "?", "PUNCT", 3, "punct")]),
        ("poss-det", "COP", [
            (poss, poss, "PRON", 2, "det", _POSS),
            (noun, noun, "NOUN", 4, "nsubj"),
            ("is", "be", "AUX", 4, "cop", _PRES),
            (adj, adj, "ADJ", 0, "root"),
            (".", ".", "PUNCT", 4, "punct")]),
        ("poss-ok", "QWH", [
            ("where", "where", "ADV", 0, "root", {"PronType": "Int"}),
            ("is", "be", "AUX", 1, "cop", _PRES),
            (poss, poss, "PRON", 4, "nmod:poss", _POSS),
            (noun, noun, "NOUN", 1, "nsubj"),
            ("?", "?", "PUNCT", 1, "punct")]),
        ("nn-nmod", "SPT", [
            ("I", "I", "PRON", 2, "nsubj"),
            (base, base, "VERB", 0, "root", _PRES),
            ("the", "the", "DET", 5, "det"),
            (noun, noun, "NOUN", 5, "nmod"),
            (noun2, noun2, "NOUN", 2, "obj"),
            (".", ".", "PUNCT", 2, "punct")]),
        ("nn-compound", "COP", [
            ("the", "the", "DET", 3, "det"),
            (noun, noun, "NOUN", 3, "compound"),
            (noun2, noun2, "NOUN", 5, "nsubj"),
            ("is", "be", "AUX", 5, "cop", _PRES),
            (adj, adj, "ADJ", 0, "root"),
            (".", ".", "PUNCT", 5, "punct")]),
        ("multi-ccomp", "COM", [
            ("I", "I", "PRON", 2, "nsubj"),
            ("think", "think", "VERB", 0, "root", _PRES),
            ("the", "the", "DET", 4, "det"),
            (noun, noun, "NOUN", 6, "nsubj"),
            ("is", "be", "AUX", 6, "aux", _PRES),
            (iger, ibase, "VERB", 2, "ccomp", _GER),
            (".", ".", "PUNCT", 2, "punct")]),
        ("multi-advcl", "COM", [
            ("when", "when", "SCONJ", 3, "mark"),
            ("you", "you", "PRON", 3, "nsubj"),
            (ibase, ibase, "VERB", 6, "advcl", _PRES),
            (",", ",", "PUNCT", 3, "punct"),
            ("I", "I", "PRON", 6, "nsubj"),
            ("laugh", "laugh", "VERB", 0, "root", _PRES),
            (".", ".", "PUNCT", 6, "punct")]),
        ("multi-conj", "COM", [
            ("I", "I", "PRON", 2, "nsubj"),
            (base, base, "VERB", 0, "root", _PRES),
            ("the", "the", "DET", 4, "det"),
            (noun, noun, "NOUN", 2, "obj"),
            ("and", "and", "CCONJ", 6, "cc"),
            (ibase, ibase, "VERB", 2, "conj", _PRES),
            (".", ".", "PUNCT", 2, "punct")]),
        ("formulaic", "FOR", formula + [(".", ".", "PUNCT", 1, "punct")]),
        ("unintelligible", "X", [
            ("xxx", "xxx", "X", 0, "root"),
            (".", ".", "PUNCT", 1, "punct")]),
    ]


def _gold_synth(sentence) -> tuple[str, str]:
    key = tuple((t.upos, t.deprel) for t in sentence.tokens)
    try:
        return _SYNTH_TEMPLATES[key]
    except KeyError:
        raise RuntimeError(
            f"tests/synth.py produced an unknown template {key}"
        ) from None


# Label and fired rule the reference implementation's ``ud`` and ``pos``
# decision lists give each template: (ud label, ud rule, pos label, pos
# rule).  Where a label differs from the template's gold label, the
# tagger disagrees with the annotator; the table records it as found.
REFERENCE: dict[str, tuple[str, int, str, int]] = {
    "synth-spi": ("SPI", 11, "SPI", 9),
    "synth-spt": ("SPT", 10, "SPT", 8),
    "synth-imp": ("IMP", 8, "IMP", 6),
    "synth-qyn": ("QYN", 3, "QYN", 3),
    "synth-qwh": ("QWH", 4, "QWH", 2),
    "synth-cop": ("COP", 6, "COP", 5),
    "synth-voc": ("IMP", 8, "IMP", 6),
    "synth-prog": ("SPI", 11, "SPI", 9),
    "synth-exist": ("COP", 6, "COP", 5),
    "synth-neg-imp": ("IMP", 8, "SPT", 8),
    "synth-adj-cop": ("COP", 6, "COP", 5),
    "synth-pron-spt": ("SPT", 10, "SPT", 8),
    "synth-noun": ("FRA", 7, "FRA", 4),
    "synth-np": ("FRA", 7, "FRA", 4),
    "tagq-cop": ("COP", 6, "COP", 5),
    "tagq-spt": ("SPT", 10, "SPT", 8),
    "tagq-surface": ("SPI", 11, "SPI", 9),
    "poss-det": ("COP", 6, "COP", 5),
    "poss-ok": ("QWH", 4, "QWH", 2),
    "nn-nmod": ("SPT", 10, "SPT", 8),
    "nn-compound": ("COP", 6, "COP", 5),
    "multi-ccomp": ("COM", 5, "COM", 7),
    "multi-advcl": ("COM", 5, "COM", 7),
    "multi-conj": ("COM", 5, "COM", 7),
    "formulaic": ("FOR", 1, "FOR", 1),
    "unintelligible": ("X", 0, "X", 0),
}

# Templates whose utterance-final tag question ``tag-cxn`` strips.
TAG_QUESTION_TEMPLATES = frozenset({"tagq-cop", "tagq-spt", "tagq-surface"})


def expected_tag(template: str, backend: str) -> tuple[str, int]:
    ud_label, ud_rule, pos_label, pos_rule = REFERENCE[template]
    return (ud_label, ud_rule) if backend == "ud" else (pos_label, pos_rule)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def _speaker_and_age(rng: random.Random, utt: Utterance) -> None:
    r = rng.random()
    for code, share in SPEAKERS:
        r -= share
        if r < 0:
            break
    utt.speaker = code
    if rng.random() < NO_AGE_SHARE:
        return
    months = rng.uniform(18.0, 60.0)
    if rng.random() < 0.5:
        utt.age = f"{months:.1f}"
        utt.age_months = float(utt.age)
    else:
        years, rest = divmod(months, 12.0)
        days = int((rest % 1) * 30)
        utt.age_key = "child_age"
        utt.age = f"{int(years)};{int(rest):02d}.{days:02d}"
        # CHAT ages read as years * 12 + months + days / 30.4375.
        utt.age_months = int(years) * 12 + int(rest) + days / 30.4375


def childes_corpus(n: int, seed: int, prefix: str = "u") -> list[Utterance]:
    """CHILDES-style utterances: synthetic templates plus the extra ones."""
    rng = random.Random(seed)
    from_synth = [rng.random() >= EXTRA_SHARE for _ in range(n)]
    base = synth.childes_treebank(sum(from_synth), seed=rng.randrange(1 << 30))
    synth_iter = iter(base.sentences)
    out = []
    for i in range(n):
        sent_id = f"{prefix}{seed}-{i + 1:06d}"
        if from_synth[i]:
            sentence = next(synth_iter)
            template, gold = _gold_synth(sentence)
            tokens = sentence.tokens
        else:
            template, gold, rows = rng.choice(_extra_templates(rng))
            tokens = build_sentence(sent_id, rows, comments=False).tokens
        utt = Utterance(sent_id, template, gold, tokens)
        utt.text = " ".join(t.form for t in tokens)
        _speaker_and_age(rng, utt)
        out.append(utt)
    return out


def formal_corpus(n: int, seed: int) -> list[Utterance]:
    tb = synth.formal_treebank(n, seed=seed)
    return [
        Utterance(f"f{seed}-{i + 1:06d}", "formal", "", s.tokens)
        for i, s in enumerate(tb.sentences)
    ]


def random_trees(n: int, seed: int, length: int, prefix: str) -> list[Utterance]:
    rng = random.Random(seed)
    return [
        Utterance(
            f"{prefix}{seed}-{i + 1:06d}", f"random-{length}", "",
            synth.random_valid_sentence(rng, min_len=length, max_len=length).tokens,
        )
        for i in range(n)
    ]


def malformed_corpus(n: int, seed: int) -> list[Utterance]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        sent_id = f"m{seed}-{i + 1:06d}"
        sentence = synth.random_malformed_sentence(rng, sent_id)
        utt = Utterance(sent_id, "malformed", "", sentence.tokens)
        _speaker_and_age(rng, utt)
        out.append(utt)
    return out


# ---------------------------------------------------------------------------
# Prediction files for eval: valid trees at fixed error rates
# ---------------------------------------------------------------------------

_RELABELS = ["nsubj", "obj", "det", "advmod", "amod", "obl", "nmod",
             "discourse", "conj", "dep", "compound", "punct"]


@dataclass
class PredToken:
    id: int
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: dict
    head: int
    deprel: str


def _descendants(heads: dict[int, int], tid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for dep, head in heads.items():
        children.setdefault(head, []).append(dep)
    out = {tid}
    stack = [tid]
    while stack:
        for child in children.get(stack.pop(), []):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def copy_utterance(utt: Utterance, heads=None, labels=None) -> Utterance:
    """A copy with fresh tokens, optionally with new heads and labels."""
    heads = heads or {}
    labels = labels or {}
    tokens = [
        PredToken(t.id, t.form, t.lemma, t.upos, t.xpos, dict(t.feats),
                  heads.get(t.id, t.head), labels.get(t.id, t.deprel))
        for t in utt.tokens
    ]
    return Utterance(utt.sent_id, utt.template, utt.gold, tokens, utt.speaker,
                     utt.age, utt.age_key, utt.age_months, utt.text)


def predictions(corpus: list[Utterance], seed: int, head_rate: float,
                label_rate: float) -> list[Utterance]:
    """Copy each tree, re-attaching non-root tokens to a non-descendant at
    ``head_rate`` and relabelling non-root tokens at ``label_rate``.  The
    root stays the root, so every output is a valid tree."""
    rng = random.Random(seed)
    out = []
    for utt in corpus:
        heads = {t.id: t.head for t in utt.tokens}
        labels = {t.id: t.deprel for t in utt.tokens}
        for t in utt.tokens:
            if heads[t.id] == 0:
                continue
            if rng.random() < head_rate:
                banned = _descendants(heads, t.id)
                choices = [h for h in heads if h not in banned]
                if choices:
                    heads[t.id] = rng.choice(choices)
            if rng.random() < label_rate:
                labels[t.id] = rng.choice(
                    [d for d in _RELABELS if d != labels[t.id]])
        out.append(copy_utterance(utt, heads, labels))
    return out


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _feats(feats: dict) -> str:
    if not feats:
        return "_"
    return "|".join(f"{k}={feats[k]}" for k in sorted(feats, key=str.lower))


def conllu_text(corpus: list[Utterance]) -> str:
    blocks = []
    for utt in corpus:
        lines = [f"# sent_id = {utt.sent_id}"]
        if utt.speaker is not None:
            lines.append(f"# speaker = {utt.speaker}")
        if utt.age is not None:
            lines.append(f"# {utt.age_key} = {utt.age}")
        if utt.text is not None:
            lines.append(f"# text = {utt.text}")
        for t in utt.tokens:
            lines.append("\t".join([
                str(t.id), t.form, t.lemma, t.upos, t.xpos, _feats(t.feats),
                str(t.head), t.deprel, "_", "_",
            ]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n\n"


def write_corpus(path, corpus: list[Utterance]) -> int:
    """Write a CoNLL-U file; returns its size in bytes."""
    data = conllu_text(corpus).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def write_gold_labels(path, corpus: list[Utterance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt in corpus:
            fh.write(f"{utt.sent_id}\t{utt.gold}\n")
