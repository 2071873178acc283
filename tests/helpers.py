"""Shared builders for test sentences and treebanks."""

from cait.conllu import Sentence, SpeakerRole, Token, Treebank


def build_sentence(
    sent_id,
    rows,
    speaker=SpeakerRole.OTHER,
    age=None,
    text=None,
    comments=True,
):
    """Build a Sentence from compact rows.

    Each row is (form, lemma, upos, head, deprel[, feats[, xpos]]).
    """
    tokens = []
    for i, row in enumerate(rows, 1):
        form, lemma, upos, head, deprel = row[:5]
        feats = dict(row[5]) if len(row) > 5 and row[5] else {}
        xpos = row[6] if len(row) > 6 else "_"
        tokens.append(
            Token(
                id=i,
                form=form,
                lemma=lemma,
                upos=upos,
                xpos=xpos,
                feats=feats,
                head=head,
                deprel=deprel,
            )
        )
    comment_lines = []
    if comments:
        comment_lines.append(f"# sent_id = {sent_id}")
        if speaker is SpeakerRole.CS:
            comment_lines.append("# speaker = CHI")
        elif speaker is SpeakerRole.CDS:
            comment_lines.append("# speaker = MOT")
        if age is not None:
            comment_lines.append(f"# age_months = {age}")
        if text is not None:
            comment_lines.append(f"# text = {text}")
    return Sentence(
        sent_id=sent_id,
        speaker_role=speaker,
        child_age_months=age,
        text=text,
        tokens=tokens,
        comments=comment_lines,
    )


def build_treebank(sentences):
    return Treebank(list(sentences))


def P(head):
    """Sentence-final period attached to the given head."""
    return (".", ".", "PUNCT", head, "punct")


def Q(head):
    """Sentence-final question mark attached to the given head."""
    return ("?", "?", "PUNCT", head, "punct")


def EXCL(head):
    return ("!", "!", "PUNCT", head, "punct")


LONDON_GOLD_ROWS = [
    ("It", "it", "PRON", 4, "nsubj", {}, "PRP"),
    ("was", "be", "AUX", 4, "cop", {}, "VBD"),
    ("in", "in", "ADP", 4, "case", {}, "IN"),
    ("London", "London", "PROPN", 0, "root", {}, "NNP"),
    ("was", "be", "AUX", 4, "parataxis", {}, "VBD"),
    ("n't", "not", "PART", 5, "advmod", {}, "RB"),
    ("it", "it", "PRON", 5, "nsubj", {}, "PRP"),
    ("?", "?", "PUNCT", 4, "punct", {}, "."),
]

LONDON_PRED_ROWS = [
    ("It", "it", "PRON", 4, "nsubj", {}, "PRP"),
    ("was", "be", "AUX", 4, "cop", {}, "VBD"),
    ("in", "in", "ADP", 4, "case", {}, "IN"),
    ("London", "London", "PROPN", 7, "obl", {}, "NNP"),
    ("was", "be", "AUX", 7, "cop", {}, "VBD"),
    ("n't", "not", "PART", 7, "advmod", {}, "RB"),
    ("it", "it", "PRON", 0, "root", {}, "PRP"),
    ("?", "?", "PUNCT", 7, "punct", {}, "."),
]

# A valid tree whose root, the final "?", is stripped with the tag "right".
STRIPPED_ROOT_ROWS = [
    ("that", "that", "PRON", 3, "nsubj"),
    ("'s", "be", "AUX", 3, "cop"),
    ("good", "good", "ADJ", 6, "dep"),
    (",", ",", "PUNCT", 5, "punct"),
    ("right", "right", "INTJ", 3, "discourse"),
    ("?", "?", "PUNCT", 0, "root"),
]


def london_gold():
    return build_sentence(
        "london-tag",
        LONDON_GOLD_ROWS,
        speaker=SpeakerRole.CDS,
        text="It was in London wasn't it?",
    )


def london_pred():
    return build_sentence(
        "london-tag",
        LONDON_PRED_ROWS,
        speaker=SpeakerRole.CDS,
        text="It was in London wasn't it?",
    )
