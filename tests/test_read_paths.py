"""Property tests for the two read paths.

The block reader must give what the frozen line-by-line reader
(``reference_conllu``) gives; ``cxntag._tag_each`` over ``iter_sentences``,
which tags each sentence as the reader yields it, must give what reading
the whole file and tagging it gives; and ``tag-cxn``/``case-study`` must
give the same output whatever ``--jobs`` says.
On the same inputs, writing a lenient read and reading it again gives the
same sentences, and ``normalize`` gives a valid fixed point.
"""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_conllu
import synth
from cait.cli import main
from cait.conllu import (
    ConlluError,
    Strictness,
    Treebank,
    conllu_string,
    default_label_map,
    iter_sentences,
    normalize,
    read_conllu,
    validate,
)
from cait.cxntag import Backend, FormulaicLexicon, _tag_each, tag_utterance

_KINDS = ("valid", "valid", "valid", "childes", "malformed", "fuzz")


def _sentence_lines(kind: str, seed: int) -> list[str]:
    rng = random.Random(seed)
    if kind == "valid":
        sentence = synth.random_valid_sentence(rng, f"v{seed}")
    elif kind == "childes":
        sentence = synth.childes_treebank(1, seed, with_ages=True).sentences[0]
        sentence.comments[0] = f"# sent_id = c{seed}"
    elif kind == "malformed":
        sentence = synth.random_malformed_sentence(rng, f"m{seed}")
    else:
        sentence = synth.random_fuzz_sentence(rng, f"f{seed}")
    return conllu_string(Treebank([sentence])).split("\n")[:-2]


def _set_field(line: str, index: int, value: str) -> str:
    fields = line.split("\t")
    if len(fields) == 10:
        fields[index] = value
    return "\t".join(fields)


def _mutate(lines: list[str], op: str, pos: int) -> list[str]:
    """One line-level mutation at ``pos`` (taken modulo the line count)."""
    lines = list(lines)
    k = pos % len(lines)
    line = lines[k]
    token = not line.startswith("#") and line.count("\t") == 9
    if op == "arabic-id" and token:
        lines[k] = _set_field(line, 0, "٣")  # Nd digit: an integer id
    elif op == "superscript-id" and token:
        lines[k] = _set_field(line, 0, "²")  # No digit: not an id
    elif op == "bad-head" and token:
        lines[k] = _set_field(line, 6, "x")
    elif op == "blank-upos" and token:
        lines[k] = _set_field(line, 3, "_")  # the UD backend cannot tag it
    elif op == "bad-feats" and token:
        lines[k] = _set_field(line, 5, "A=1|A=2" if pos % 2 else "Foo")
    elif op == "drop-tab" and token:
        lines[k] = line.replace("\t", " ", 1)
    elif op == "whitespace-blank" and line == "":
        lines[k] = " \t"[pos % 2]
    elif op == "cr-blank":
        lines.insert(k, "\r")
    elif op == "extra-blank":
        lines.insert(k, "")
    elif op == "drop-blank" and line == "":
        del lines[k]
    elif op == "comment-block":
        lines[k:k] = ["", "# note = no tokens here", ""]
    elif op == "drop-sent-id":
        lines = [x for x in lines if not x.startswith("# sent_id")] or [""]
    elif op == "duplicate-sent-id":
        ids = [x for x in lines if x.startswith("# sent_id")]
        if ids:
            lines[k] = ids[0] if line.startswith("# sent_id") else lines[k]
            lines.append("")
            lines.extend([ids[0], "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_"])
    elif op == "mwt" and token:
        lines.insert(k, "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_")
    elif op == "empty-node" and token:
        lines.insert(k + 1, "1.1\te\t_\t_\t_\t_\t_\t_\t_\t_")
    elif op == "comment-equals":
        lines.insert(k, "#  Speaker\t=\t chi " if pos % 2 else "# Text=\t hi  ")
    elif op == "orphan-mwt" and token:
        # A range whose start is no token id of the sentence.
        lines.insert(k + 1, "90-91\tzz\t_\t_\t_\t_\t_\t_\t_\t_")
    elif op == "orphan-empty-node" and token:
        # An empty node anchored at no token of the sentence.
        lines.insert(k + 1, "90.1\te\t_\t_\t_\t_\t_\t_\t_\t_")
    elif op == "comment" and (token or line.startswith("#")):
        lines.insert(k, "# newpar" if pos % 2 else "# note = a comment")
    return lines


_OPS = ("arabic-id", "superscript-id", "bad-head", "blank-upos", "bad-feats", "drop-tab",
        "whitespace-blank", "cr-blank", "extra-blank", "drop-blank",
        "comment-block", "drop-sent-id", "duplicate-sent-id", "mwt",
        "empty-node", "comment-equals", "orphan-mwt", "orphan-empty-node",
        "comment")


@st.composite
def conllu_texts(draw, kinds=_KINDS) -> bytes:
    """CoNLL-U bytes from synth sentences plus line mutations, CRLF line
    ends, a BOM, leading blank lines and a missing final newline."""
    pieces = draw(st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 10**6)),
        min_size=1, max_size=10,
    ))
    lines: list[str] = []
    for kind, seed in pieces:
        lines += _sentence_lines(kind, seed) + [""]
    for op, pos in draw(st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(0, 10**4)), max_size=3,
    )):
        lines = _mutate(lines, op, pos)
    if draw(st.booleans()):
        lines = [""] * draw(st.integers(1, 2)) + lines
    newline = "\r\n" if draw(st.integers(0, 3)) == 0 else "\n"
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    return text.encode("utf-8")


def _outcome(reader, data: bytes, strictness: Strictness):
    try:
        tb = reader(data, strictness)
    except ConlluError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(s, s.diagnostics) for s in tb.sentences]


@settings(max_examples=300)
@given(conllu_texts())
def test_block_reader_matches_reference_reader(data):
    for strictness in Strictness:
        assert _outcome(read_conllu, data, strictness) == _outcome(
            reference_conllu.read_conllu, data, strictness
        )


def _outcomes(sentences_and_tags):
    """(sent_id, role, age, tag, (error type, message)) for each sentence."""
    return [
        (s.sent_id, s.speaker_role, s.child_age_months, tagged,
         None if error is None else (type(error), str(error)))
        for s, tagged, error in sentences_and_tags
    ]


def _read_then_tag(data: bytes, backend: Backend, lexicon: FormulaicLexicon):
    """The whole-file way: a strict read, then each sentence tagged."""
    try:
        tb = read_conllu(data, Strictness.STRICT)
    except ConlluError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    results = []
    for s in tb.sentences:
        try:
            tagged, error = tag_utterance(s, backend, lexicon), None
        except Exception as exc:  # noqa: BLE001 - recorded, as tag-cxn does
            tagged, error = None, exc
        results.append((s, tagged, error))
    return _outcomes(results)


@settings(max_examples=25)
@given(conllu_texts(), st.sampled_from(Backend))
def test_chunked_tagging_matches_read_then_tag(data, backend):
    lexicon = FormulaicLexicon.default()
    try:
        sentences = iter_sentences(data, Strictness.STRICT)
        got = _outcomes(_tag_each(sentences, backend, lexicon))
    except ConlluError as exc:
        got = type(exc), str(exc), getattr(exc, "line", None)
    assert got == _read_then_tag(data, backend, lexicon)


def _document(*blocks: list[str]) -> bytes:
    return "".join("\n".join(lines) + "\n\n" for lines in blocks).encode("utf-8")


_CHILDES = [_sentence_lines("childes", seed) for seed in range(8)]
# A sentence the UD backend reports as an error, between taggable ones.
_TAG_ERROR = _document(*_CHILDES[:4], _mutate(_CHILDES[4], "blank-upos", -1), *_CHILDES[5:])
# The first sentence again at the end: a strict read fails on the last one.
_LATE_DUPLICATE = _document(*_CHILDES, _CHILDES[0])


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=20)
@given(conllu_texts(kinds=("valid", "childes")))
@example(_TAG_ERROR)
@example(_LATE_DUPLICATE)
def test_tagging_output_does_not_depend_on_jobs(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.conllu")
        path.write_bytes(data)
        results = {}
        for jobs in ("1", "3"):
            tsv = Path(tmp, f"tags{jobs}.tsv")
            tag = _run(["tag-cxn", "--input", str(path), "--jobs", jobs,
                        "--out", str(tsv)])
            curves = _run(["case-study", "--input", str(path), "--jobs", jobs])
            results[jobs] = (tag, tsv.read_bytes() if tsv.exists() else None, curves)
    assert results["1"] == results["3"]


# One malformed FEATS column ("A=1|A=2", then "Foo") in a valid document.
_BAD_FEATS = [_document(_CHILDES[0], _mutate(_CHILDES[1], "bad-feats", pos))
              for pos in (-1, -2)]


@settings(max_examples=300)
@given(conllu_texts())
@example(_LATE_DUPLICATE)
@example(_BAD_FEATS[0])
@example(_BAD_FEATS[1])
def test_strict_read_rejects_exactly_what_validate_reports(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.conllu")
        path.write_bytes(data)
        code, out, _ = _run(["validate", "--input", str(path)])
    try:
        read_conllu(data, Strictness.STRICT)
    except ConlluError:
        assert code == 1
    else:
        assert code == 0
        assert out.endswith(" sentences, 0 with violations\n")


# Hand-annotated CHILDES sentences: speaker, age and text comments, ranges.
_CORPUS = (Path(__file__).parent / "data" / "corpus.conllu").read_bytes()


def _lenient(data: bytes) -> Treebank | None:
    """The lenient read of ``data``; None on a format error, which aborts
    in both modes."""
    try:
        return read_conllu(data, Strictness.LENIENT)
    except ConlluError:
        return None


@settings(max_examples=150)
@given(conllu_texts())
@example(_CORPUS)
def test_lenient_read_write_read_keeps_the_sentences(data):
    tb = _lenient(data)
    if tb is not None:
        again = read_conllu(conllu_string(tb).encode("utf-8"), Strictness.LENIENT)
        assert again.sentences == tb.sentences


@settings(max_examples=150)
@given(conllu_texts())
@example(_CORPUS)
def test_normalize_gives_a_valid_fixed_point(data):
    tb = _lenient(data)
    label_map = default_label_map()
    for sentence in tb.sentences if tb is not None else ():
        once = normalize(sentence, label_map)
        assert validate(once) == []
        twice = normalize(once, label_map)
        assert twice == once
        assert twice.diagnostics == []
