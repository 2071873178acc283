"""Property tests for two promises of the module docstrings.

``baseline.parse``: the output always validates and keeps the words, for
every sentence that a lenient read of generated CoNLL-U yields (malformed
ids, multiword ranges and empty nodes among them).

``cli``: every command maps every failure to exit code 0, 1 or 2 and lets
no exception escape ``main``. On byte- and field-mutated CoNLL-U, a read
error exits 1 with one ``error:`` line, the reader's message, which names a
line, a byte position or a ``sent_id``; the command creates no output file.
"""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cait import baseline
from cait.conllu import ConlluError, Strictness, read_conllu, validate
from synth import childes_treebank
from test_read_paths import _CHILDES, _document, _mutate, _run, conllu_texts

_TREEBANK = childes_treebank(20, seed=5)
_PARSER = baseline.train_parser(_TREEBANK, epochs=1, seed=0)
_TAGGER = baseline.train_tagger(_TREEBANK, epochs=1, seed=0)

# One valid document with one line mutation of each kind the parser must
# survive: ids that are not 1..n, ranges and empty nodes that name no token.
_SHAPES = [
    _document(*_CHILDES[:2], _mutate(_CHILDES[2], op, pos))
    for op, pos in (("arabic-id", 3), ("mwt", 2), ("orphan-mwt", 2),
                    ("empty-node", 3), ("orphan-empty-node", 4))
]


def _lenient(data: bytes):
    try:
        return read_conllu(data, Strictness.LENIENT).sentences
    except ConlluError:  # a format error aborts a lenient read too
        return []


@settings(max_examples=300)
@given(conllu_texts())
@example(_SHAPES[0])
@example(_SHAPES[1])
@example(_SHAPES[2])
@example(_SHAPES[3])
@example(_SHAPES[4])
def test_parse_output_validates_and_keeps_the_words(data):
    for sentence in _lenient(data):
        parsed = baseline.parse(_PARSER, sentence)
        assert validate(parsed) == [], sentence.sent_id
        assert [t.form for t in parsed.tokens] == [t.form for t in sentence.tokens]


# ---------------------------------------------------------------------------
# Every command on mutated input
# ---------------------------------------------------------------------------

_JUNK = ("", "_", "0", "-1", "1.1", "1-2", "x", "٣", "99999999999999999999",
         "A=1|A", "a b", " ")


def _mutate_field(text: str, pos: int, field: int, value: str) -> str:
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines)
            if not line.startswith("#") and line.count("\t") == 9]
    if rows:
        k = rows[pos % len(rows)]
        fields = lines[k].split("\t")
        fields[field] = value
        lines[k] = "\t".join(fields)
    return "\n".join(lines)


def _mutate_bytes(data: bytes, op: str, pos: int) -> bytes:
    k = pos % (len(data) + 1)
    if op == "drop":
        return data[:k] + data[k + 1:]
    if op == "truncate":
        return data[:k]
    # A byte no UTF-8 text holds, a lead byte without its continuation, and
    # bytes that split or join fields and lines.
    inserted = {"bad": b"\xff", "lead": b"\xc3", "tab": b"\t", "newline": b"\n",
                "nul": b"\x00", "cr": b"\r"}[op]
    return data[:k] + inserted + data[k:]


@st.composite
def mutated_documents(draw) -> bytes:
    """Generated CoNLL-U with junk in token fields, then byte mutations."""
    text = draw(conllu_texts()).decode("utf-8")
    for pos, field, value in draw(st.lists(st.tuples(
        st.integers(0, 10**4), st.integers(0, 9), st.sampled_from(_JUNK)
    ), max_size=2)):
        text = _mutate_field(text, pos, field, value)
    data = text.encode("utf-8")
    for op, pos in draw(st.lists(st.tuples(
        st.sampled_from(("drop", "truncate", "bad", "lead", "tab", "newline",
                         "nul", "cr")),
        st.integers(0, 10**5),
    ), max_size=2)):
        data = _mutate_bytes(data, op, pos)
    return data


# (argv after the input path is filled in, the read's strictness, outputs).
# Every command is here, with every output flag it has.
_COMMANDS = (
    (["eval", "--gold", "{in}", "--pred", "{in}", "--baseline", "{in}",
      "--json", "{json}", "--tsv", "{tsv}"], Strictness.STRICT, ("json", "tsv")),
    (["tag-cxn", "--input", "{in}", "--out", "{out}"], Strictness.STRICT, ("out",)),
    (["lint", "--input", "{in}", "--fix", "{fix}", "--tsv", "{tsv}"],
     Strictness.STRICT, ("fix", "tsv")),
    (["case-study", "--input", "{in}", "--backend", "pos", "--out", "{out}"],
     Strictness.STRICT, ("out",)),
    (["train", "--input", "{in}", "--model", "{model}", "--epochs", "1"],
     Strictness.STRICT, ("model",)),
    (["train", "--input", "{in}", "--model", "{model}", "--kind", "tagger",
      "--epochs", "1"], Strictness.STRICT, ("model",)),
    (["parse", "--input", "{in}", "--model", "{parser}", "--out", "{out}"],
     Strictness.LENIENT, ("out",)),
    (["tag", "--input", "{in}", "--model", "{tagger}", "--out", "{out}"],
     Strictness.LENIENT, ("out",)),
    (["validate", "--input", "{in}"], Strictness.LENIENT, ()),
    (["normalize", "--input", "{in}", "--out", "{out}"], Strictness.LENIENT, ("out",)),
)

# What a read error names: a line, a byte position (a bad UTF-8 byte is
# reported on line 0, as ``conllu._lines`` documents) or a sent_id.
_NAMED = re.compile(
    r"error: (line [1-9][0-9]*: |line 0: input is not valid UTF-8: .* in position [0-9]"
    r"|sentence [^\n]*?: )"
)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {"parser": root / "parser.model", "tagger": root / "tagger.model"}
    for name, model in (("parser", _PARSER), ("tagger", _TAGGER)):
        with open(paths[name], "w", encoding="utf-8") as sink:
            baseline.save_model(model, sink)
    return {name: str(path) for name, path in paths.items()}


def _read_error(data: bytes, strictness: Strictness) -> ConlluError | None:
    try:
        read_conllu(data, strictness)
    except ConlluError as exc:
        return exc
    return None


@settings(max_examples=150)
@given(mutated_documents())
@example(b"1\ta\n")  # a format error on line 1
@example(b"# sent_id = a\n1\tb\t_\tX\t_\t_\t1\troot\t_\t_\n")  # a tree error
@example(b"\xff" + _document(_CHILDES[0]))  # a bad UTF-8 byte
def test_every_command_maps_mutated_input_to_a_documented_exit(models, data):
    errors = {strictness: _read_error(data, strictness) for strictness in Strictness}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in ("in", "out", "fix", "tsv",
                                                         "json", "model")}
        paths.update(models)
        Path(paths["in"]).write_bytes(data)
        for argv, strictness, outputs in _COMMANDS:
            argv = [arg.format_map(paths) if arg.startswith("{") else arg
                    for arg in argv]
            for name in outputs:  # left by a command that read cleanly
                Path(paths[name]).unlink(missing_ok=True)
            code, _, err = _run(argv)  # an escaping exception fails the test
            assert code in (0, 1, 2), argv
            error = errors[strictness]
            if error is None:
                continue
            assert code == 1, argv
            lines = [line for line in err.split("\n") if line.startswith("error:")]
            assert lines == [f"error: {error}"], argv
            assert _NAMED.match(lines[0]), lines[0]
            for name in outputs:
                assert not Path(paths[name]).exists(), (argv, name)

