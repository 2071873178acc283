"""Every input goes through the CoNLL-U reader's ``_lines``.

Gold labels, the lexicon, label and role maps, packaged data and model
files follow the CoNLL-U newline rule: a leading BOM is skipped, only
``\\n`` ends a line, and invalid UTF-8 is an error that names the file.
Every input flag reads stdin for "-", at most one per command, and
``train --model -`` writes the model to stdout. A ``tag-cxn --gold`` step
that fails writes nothing, and neither does a ``train`` whose model has a
value that would not load back.
"""

import ast
import io
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from cait import baseline
from cait.cli import main
from cait.conllu import default_label_map, load_label_map, load_role_map, write_conllu
from cait.cxntag import FormulaicLexicon, load_gold_labels
from synth import childes_treebank

SRC = Path(__file__).parent.parent / "src" / "cait"
BOM = "\ufeff".encode("utf-8")

# Characters that str.splitlines treats as line ends and CoNLL-U does not.
LINE_BREAKS_IN_FORMS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                        "\u2028", "\u2029", "\r"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, data: bytes) -> io.TextIOWrapper:
    stdin = io.TextIOWrapper(io.BytesIO(data))
    monkeypatch.setattr(sys, "stdin", stdin)
    return stdin


def sent_ids(corpus_path: Path) -> list[str]:
    return [line.split(" = ", 1)[1]
            for line in corpus_path.read_text(encoding="utf-8").split("\n")
            if line.startswith("# sent_id = ")]


def test_no_module_reads_around_the_one_reader():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("read_text", "read_bytes", "splitlines")):
                calls.append(f"{path.name}:{node.lineno} {node.func.attr}")
    assert calls == []


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _model_bytes(model) -> bytes:
    sink = io.StringIO()
    baseline.save_model(model, sink)
    return sink.getvalue().encode("utf-8")


@pytest.mark.parametrize("char", LINE_BREAKS_IN_FORMS, ids=repr)
def test_models_round_trip_with_line_breaks_inside_forms(char):
    tb = childes_treebank(30, seed=12)
    for sentence in tb.sentences:
        sentence.tokens = [t.copy(form=f"{t.form}{char}x") for t in sentence.tokens]
    parser = baseline.train_parser(tb, epochs=1, seed=0)
    tagger = baseline.train_tagger(tb, epochs=1, seed=0)
    for model in (parser, tagger):
        data = _model_bytes(model)
        assert char in data.decode("utf-8")
        assert baseline.load_model(data).weights == model.weights
    assert baseline.load_model(_model_bytes(tagger)).tagdict == tagger.tagdict


def test_model_file_with_bom_loads_like_one_without():
    model = baseline.train_tagger(childes_treebank(20, seed=3), epochs=1, seed=0)
    data = _model_bytes(model)
    assert baseline.load_model(BOM + data).weights == baseline.load_model(data).weights


@pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf"])
def test_empty_model_file(data):
    with pytest.raises(baseline.ModelFormatError, match="^empty model file$"):
        baseline.load_model(data)


def test_undecodable_model_file():
    with pytest.raises(baseline.ModelFormatError) as info:
        baseline.load_model(b"CAITB1\tparser\t1\n\xff\n")
    assert str(info.value) == (
        "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in "
        "position 16: invalid start byte"
    )


def _cr_treebank(field: str):
    """A treebank whose every ``field`` value but the root's ends in a CR."""
    tb = childes_treebank(20, seed=3)
    for sentence in tb.sentences:
        for tok in sentence.tokens:
            if tok.deprel != "root":
                setattr(tok, field, getattr(tok, field) + "\r")
    return tb


@pytest.mark.parametrize("model, message", [
    (lambda: baseline.train_parser(_cr_treebank("deprel"), epochs=1),
     "cannot save label 'advmod\\r': it ends in a carriage return"),
    (lambda: baseline.train_tagger(_cr_treebank("upos"), epochs=1),
     "cannot save class 'AUX\\r': it ends in a carriage return"),
    (lambda: baseline.TaggerModel({}, {"dog": "NOUN\r"}, ["NOUN"]),
     "cannot save tagdict 'NOUN\\r': it ends in a carriage return"),
])
def test_save_model_refuses_a_last_field_ending_in_a_cr(tmp_path, model, message):
    path = tmp_path / "m.model"
    with pytest.raises(ValueError) as info:
        baseline.save_model(model(), path)
    assert str(info.value) == message
    assert not path.exists()


@pytest.mark.parametrize("kind, field", [("parser", "deprel"), ("tagger", "upos")])
def test_train_writes_no_model_it_cannot_load_back(capsys, tmp_path, kind, field):
    data, model = tmp_path / "cr.conllu", tmp_path / "m.model"
    write_conllu(_cr_treebank(field), data)
    code, out, err = run(capsys, "train", "--input", str(data), "--model",
                         str(model), "--kind", kind, "--epochs", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot save ") and err.count("\n") == 1
    assert not model.exists()


# ---------------------------------------------------------------------------
# Side files
# ---------------------------------------------------------------------------

SIDE_FILES = [
    (load_gold_labels, "# sent_id\tlabel\ns1\tFOR\r\ns2 \t QYN\n"),
    (load_label_map, "nsubj\tnsubj\r\ndobj\tobj\n"),
    (load_role_map, "CHI\tcs\nMOT\tCDS\n"),
    (FormulaicLexicon.from_file, "thank you\r\n# comment\n\nbye bye\n"),
]


@pytest.mark.parametrize("load, text", SIDE_FILES)
def test_side_file_with_bom_reads_like_one_without(tmp_path, load, text):
    plain, with_bom = tmp_path / "plain", tmp_path / "bom"
    plain.write_bytes(text.encode("utf-8"))
    with_bom.write_bytes(BOM + text.encode("utf-8"))
    assert load(with_bom) == load(plain)
    assert load(io.BytesIO(BOM + text.encode("utf-8"))) == load(plain)


def test_bom_lexicon_matches_its_first_pattern(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_bytes(BOM + b"thank you\n")
    assert "Thank you!" in FormulaicLexicon.from_file(path)


@pytest.mark.parametrize("load", [load_gold_labels, load_label_map, load_role_map,
                                  FormulaicLexicon.from_file])
def test_undecodable_side_file_names_the_file(tmp_path, load):
    path = tmp_path / "side.tsv"
    path.write_bytes(b"s1\tFOR\ns2\t\xff\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == (
        f"{path}: input is not valid UTF-8: 'utf-8' codec can't decode byte "
        "0xff in position 10: invalid start byte"
    )


def test_side_file_line_ends_only_at_newline(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_bytes("s1\tFOR\x0cX\n".encode("utf-8"))
    with pytest.raises(ValueError, match=r"line 1: 'FOR\\x0cX' is not a construction"):
        load_gold_labels(path)


@pytest.mark.parametrize("flag", ["--gold", "--lexicon"])
def test_cli_undecodable_side_file_names_the_file(capsys, tmp_path, corpus_path, flag):
    path = tmp_path / "side.tsv"
    path.write_bytes(b"\xff\n")
    code, out, err = run(capsys, "tag-cxn", "--input", str(corpus_path), flag, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: input is not valid UTF-8: ")


# ---------------------------------------------------------------------------
# "-" for every input flag, and two of them a usage error
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def models(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("models")
    tb = childes_treebank(20, seed=4)
    paths = {}
    for kind, train in (("parser", baseline.train_parser),
                        ("tagger", baseline.train_tagger)):
        paths[kind] = tmp / f"{kind}.model"
        baseline.save_model(train(tb, epochs=1, seed=0), paths[kind])
    return paths


@pytest.fixture
def inputs(tmp_path, corpus_path, models):
    """One file for each input flag but --input."""
    files = {"gold": tmp_path / "gold.tsv", "lexicon": tmp_path / "lexicon.txt",
             "label_map": tmp_path / "map.tsv", **models}
    files["gold"].write_text(
        "".join(f"{sid}\tCOP\n" for sid in sent_ids(corpus_path)), encoding="utf-8"
    )
    files["lexicon"].write_text("yeah\nwhat's that\n", encoding="utf-8")
    files["label_map"].write_text("nsubj\tobj\n", encoding="utf-8")
    return files


@pytest.mark.parametrize("command, flag, name", [
    ("tag-cxn", "--gold", "gold"),
    ("tag-cxn", "--lexicon", "lexicon"),
    ("case-study", "--lexicon", "lexicon"),
    ("normalize", "--label-map", "label_map"),
    ("parse", "--model", "parser"),
    ("tag", "--model", "tagger"),
])
def test_stdin_reads_like_the_path(capsys, monkeypatch, corpus_path, inputs,
                                   command, flag, name):
    argv = [command, "--input", str(corpus_path), flag]
    from_path = run(capsys, *argv, str(inputs[name]))
    assert from_path[0] == 0
    feed_stdin(monkeypatch, inputs[name].read_bytes())
    assert run(capsys, *argv, "-") == from_path


def test_train_model_dash_writes_the_model_to_stdout(capsys, monkeypatch, tmp_path,
                                                    corpus_path):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "parser.model"
    argv = ["train", "--input", str(corpus_path), "--epochs", "1", "--model"]
    assert run(capsys, *argv, str(path)) == (0, "", "")
    code, out, err = run(capsys, *argv, "-")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == path.read_bytes()
    assert not Path("-").exists()


@pytest.mark.parametrize("argv, message", [
    (["tag-cxn", "--input", "-", "--gold", "-"],
     "only one of --gold, --input and --lexicon can be '-'"),
    (["normalize", "--input", "-", "--label-map", "-"],
     "only one of --input and --label-map can be '-'"),
    (["parse", "--input", "-", "--model", "-"],
     "only one of --input and --model can be '-'"),
])
def test_two_stdin_inputs_are_a_usage_error(capsys, monkeypatch, corpus_path,
                                            argv, message):
    stdin = feed_stdin(monkeypatch, corpus_path.read_bytes())
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert stdin.buffer.read() == corpus_path.read_bytes()  # stdin left unread


# ---------------------------------------------------------------------------
# A failed tag-cxn --gold step writes nothing
# ---------------------------------------------------------------------------

def test_bad_gold_label_writes_nothing(capsys, tmp_path, corpus_path):
    gold = tmp_path / "bad.tsv"
    gold.write_text("mpi-001\tNOPE\n", encoding="utf-8")
    out_path = tmp_path / "o.tsv"
    for out_args in ([], ["--out", str(out_path)]):
        code, out, err = run(capsys, "tag-cxn", "--input", str(corpus_path),
                             "--gold", str(gold), *out_args)
        assert (code, out) == (1, "")
        assert err == f"error: {gold}: line 1: 'NOPE' is not a construction label\n"
    assert not out_path.exists()


def test_gold_without_a_sent_id_writes_nothing(capsys, tmp_path, corpus_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(f"{sid}\tCOP\n" for sid in sent_ids(corpus_path)[1:]),
                    encoding="utf-8")
    out_path = tmp_path / "o.tsv"
    code, out, err = run(capsys, "tag-cxn", "--input", str(corpus_path),
                         "--gold", str(gold), "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == "error: sent_id 'mpi-001' missing from gold labels\n"
    assert not out_path.exists()


def test_input_read_error_comes_before_a_bad_gold_file(capsys, tmp_path):
    bad_input = tmp_path / "bad.conllu"
    bad_input.write_text("1\tx\n\n", encoding="utf-8")
    gold = tmp_path / "bad.tsv"
    gold.write_text("NOTAB\n", encoding="utf-8")
    code, out, err = run(capsys, "tag-cxn", "--input", str(bad_input),
                         "--gold", str(gold))
    assert (code, out) == (1, "")
    assert err == "error: line 1: expected 10 tab-separated fields, got 2\n"


def test_packaged_files_read_as_before():
    text = (SRC / "data" / "deprel_map_clearnlp.tsv").read_bytes().decode("utf-8")
    rows = [line.split("\t") for line in text.split("\n")
            if line.strip() and not line.startswith("#")]
    assert default_label_map() == {k.strip(): v.strip() for k, v in rows}
    assert "thank you" in FormulaicLexicon.default().patterns


def test_packaged_files_read_from_a_zipped_install(tmp_path):
    archive = tmp_path / "cait.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(SRC.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, Path("cait") / path.relative_to(SRC))
    script = (
        "import cait.conllu, cait.cxntag\n"
        "assert cait.conllu.__file__.startswith(%r)\n"
        "print(len(cait.conllu.default_label_map()),"
        " len(cait.cxntag.FormulaicLexicon.default().patterns))\n" % str(archive)
    )
    env = {**os.environ, "PYTHONPATH": str(archive)}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [str(len(default_label_map())),
                                     str(len(FormulaicLexicon.default().patterns))]
