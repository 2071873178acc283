"""The per-sentence commands read their input as a stream.

``validate``, ``normalize``, ``lint``, ``parse``, ``tag``, ``eval``,
``tag-cxn`` and ``case-study`` keep only what they print, never the
sentences; they still write nothing when the read fails, and ``eval``
raises its errors in the order that reading every file first gave. A path
and stdin follow one newline rule, so they give the same outputs. Peak
memory is bounded by a small multiple of the input size, or for
``validate``, ``normalize`` and ``lint`` by less than it, and generated
inputs hold the parser, the tagger, ``validate``'s rows and the exit-code
contract.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

import synth
from cait import baseline
from cait.cli import main
import reference_conllu
from cait.conllu import ConlluError, Strictness, read_conllu, validate, write_conllu
from test_read_paths import conllu_texts

_CORPUS = (Path(__file__).parent / "data" / "corpus.conllu").read_text(encoding="utf-8")
_BLOCKS = _CORPUS.strip("\n").split("\n\n")


def _document(blocks: list[str]) -> str:
    return "".join(block + "\n\n" for block in blocks)


def _broken(block: str) -> str:
    """The block with a token line of two fields: a format error."""
    return block + "\n9\tbroken"


def _set_first_token(block: str, column: int, value: str) -> str:
    """The block with one column of its first token line set to ``value``."""
    lines = block.split("\n")
    k = next(i for i, line in enumerate(lines) if line.split("\t")[0].isdecimal())
    fields = lines[k].split("\t")
    fields[column] = value
    lines[k] = "\t".join(fields)
    return "\n".join(lines)


def _misaligned(block: str) -> str:
    """The block with its first form changed: the pair does not align."""
    return _set_first_token(block, 1, "zzz")


def _replace(blocks: list[str], k: int, change) -> list[str]:
    blocks = list(blocks)
    blocks[k] = change(blocks[k])
    return blocks


_LATE_DUPLICATE = _BLOCKS + [_BLOCKS[0]]

# name -> (gold, pred, baseline); each input names the defects it has.
_EVAL_INPUTS = {
    "late-gold-read-error-early-pred-read-error": (
        _replace(_BLOCKS, -1, _broken), _replace(_BLOCKS, 0, _broken), _BLOCKS,
    ),
    "pred-read-error-count-mismatch": (
        _BLOCKS, _replace(_BLOCKS[:-1], 5, _broken), _BLOCKS,
    ),
    "count-mismatch-early-alignment-error": (
        _BLOCKS, _replace(_BLOCKS[:-1], 0, _misaligned), _BLOCKS,
    ),
    "late-duplicate-sent-id-in-gold": (_LATE_DUPLICATE, _BLOCKS, _BLOCKS),
    "base-read-error-gold-pred-alignment-error": (
        _BLOCKS, _replace(_BLOCKS, 3, _misaligned), _replace(_BLOCKS, 0, _broken),
    ),
    "two-empty-files": ([], [], _replace(_BLOCKS, 0, _broken)),
    "base-count-mismatch-base-alignment-error": (
        _BLOCKS, _BLOCKS, _replace(_BLOCKS[1:], 0, _misaligned),
    ),
    "base-early-alignment-error-late-read-error": (
        _BLOCKS, _BLOCKS, _replace(_replace(_BLOCKS, 0, _misaligned), -1, _broken),
    ),
    "base-late-read-error-pred-count-mismatch": (
        _BLOCKS, _BLOCKS[:-1], _replace(_BLOCKS, -1, _broken),
    ),
}

# Frozen from the commands that read each whole file before scoring:
# (exit code, stderr) without and with --baseline.
_EVAL_EXPECTED = {
    'base-count-mismatch-base-alignment-error': (
        (0, ''),
        (1, 'error: sentence <treebank>, token 0: sentence counts differ (12 vs 11)\n'),
    ),
    'base-early-alignment-error-late-read-error': (
        (0, ''),
        (1, 'error: line 116: expected 10 tab-separated fields, got 2\n'),
    ),
    'base-late-read-error-pred-count-mismatch': (
        (1, 'error: sentence <treebank>, token 0: sentence counts differ (12 vs 11)\n'),
        (1, 'error: sentence <treebank>, token 0: sentence counts differ (12 vs 11)\n'),
    ),
    'base-read-error-gold-pred-alignment-error': (
        (1, "error: sentence mpi-004, token 1: forms differ ('hello' vs 'zzz')\n"),
        (1, "error: sentence mpi-004, token 1: forms differ ('hello' vs 'zzz')\n"),
    ),
    'count-mismatch-early-alignment-error': (
        (1, 'error: sentence <treebank>, token 0: sentence counts differ (12 vs 11)\n'),
        (1, 'error: sentence <treebank>, token 0: sentence counts differ (12 vs 11)\n'),
    ),
    'late-duplicate-sent-id-in-gold': (
        (1, "error: sentence mpi-001: duplicate sent_id 'mpi-001'\n"),
        (1, "error: sentence mpi-001: duplicate sent_id 'mpi-001'\n"),
    ),
    'late-gold-read-error-early-pred-read-error': (
        (1, 'error: line 116: expected 10 tab-separated fields, got 2\n'),
        (1, 'error: line 116: expected 10 tab-separated fields, got 2\n'),
    ),
    'pred-read-error-count-mismatch': (
        (1, 'error: line 63: expected 10 tab-separated fields, got 2\n'),
        (1, 'error: line 63: expected 10 tab-separated fields, got 2\n'),
    ),
    'two-empty-files': (
        (1, 'error: cannot aggregate an empty score list\n'),
        (1, 'error: cannot aggregate an empty score list\n'),
    ),
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _eval_outcomes(tmp_path: Path, name: str) -> tuple:
    paths = []
    for role, blocks in zip(("gold", "pred", "base"), _EVAL_INPUTS[name]):
        path = tmp_path / f"{name}.{role}.conllu"
        path.write_text(_document(blocks), encoding="utf-8")
        paths.append(str(path))
    argv = ["eval", "--gold", paths[0], "--pred", paths[1]]
    outcomes = []
    for extra in ([], ["--baseline", paths[2]]):
        code, out, err = _run(argv + extra)
        assert code == 0 or out == ""
        outcomes.append((code, err))
    return tuple(outcomes)


@pytest.mark.parametrize("name", sorted(_EVAL_INPUTS))
def test_eval_errors_keep_their_precedence(tmp_path, name):
    assert _eval_outcomes(tmp_path, name) == _EVAL_EXPECTED[name]


def test_eval_reads_gold_from_stdin_once_for_both_passes(monkeypatch, tmp_path):
    gold = tmp_path / "gold.conllu"
    gold.write_text(_CORPUS, encoding="utf-8")
    pred = tmp_path / "pred.conllu"
    pred.write_text(_CORPUS.replace("\tnsubj\t", "\tobj\t"), encoding="utf-8")
    argv = ["eval", "--pred", str(pred), "--baseline", str(gold), "--json", "-"]
    from_file = _run(argv + ["--gold", str(gold)])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(gold.read_bytes())))
    assert _run(argv + ["--gold", "-"]) == from_file
    assert from_file[0] == 0


# ---------------------------------------------------------------------------
# A failed read writes nothing
# ---------------------------------------------------------------------------

def _tree_defect(block: str) -> str:
    """The block with its first token attached to itself."""
    return _set_first_token(block, 6, "1")


# A format error in the last sentence, after clean sentences or after a
# tree defect that a lenient read reports as a diagnostic row.
_LAST_SENTENCE_BROKEN = {
    "clean": _document(_replace(_BLOCKS, -1, _broken)),
    "tree-defect": _document(_replace(_replace(_BLOCKS, -1, _broken), 1, _tree_defect)),
}


@pytest.fixture(scope="module")
def models(tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("models")
    train = tmp / "train.conllu"
    write_conllu(synth.childes_treebank(30, seed=3), train)
    paths = {}
    for kind in ("parser", "tagger"):
        paths[kind] = str(tmp / f"{kind}.model")
        assert main(["train", "--input", str(train), "--model", paths[kind],
                     "--kind", kind, "--epochs", "1"]) == 0
    return paths


def _commands(
    data: str, pred: str, models: dict[str, str], out: Path
) -> dict[str, list[str]]:
    """The streamed commands on ``data`` (the gold file of ``eval``, with
    ``pred`` as prediction and baseline), each writing to files under ``out``."""
    return {
        "validate": ["validate", "--input", data],
        "normalize": ["normalize", "--input", data, "--out", str(out / "normalized")],
        "lint": ["lint", "--input", data, "--tsv", str(out / "lint.tsv"),
                 "--fix", str(out / "fixed")],
        "parse": ["parse", "--input", data, "--model", models["parser"],
                  "--out", str(out / "parsed")],
        "tag": ["tag", "--input", data, "--model", models["tagger"],
                "--out", str(out / "tagged")],
        "eval": ["eval", "--gold", data, "--pred", pred, "--baseline", pred,
                 "--json", str(out / "eval.json"), "--tsv", str(out / "eval.tsv")],
    }


@pytest.mark.parametrize("existing", [False, True], ids=["no-out-file", "out-file"])
@pytest.mark.parametrize("kind", sorted(_LAST_SENTENCE_BROKEN))
def test_a_failed_read_writes_nothing(tmp_path, corpus_path, models, kind, existing):
    data = tmp_path / "in.conllu"
    data.write_text(_LAST_SENTENCE_BROKEN[kind], encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    for name, argv in _commands(str(data), str(corpus_path), models, out).items():
        outputs = [Path(arg) for arg in argv if arg.startswith(str(out))]
        for path in outputs:
            if existing:
                path.write_text("keep\n", encoding="utf-8")
        code, stdout, stderr = _run(argv)
        assert code == 1, name
        assert stdout == "", name
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), name
        for path in outputs:
            if existing:
                assert path.read_text(encoding="utf-8") == "keep\n", name
            else:
                assert not path.exists(), name


# ---------------------------------------------------------------------------
# A path and stdin follow one newline rule
# ---------------------------------------------------------------------------

def _cr_in_field(text: str) -> str:
    """The text with the MISC field of its first token line set to A<CR>B."""
    blocks = text.strip("\n").split("\n\n")
    return _document(_replace(blocks, 0, lambda b: _set_first_token(b, 9, "A\rB")))


# Only "\n" ends a line, whichever way the input comes.
_NEWLINE_INPUTS = {
    "crlf": _CORPUS.replace("\n", "\r\n").encode("utf-8"),
    "cr-crlf": _CORPUS.replace("\n", "\r\r\n").encode("utf-8"),
    "cr-in-field": _cr_in_field(_CORPUS).encode("utf-8"),
    "late-invalid-utf-8": _CORPUS.encode("utf-8") + b"# note = \xff\n",
}


@pytest.mark.parametrize("name", sorted(_NEWLINE_INPUTS))
def test_a_path_and_stdin_give_the_same_result(
    monkeypatch, tmp_path, corpus_path, models, name
):
    data = _NEWLINE_INPUTS[name]
    path = tmp_path / "in.conllu"
    path.write_bytes(data)
    results = {}
    for how, source in (("path", str(path)), ("stdin", "-")):
        out = tmp_path / how
        out.mkdir()
        commands = _commands(source, str(corpus_path), models, out)
        commands.update({
            "eval-pred": ["eval", "--gold", str(corpus_path), "--pred", source,
                          "--json", "-", "--tsv", "-"],
            "tag-cxn": ["tag-cxn", "--input", source, "--out", str(out / "tags")],
            "case-study": ["case-study", "--input", source,
                           "--out", str(out / "curves")],
            "train": ["train", "--input", source, "--model", str(out / "model"),
                      "--epochs", "1"],
        })
        for command, argv in commands.items():
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            outputs = [Path(arg) for arg in argv if arg.startswith(str(out))]
            results[how, command] = _run(argv), [
                p.read_bytes() if p.exists() else None for p in outputs
            ]
    for command in commands:
        assert results["path", command] == results["stdin", command], command
    if name == "cr-in-field":
        assert b"\tA\rB\n" in (tmp_path / "stdin" / "normalized").read_bytes()


def test_normalize_from_stdin_keeps_a_cr_inside_a_field():
    data = _NEWLINE_INPUTS["cr-in-field"]
    env = dict(os.environ, PYTHONPATH=str(Path(baseline.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "cait.cli", "normalize", "--input", "-"],
        input=data, env=env, capture_output=True, check=True,
    )
    line = next(x for x in data.split(b"\n") if b"\r" in x)
    assert line.split(b"\t")[9] == b"A\rB"
    assert [x for x in result.stdout.split(b"\n") if b"\r" in x] == [line]


# ---------------------------------------------------------------------------
# Memory: sentences do not outlive the step that reads them
# ---------------------------------------------------------------------------

def _peak_bytes(argv: list[str]) -> int:
    """tracemalloc's peak for ``main(argv)``, after one untraced run that
    loads the modules the command imports."""
    assert _run(argv)[0] == 0
    gc.collect()
    tracemalloc.start()
    try:
        code = _run(argv)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_eval_with_baseline_holds_no_treebank(tmp_path):
    gold = tmp_path / "gold.conllu"
    write_conllu(synth.childes_treebank(1000, seed=5, with_ages=True), gold)
    argv = ["eval", "--gold", str(gold), "--pred", str(gold), "--baseline",
            str(gold), "--json", str(tmp_path / "eval.json"),
            "--tsv", str(tmp_path / "eval.tsv")]
    assert _peak_bytes(argv) < 10 * gold.stat().st_size


def test_eval_keeps_counters_not_per_sentence_scores(tmp_path):
    # Beyond what validate holds, eval keeps two floats a sentence for
    # each prediction and no per-sentence score objects.
    data = tmp_path / "in.conllu"
    write_conllu(synth.childes_treebank(4000, with_ages=True), data)
    validate_peak = _peak_bytes(["validate", "--input", str(data)])
    argv = ["eval", "--gold", str(data), "--pred", str(data), "--baseline", str(data)]
    assert _peak_bytes(argv) <= 3 * validate_peak


@pytest.mark.parametrize("command", ["normalize", "parse"])
def test_a_rewriting_command_holds_no_treebank(tmp_path, models, command):
    data = tmp_path / "in.conllu"
    write_conllu(synth.childes_treebank(1000, seed=6, with_ages=True), data)
    argv = [command, "--input", str(data), "--out", str(tmp_path / "out.conllu")]
    if command == "parse":
        argv += ["--model", models["parser"]]
    assert _peak_bytes(argv) < 6 * data.stat().st_size


@pytest.mark.parametrize("command", ["tag-cxn", "case-study"])
def test_tagging_holds_no_per_utterance_results(tmp_path, command):
    data = tmp_path / "in.conllu"
    write_conllu(synth.childes_treebank(4000, seed=8, with_ages=True), data)
    validate_peak = _peak_bytes(["validate", "--input", str(data)])
    argv = [command, "--input", str(data), "--out", str(tmp_path / "out")]
    assert _peak_bytes(argv) <= 1.1 * validate_peak


@pytest.mark.parametrize("command", ["validate", "normalize", "lint"])
def test_a_command_holds_less_than_its_input(tmp_path, command):
    data = tmp_path / "in.conllu"
    write_conllu(synth.childes_treebank(4000, seed=9, with_ages=True), data)
    argv = [command, "--input", str(data)]
    if command == "normalize":
        argv += ["--out", str(tmp_path / "out.conllu")]
    if command == "lint":
        argv += ["--fix", str(tmp_path / "fixed.conllu")]
    assert _peak_bytes(argv) < 0.75 * data.stat().st_size


class _Stdin:
    """A stdin that reads a file from its start for each run. A read from a
    file allocates its bytes, where a BytesIO can hand out its buffer."""

    def __init__(self, path: Path):
        self._path = path
        self._files: list[io.BufferedReader] = []

    @property
    def buffer(self) -> io.BufferedReader:
        self._files.append(open(self._path, "rb"))
        return self._files[-1]

    def close(self) -> None:
        for f in self._files:
            f.close()


def test_eval_holds_no_more_with_gold_from_stdin(monkeypatch, tmp_path):
    gold = tmp_path / "gold.conllu"
    write_conllu(synth.childes_treebank(1000, seed=5, with_ages=True), gold)
    argv = ["eval", "--pred", str(gold), "--baseline", str(gold),
            "--json", str(tmp_path / "eval.json")]
    from_path = _peak_bytes(argv + ["--gold", str(gold)])
    # Each run gets a fresh stdin; _peak_bytes runs the command twice.
    monkeypatch.setattr(sys, "stdin", _Stdin(gold))
    with_stdin = _peak_bytes(argv + ["--gold", "-"])
    sys.stdin.close()
    assert with_stdin <= 1.1 * from_path


# ---------------------------------------------------------------------------
# Properties over generated inputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def loaded_models(models):
    return baseline.load_model(models["parser"]), baseline.load_model(models["tagger"])


@settings(max_examples=60)
@given(conllu_texts())
def test_parse_output_validates_and_tag_keeps_the_words(loaded_models, data):
    try:
        tb = read_conllu(data, Strictness.LENIENT)
    except ConlluError:
        return
    parser, tagger = loaded_models
    for sentence in tb.sentences:
        assert validate(baseline.parse(parser, sentence)) == []
        tagged = baseline.tag(tagger, sentence)
        assert [t.form for t in tagged.tokens] == [t.form for t in sentence.tokens]


def _is_diagnostic_row(line: str) -> bool:
    """``sent_id``, code and message, tab-separated."""
    return len(line.split("\t")) >= 3


@settings(max_examples=25)
@given(conllu_texts())
def test_streamed_commands_exit_0_1_or_2_with_error_lines_or_rows(models, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.conllu")
        path.write_bytes(data)
        commands = _commands(str(path), str(path), models, Path(tmp))
        runs = {name: _run(argv) for name, argv in commands.items()}
    for name, (code, _, stderr) in runs.items():
        assert code in (0, 1, 2), name
        for line in stderr.splitlines():
            assert line.startswith("error: ") or _is_diagnostic_row(line), (name, line)


@settings(max_examples=150)
@given(conllu_texts())
def test_validate_reports_tree_violations_then_repeated_sent_ids(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.conllu")
        path.write_bytes(data)
        code, stdout, stderr = _run(["validate", "--input", str(path)])
        try:
            tb = reference_conllu.read_conllu(path, Strictness.LENIENT)
        except ConlluError as exc:
            assert (code, stdout, stderr) == (1, "", f"error: {exc}\n")
            return
    rows: list[str] = []
    seen: set[str] = set()
    bad = 0
    for sentence in tb.sentences:
        codes = [(d.code, d.message) for d in validate(sentence)]
        if sentence.sent_id in seen:
            codes.append(
                ("duplicate-sent-id", f"duplicate sent_id {sentence.sent_id!r}")
            )
        seen.add(sentence.sent_id)
        rows += [f"{sentence.sent_id}\t{c}\t{m}\n" for c, m in codes]
        bad += bool(codes)
    assert stderr == "".join(rows)
    assert stdout == f"{len(tb.sentences)} sentences, {bad} with violations\n"
    assert code == (1 if bad else 0)
    for line in stderr.splitlines():
        assert line.split("\t")[1] not in ("bad-feats", "bad-age", "duplicate-id")
