"""Which of numpy, logging and multiprocessing each command loads.

Each row launches ``python -m cait.cli`` with its arguments in a new
process and records the watched modules in ``sys.modules`` at exit. No
command loads numpy, the baseline's training and decoding included, and
none loads logging, at any ``--log-level``. multiprocessing is never
loaded: every command, ``--jobs`` or not, runs in one process, a big input
included. ``import cait`` loads neither ``tempfile`` nor ``shutil``,
which spool output, and ``cait --help`` only the ``shutil`` that argparse's
help formatter loads. Every name that a ``cait`` submodule exports in
``__all__`` exists. With numpy made unimportable, the count tables of the
CLI and of the Python API still come out, every count an ``int``.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cait
from cait.cli import main
from cait.conllu import write_conllu
from synth import childes_treebank

WATCHED = ("logging", "multiprocessing", "numpy")

RECORDER = (
    "import runpy, sys\n"
    "record = sys.argv.pop(1)\n"
    "try:\n"
    "    runpy.run_module('cait.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    f"    loaded = [m for m in {WATCHED!r} if m in sys.modules]\n"
    "    with open(record, 'w') as f:\n"
    "        f.write(' '.join(loaded))\n"
)

# (command line, with {corpus}, {big}, {labels}, {parser}, {tagger} and
# {out} filled in; exit code; the watched modules it loads)
ROWS = [
    ("--help", 0, ""),
    ("validate --input {corpus}", 0, ""),
    ("normalize --input {corpus} --out {out}", 0, ""),
    ("lint --input {corpus} --tsv {out} --fix {out}", 0, ""),
    ("tag-cxn --input {corpus} --jobs 2", 0, ""),
    ("tag-cxn --input {corpus} --jobs 2 --gold {labels}", 0, ""),
    ("tag-cxn --input {big} --jobs 2 --out {out}", 0, ""),
    ("case-study --input {corpus} --jobs 2", 0, ""),
    ("eval --gold {corpus} --pred {corpus}", 0, ""),
    ("eval --gold {corpus} --pred {corpus} --tsv {out}", 0, ""),
    ("eval --gold {corpus} --pred {corpus} --baseline {corpus} --json {out}", 0, ""),
    ("train --input {corpus} --model {out} --epochs 1", 0, ""),
    ("train --kind tagger --input {corpus} --model {out} --epochs 1", 0, ""),
    ("parse --input {corpus} --model {parser}", 0, ""),
    ("tag --input {corpus} --model {tagger}", 0, ""),
    ("--log-level info parse --input {corpus} --model {parser}", 0, ""),
    ("--log-level info case-study --input {corpus} --jobs 1", 0, ""),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    corpus = Path(__file__).parent / "data" / "corpus.conllu"
    big = tmp / "big.conllu"  # over 128 KiB
    write_conllu(childes_treebank(1500, seed=5), big)
    labels = tmp / "labels.tsv"
    labels.write_text("".join(
        line.split(" = ")[1] + "\tX\n"
        for line in corpus.read_text(encoding="utf-8").splitlines()
        if line.startswith("# sent_id = ")
    ), encoding="utf-8")
    models = {}
    for kind in ("parser", "tagger"):
        models[kind] = tmp / f"{kind}.model"
        assert main(["train", "--input", str(corpus), "--model",
                     str(models[kind]), "--kind", kind, "--epochs", "1"]) == 0
    return dict(corpus=corpus, big=big, labels=labels, out=tmp / "out", **models)


@pytest.mark.parametrize("command, code, loaded", ROWS, ids=[r[0] for r in ROWS])
def test_each_command_loads_only_what_it_uses(tmp_path, files, command, code, loaded):
    record = tmp_path / "loaded.txt"
    argv = command.format(**{k: str(v) for k, v in files.items()}).split()
    env = dict(os.environ, PYTHONPATH=str(Path(cait.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", RECORDER, str(record), *argv],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == code, result.stderr
    assert record.read_text(encoding="utf-8") == loaded


NUMPY_BLOCKED = '''
import io, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from cait.cli import main
from cait.conllu import read_conllu
from cait.cxntag import cxn_accuracy, load_gold_labels, tag_treebank
from cait.evaluation import (ConfusionScope, confusion, confusion_delta,
                             evaluate_treebanks, write_matrix_tsv)

corpus, labels, out = sys.argv[1:]
assert main(["eval", "--gold", corpus, "--pred", corpus, "--tsv", out]) == 0
assert main(["tag-cxn", "--input", corpus, "--gold", labels, "--out", out]) == 0
gold = read_conllu(corpus)
pred = read_conllu(corpus)
pred.sentences[0].tokens[0].deprel = "dep"
counts = []
for scope in ConfusionScope:
    matrix = confusion(gold, pred, scope)
    assert matrix == evaluate_treebanks(gold, pred).confusion(scope)
    write_matrix_tsv(matrix.labels, matrix.counts, io.StringIO())
    counts += [v for row in matrix.counts for v in row]
norm = matrix.row_normalized()
delta = confusion_delta(norm, confusion(gold, gold).row_normalized())
write_matrix_tsv(delta.labels, delta.values, io.StringIO())
tagged, _ = tag_treebank(gold)
counts += [v for row in cxn_accuracy(tagged, load_gold_labels(labels)).confusion
           for v in row]
assert counts and {type(v) for v in counts} == {int}
'''


def test_cait_runs_with_numpy_blocked(files):
    args = [str(files[name]) for name in ("corpus", "labels", "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(cait.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED, *args],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "module", [info.name for info in pkgutil.iter_modules(cait.__path__)]
)
def test_every_exported_name_exists(module):
    module = importlib.import_module(f"cait.{module}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


# Output is spooled through tempfile and copied out with shutil, which only
# a command that writes needs; `cait --help` is what start-up time measures.
# Help itself loads shutil: argparse reads the terminal width through it.
SPOOL_PROBE = (
    "import sys\n"
    "try:\n"
    "    exec(sys.argv.pop(1))\n"
    "finally:\n"
    "    print('loaded:', *(m for m in ('shutil', 'tempfile') if m in sys.modules))\n"
)


@pytest.mark.parametrize("code, loaded", [
    ("import cait", "loaded:"),
    ("import cait.cli", "loaded:"),
    ("import runpy; sys.argv[1:] = ['--help']; "
     "runpy.run_module('cait.cli', run_name='__main__', alter_sys=True)",
     "loaded: shutil"),
], ids=["import cait", "import cait.cli", "cait --help"])
def test_start_up_loads_no_spool_modules(code, loaded):
    env = dict(os.environ, PYTHONPATH=str(Path(cait.__file__).parents[1]))
    # -S: no site module, whose .pth hooks may load these modules on their own.
    result = subprocess.run(
        [sys.executable, "-S", "-c", SPOOL_PROBE, code],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == loaded
