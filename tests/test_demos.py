"""Every script in ``demos/`` runs to completion on the package in ``src/``
and prints the bytes it printed when its digest below was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout. A digest changes only with a change that
# names the new output as intended.
STDOUT_SHA256 = {
    "01_conllu_reading_and_repair.py":
        "d453e3801977e6db39d941d996984cbd53d7f3f2fb74ad3eed3fd78b2d6c03ce",
    "02_parser_evaluation.py":
        "550ab6b1a81132599616940533a9b33100b19fbdf32c59092330001a24c2ad44",
    "03_construction_tagging.py":
        "b0e6da288e83078050f1dcdeb0ada1b1de1268c929c469b2a1726629e2909ad1",
    "04_annotation_linting.py":
        "835edd9027df846bb02785ead603db82f539c2a1fa50634e44cfac8a875392f7",
    "05_development_curves.py":
        "07f4ba7c66482fca7deb990ac58edc711aa0295545d014647b261b0cb67dbde1",
    "06_train_baseline_parser.py":
        "1452e9728450d5cc7ee68c5329ec365e3d217d0208b353fc7ff2b13fca078461",
}


def test_every_demo_has_a_digest():
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
