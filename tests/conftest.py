from pathlib import Path

import pytest
from hypothesis import settings

DATA_DIR = Path(__file__).parent / "data"

# Property tests run the same examples on every run: a failure is
# reproducible, and tier-1 time stays fixed.
settings.register_profile("cait", derandomize=True, deadline=None, print_blob=True)
settings.load_profile("cait")


@pytest.fixture
def corpus_path() -> Path:
    return DATA_DIR / "corpus.conllu"


@pytest.fixture
def corpus_bytes(corpus_path) -> bytes:
    return corpus_path.read_bytes()
