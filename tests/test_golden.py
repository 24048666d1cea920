"""Byte identity of the CLI's outputs: the golden corpus (``golden/record.py``)
runs about fifteen seeded calls, and every file they read and write must match
the digest recorded in ``golden/digests.json``."""

import json

import pytest
from golden.record import DIGESTS, first_difference, run_corpus, toolchain


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_every_call_exits_0(corpus):
    codes, _ = corpus
    assert codes == dict.fromkeys(codes, 0)


def test_outputs_match_recorded_digests(corpus):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["toolchain"] != toolchain():
        pytest.skip(f"digests recorded under {recorded['toolchain']}, this run has {toolchain()}")
    _, files = corpus
    name = first_difference(recorded["files"], files)
    assert name is None, (
        f"{name}: recorded {recorded['files'].get(name)}, got {files.get(name)}"
    )
