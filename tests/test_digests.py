"""Every model kind's result bytes, through the library and the command line,
equal the committed digests (``tests/digest_matrix.py`` says what they cover
and how to rewrite them)."""

import json

import pytest

from digest_matrix import FIXTURE, POOLED, matrix, stack


def test_results_match_the_digest_fixture():
    fixture = json.loads(FIXTURE.read_text())
    if fixture["stack"] != stack():
        pytest.skip(f"digests were written on {fixture['stack']}, this stack is {stack()}")
    got, want = matrix(), fixture["digests"]
    assert got[POOLED + "/max_workers=2"] == got[POOLED]
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []
