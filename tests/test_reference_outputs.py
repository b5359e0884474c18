"""Byte-identity gate: ``repr p q --json`` against the recorded sha256s.

``perfbench/reference.json`` holds the sha256 of every ``repr --json``
output with p + q <= 12, recorded from the package as first released.  The
n <= 9 signatures run in every test session; n = 10-12 take several times
longer and run only with ``CLIFFSTRUCT_SLOW=1`` in the environment.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from cliffstruct.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
FAST_MAX_N = 9
SLOW = os.environ.get("CLIFFSTRUCT_SLOW") == "1"


def _cases():
    for n in range(13):
        for p in range(n + 1):
            marks = ()
            if n > FAST_MAX_N:
                marks = pytest.mark.skipif(
                    not SLOW, reason="n > 9: set CLIFFSTRUCT_SLOW=1"
                )
            yield pytest.param(p, n - p, marks=marks, id=f"repr-{p}-{n - p}")


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["repr"]


@pytest.mark.parametrize("p, q", _cases())
def test_repr_json_matches_reference(reference, p, q):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repr", str(p), str(q), "--json"])
    assert code == 0
    data = out.getvalue().encode()
    entry = reference[f"{p},{q}"]
    assert len(data) == entry["bytes"]
    assert hashlib.sha256(data).hexdigest() == entry["sha256"]
