"""Byte-identity gate: ``repr p q --json`` and ``verify --max-n N`` stdout
against recorded sha256s.

``perfbench/reference.json`` holds the sha256 of every ``repr --json``
output with p + q <= 12, recorded from the package as first released.  The
n <= 9 signatures run in every test session; n = 10-12 take several times
longer and run only with ``CLIFFSTRUCT_SLOW=1`` in the environment.  The
``verify`` hashes below are kept inline; ``--max-n 8`` is slow-only too.
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


VERIFY_SHA256 = {
    "--max-n 6 --json": "15a72274dadae52996cf475baed70251c2f881559e9c963fcf9d1e03656587ff",
    "--max-n 6": "e2f94e8f65096f2603703b13afe05f6b08020df61fa1d30f5dc4f238cdfc5612",
    "--max-n 8 --json": "96975cb586d765e035deaf417267a0f8bbd4ad8490d0721cfe143576594e2091",
}
SLOW_VERIFY = {"--max-n 8 --json"}


def _stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue().encode()


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
    data = _stdout(["repr", str(p), str(q), "--json"])
    entry = reference[f"{p},{q}"]
    assert len(data) == entry["bytes"]
    assert hashlib.sha256(data).hexdigest() == entry["sha256"]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(
            args,
            marks=pytest.mark.skipif(
                args in SLOW_VERIFY and not SLOW,
                reason="verify --max-n 8: set CLIFFSTRUCT_SLOW=1",
            ),
            id=args.replace("--", "").replace(" ", "-"),
        )
        for args in VERIFY_SHA256
    ],
)
def test_verify_output_matches_reference(args):
    data = _stdout(["verify", *args.split()])
    assert hashlib.sha256(data).hexdigest() == VERIFY_SHA256[args]
