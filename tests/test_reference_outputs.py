"""Byte-identity gate: ``repr p q --json`` and ``verify --max-n N`` stdout
against recorded sha256s.

``perfbench/reference.json`` holds the sha256 of every ``repr --json``
output with p + q <= 12, recorded from the package as first released.  The
``verify`` hashes, among them ``verify --max-n 12`` over the whole range of
p + q, and those of the ``repr p q`` text for n <= 6 are kept inline.  All
of them run in every test session, as do the file's ``idempotents p q
--json`` hashes for n = 9 and 10 and a bound on the peak memory of
``verify 6 6 --json``.
"""

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

import pytest

from cliffstruct.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


VERIFY_SHA256 = {
    "--max-n 6 --json": "15a72274dadae52996cf475baed70251c2f881559e9c963fcf9d1e03656587ff",
    "--max-n 6": "e2f94e8f65096f2603703b13afe05f6b08020df61fa1d30f5dc4f238cdfc5612",
    "--max-n 8 --json": "96975cb586d765e035deaf417267a0f8bbd4ad8490d0721cfe143576594e2091",
    "--max-n 12 --json": "a4be6942ed314a4c0032075c9afe0f8bb02220d96ef5cfd80836f1819f32f61d",
}
# peak RSS bound in MB for ``verify 6 6 --json``, the signature that sets the
# peak of ``verify --max-n 12``
VERIFY_6_6_PEAK_MB = 45

# sha256 of ``repr p q`` stdout (the text form), keyed "p,q"
REPR_TEXT_SHA256 = {
    "0,0": "b91430230638a2d6f2ebe1ba8182a0db6f6e23556d08c509018b6972d5c6613e",
    "0,1": "7fece5bde015ee84b3bfa54f70b8c59184a0a92cbfb40dde8f0aa50fa8daa693",
    "1,0": "edf7033b4a7924d05d6bd6df8a5662effb0ad09bc95fc646a23304a7eac96340",
    "0,2": "11db3187b4c4f545a3e2f262ce3f4b1021cfe5dc8849de0342befbed4c372c15",
    "1,1": "c2fae5de1a0959bee07144dd3257253a5130931944072acdea47200c5284026b",
    "2,0": "54fdf92d296a7b476b054ab56fff011970f0939539811547da99010d51681a50",
    "0,3": "757fb9287e82b0f6c0fc77d933997d574a56b9cb95f0e00eb096d624d1b5e695",
    "1,2": "58305283b314785fef7e988aabedc49bc12cc3034d3fdc9413365bac2a0580e3",
    "2,1": "cb58b297425854c25d300fd2a20ca13ca9838ebc92b3db8752a30c9065f45365",
    "3,0": "30724f5f170e1278882f8967718d9b3ab08663ce41532ceeeb2421fa2e76a487",
    "0,4": "4ea4175a873e9ad01cb95ab1e3595659fc7f8b50a07e820863ec2021c2a9a744",
    "1,3": "f7c7cf38aa42cb96d2064acef6bc298b29364e743d2c796a1bd41f6231d07d49",
    "2,2": "05bc89cc1e65d518e794b2349491590c4b3f1e25a506f35576c95125191453be",
    "3,1": "9d784cf8ef232fd7e96cbcc5d8d438ef439b81b528ea3de1b8fdb116bea10182",
    "4,0": "5596c030bd9d85ee4fc9e10687087764a4ff2f43f5e55e83a39607a5baa590fc",
    "0,5": "8f9f49ef1d9057dc0ce576f57842a09a5a6408be98bda9eb37e69a03fe3afe63",
    "1,4": "4a2988d10822d23028826880c87da6c58bf82e473240d9489bcc6f21ab862cc8",
    "2,3": "21b8696c7c76e26f97b9ae3959c27b15d3c3c27385cca1bfb239b8df7b804058",
    "3,2": "3263c6a160623507a505b50cbad49b3b97ee269b252eb29f2121dfc312de9b6f",
    "4,1": "36dd840502c4abee687f696285c0da97bb8bb14e832530edec249e06a2d4d08c",
    "5,0": "ae628776ab6b1a5a153f6655f2f28caacbb7fa9af4024cc8bb2a5c2d041145d9",
    "0,6": "9e93b12d3f8c519ef6f410e872887abd284e212e5bf813347fcdf636494cc06f",
    "1,5": "1f81904c8a3c178a14cd11def20bfcb14a541c2e735af0fbd5a85323c81fbd12",
    "2,4": "4903f0902275216aeea67e389e3dece1becda2bcf6381b79c064ba33d7fbf8bb",
    "3,3": "85db805b5f549c185c38209b9704e7a6fb292e6aec003b95f137400b254366c3",
    "4,2": "0d49c720e177f885c581b3b365cd81ef8fcc33ffec99fa64b3eea2e7b21634d2",
    "5,1": "7257ad01df570a4c419e12f01dccea9d9c0f91de9877a3a760777548cc891497",
    "6,0": "f0f1efaef1d9fac64c53bc298192283fe2b1b778869bf8a0d38a1e69370910a3",
}


def _stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue().encode()


def _cases():
    for n in range(13):
        for p in range(n + 1):
            yield pytest.param(p, n - p, id=f"repr-{p}-{n - p}")


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["repr"]


@pytest.fixture(scope="module")
def idempotents_reference():
    return json.loads(REFERENCE.read_text())["idempotents"]


@pytest.mark.parametrize("p, q", _cases())
def test_repr_json_matches_reference(reference, p, q):
    data = _stdout(["repr", str(p), str(q), "--json"])
    entry = reference[f"{p},{q}"]
    assert len(data) == entry["bytes"]
    assert hashlib.sha256(data).hexdigest() == entry["sha256"]


@pytest.mark.parametrize(
    "p, q",
    [
        pytest.param(p, n - p, id=f"idempotents-{p}-{n - p}")
        for n in (9, 10)
        for p in range(n + 1)
    ],
)
def test_idempotents_json_matches_reference(idempotents_reference, p, q):
    entry = idempotents_reference[f"{p},{q}"]
    data = _stdout(["idempotents", str(p), str(q), "--json"])
    assert len(data) == entry["bytes"]
    assert hashlib.sha256(data).hexdigest() == entry["sha256"]


@pytest.mark.parametrize(
    "args", VERIFY_SHA256, ids=lambda args: args.replace("--", "").replace(" ", "-")
)
def test_verify_output_matches_reference(args):
    data = _stdout(["verify", *args.split()])
    assert hashlib.sha256(data).hexdigest() == VERIFY_SHA256[args]


@pytest.mark.parametrize(
    "pq", REPR_TEXT_SHA256, ids=lambda pq: "repr-text-" + pq.replace(",", "-")
)
def test_repr_text_matches_reference(pq):
    data = _stdout(["repr", *pq.split(",")])
    assert hashlib.sha256(data).hexdigest() == REPR_TEXT_SHA256[pq]


def test_verify_6_6_peak_rss(monkeypatch):
    monkeypatch.syspath_prepend(str(REFERENCE.parent))
    child = importlib.import_module("child")  # perfbench's measured CLI run
    result = child.run_child(("verify", "6", "6", "--json"))
    assert result.exit_code == 0 and not result.timed_out
    assert result.peak_rss_mb < VERIFY_6_6_PEAK_MB
