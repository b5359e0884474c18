"""Run one cliffstruct CLI process and measure it.

The package runs from the checkout's ``src`` directory, so nothing has to be
installed.  The CLI process is started by ``launch.py``, which times it from
launch to exit and takes its peak RSS from ``os.wait4`` on that one child:
not from ``RUSAGE_CHILDREN``, a running maximum over every child reaped, and
not from a child of this process, whose ``ru_maxrss`` would start at this
process's own peak.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
TRACER = HERE / "tracer.py"

# A request that runs longer than this is killed and counted as failed, so a
# run still ends within its time limit when the program hangs.
REQUEST_TIMEOUT_S = 150.0


@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def command(argv: tuple[str, ...], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(TRACER), *argv]
    return [sys.executable, "-m", "cliffstruct.cli", *argv]


def _drain(proc: subprocess.Popen, report, deadline: float) -> tuple[dict, bool]:
    """Read every pipe to its end; kill the process group at the deadline."""
    chunks: dict = {proc.stdout: [], proc.stderr: [], report: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                os.killpg(proc.pid, signal.SIGKILL)
                timed_out = True
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return {f: b"".join(c) for f, c in chunks.items()}, timed_out


def run_child(argv: tuple[str, ...], traced: bool = False) -> ChildResult:
    """Run ``cliffstruct <argv>`` to completion and measure it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCH), str(report_w), *command(argv, traced)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(report_w,),
            cwd=ROOT,
            env=env,
            start_new_session=True,  # one process group, killed as a whole
        )
    finally:
        os.close(report_w)
    with proc, open(report_r, "rb") as report:
        try:
            out, timed_out = _drain(proc, report, t0 + REQUEST_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    fields = out[report].split()
    if proc.returncode != 0 or len(fields) != 3:
        # The launcher failed or was killed: time it from here instead.
        wall = time.perf_counter() - t0
        fields = [b"%d" % (proc.returncode or -1), b"%r" % wall, b"0"]
    return ChildResult(
        wall_s=float(fields[1]),
        peak_rss_mb=int(fields[2]) / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=int(fields[0]),
        stdout=out[proc.stdout],
        stderr=out[proc.stderr],
        timed_out=timed_out,
    )
