"""Benchmark the cliffstruct CLI end to end, with a traced run per layer.

    python3 perfbench/run.py --workload repr-large --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one table
    python3 perfbench/run.py --self-test       # the tracer's own checks
    python3 perfbench/run.py --baseline        # the ROADMAP baseline commands

One closed-loop client sends one request at a time.  A request is one
``cliffstruct`` process run from ``src``; the next starts when it has exited.
The seed fixes a sequence of passes.  A pass of ``verify-sweep`` is one
sweep; a pass of ``repr-large`` sends each signature of ``REPR_SIGNATURES``
once, in an order the seed shuffles.  The run always finishes the first
pass, then sends request after request while the next is expected to end
within ``--seconds``.
Every request is checked: a nonzero exit, stdout whose sha256 differs from
``reference.json`` or a false check in a ``verify --json`` report fails it.

With ``--trace 0`` the last line of stdout gives the end-to-end metrics:

* ``setup_s``: launch-to-exit time of ``cliffstruct classify 0 0``
  (interpreter start plus package import), median of one launch before
  each request, after one warm, untimed launch.
* ``wall_s``: time to run a whole pass, the sum over the pass's distinct
  requests of each one's median time.
* ``req_p50_s``: median time of all the run's requests (for
  ``verify-sweep``, whose pass is one request, the same as ``wall_s``).  A
  run holds too few requests for a tail percentile with ten samples beyond.
* ``peak_rss_mb``: peak resident memory of a request's process, the
  largest over distinct requests of each one's median.
* ``ok_ratio``: requests that passed their check / requests attempted,
  that is 1 - failed_ratio, which is 0 on a correct program.

With ``--trace 1`` the run repeats the seed's first pass; each request runs
untraced and then under ``tracer.py``.  The last line gives per-layer
metrics for one traced pass: per span ``.calls``, ``.busy_s`` and
``.self_s``, plus ``core.mul.term_pairs``, ``linalg.add_useful_ratio``,
``trace.overhead_ratio`` (traced pass time / untraced pass time) and
``trace.unattributed_s`` (traced process time outside every span).  Times
are medians over the traced passes.  Each traced request is its own
process, as an untraced one is, so caches start cold in both.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from child import HERE, ROOT, SRC, ChildResult, run_child
from tracer import MARKER, SPAN_NAMES

REFERENCE = HERE / "reference.json"
VERIFY_MAX_N = 6
# Signatures at n = 10-12 whose algebras are matrix algebras over H, C and R
# and the semisimple sum H+H, with outputs of 0.3-2.3 MB; (0, 12) and (6, 6)
# are the ROADMAP baseline commands.  The three H+H signatures at n = 11 cost
# the same, about a fifth of a pass each, and sit in the middle of the set, so
# the median request time is taken among many like requests.  The set is
# fixed and the seed only orders it: signatures of one n and output size
# differ in cost by up to 1.4x, so a per-seed draw among them widened
# req_p50_s's spread between seeds past its bound.
REPR_SIGNATURES = ((0, 10), (1, 10), (0, 11), (4, 7), (8, 3), (0, 12), (6, 6))
SETUP_LAUNCHES = 7
SETUP_ARGV = ("classify", "0", "0")

# Why each workload exists is recorded in BENCHMARK.json.  These are the
# spans each workload is meant to exercise; --self-test fails when one of
# them records no call there.
EXPECTED_SPANS = {
    "verify-sweep": (
        "cli.main",
        "core.mul",
        "linalg.span",
        "idempotents.find_frame",
        "idempotents.is_primitive",
        "representation.spinor_basis",
        "representation.build_representation",
        "verify.verify_signature",
        "verify.verify_representation",
        "verify.brute_force_minimal_ideal_dim",
    ),
    "repr-large": (
        "cli.main",
        "core.mul",
        "linalg.span",
        "idempotents.find_frame",
        "division.division_ring_basis",
        "representation.spinor_basis",
        "representation.build_representation",
        "representation.representation_to_json_dict",
    ),
}

# ROADMAP Baseline, single runs: Python 3.11.7 on a shared 2-core sandbox.
ROADMAP_BASELINE_S = {
    ("verify", "--max-n", "8", "--json"): 31.7,
    ("repr", "6", "6", "--json"): 4.8,
    ("repr", "0", "12", "--json"): 2.4,
}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    sha256: str | None  # expected stdout digest; None for a verify report


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _repr_pass(rng: random.Random, table: dict) -> list[Request]:
    requests = [
        Request(("repr", str(p), str(q), "--json"), table[f"{p},{q}"]["sha256"])
        for p, q in REPR_SIGNATURES
    ]
    rng.shuffle(requests)
    return requests


def passes(workload: str, seed: int, reference: dict) -> Iterator[list[Request]]:
    """Endless passes of a workload; the same seed gives the same passes."""
    rng = random.Random(seed)
    while True:
        if workload == "verify-sweep":
            argv = ("verify", "--max-n", str(VERIFY_MAX_N), "--json", "--seed", str(seed))
            yield [Request(argv, None)]
        elif workload == "repr-large":
            yield _repr_pass(rng, reference["repr"])
        else:
            raise ValueError(f"unknown workload {workload!r}")


def _verify_failure(stdout: bytes, max_n: int) -> str | None:
    try:
        report = json.loads(stdout)
    except ValueError:
        return "verify output is not JSON"
    reports = report.get("reports", ())
    if report.get("max_n") != max_n or len(reports) != (max_n + 1) * (max_n + 2) // 2:
        return "verify report does not cover every signature"
    for sig in reports:
        bad = [c["id"] for c in sig["checks"] if c["pass"] is not True]
        if bad or not sig["checks"]:
            return f"Cl({sig['p']},{sig['q']}) checks failed: {bad}"
    return None


def failure(request: Request, res: ChildResult) -> str | None:
    """Why a request failed, or None when its output is correct."""
    if res.timed_out:
        return "timed out"
    if res.exit_code != 0:
        return f"exit code {res.exit_code}"
    if request.sha256 is None:  # argv is ("verify", "--max-n", N, ...)
        return _verify_failure(res.stdout, int(request.argv[2]))
    if hashlib.sha256(res.stdout).hexdigest() != request.sha256:
        return "stdout differs from the reference output"
    return None


class Ledger:
    """Counts attempted and failed requests and reports each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.log: list[str] = []

    def run(self, request: Request, traced: bool = False) -> ChildResult:
        res = run_child(request.argv, traced)
        self.attempted += 1
        self.log.append(" ".join(request.argv) + (" (traced)" if traced else ""))
        why = failure(request, res)
        if why is not None:
            self.failed += 1
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED {' '.join(request.argv)}: {why} {tail}", file=sys.stderr)
        return res


def launch_setup() -> float:
    res = run_child(SETUP_ARGV)
    if res.exit_code != 0:
        sys.exit(f"setup launch failed: {res.stderr.decode(errors='replace')}")
    return res.wall_s


def end_to_end(workload_passes, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Send requests while the next one is expected to end in time.

    The first pass always runs whole.  One set-up launch precedes each
    request, so set-up time is sampled across the whole run rather than in
    one burst.
    """
    walls: dict = defaultdict(list)
    rss: dict = defaultdict(list)
    setup: list[float] = []
    first = next(workload_passes)
    stream = itertools.chain(first, itertools.chain.from_iterable(workload_passes))
    start = time.perf_counter()
    for i, request in enumerate(stream):
        if i >= len(first):
            expected = statistics.median(walls[request.argv]) + statistics.median(setup)
            if time.perf_counter() - start + expected > seconds:
                break
        setup.append(launch_setup())
        res = ledger.run(request)
        walls[request.argv].append(res.wall_s)
        rss[request.argv].append(res.peak_rss_mb)
    while len(setup) < SETUP_LAUNCHES:
        setup.append(launch_setup())
    medians = [statistics.median(w) for w in walls.values()]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(medians), "s"),
        "req_p50_s": (statistics.median(itertools.chain(*walls.values())), "s"),
        "peak_rss_mb": (max(statistics.median(r) for r in rss.values()), "MB"),
    }
    counts = {
        "setup_launches": len(setup),
        "samples_per_request": {" ".join(k): len(w) for k, w in sorted(walls.items())},
    }
    return metrics, counts


def _trace_summary(res: ChildResult) -> dict | None:
    for line in reversed(res.stderr.decode(errors="replace").splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None  # killed before it could report; the ledger counts it failed


def traced_pass(requests: list[Request], ledger: Ledger, paired: bool) -> dict:
    """Run each request under the tracer and sum its spans over the pass.

    When ``paired``, each request first runs untraced, so the two timings
    of a request are taken back to back on the same machine state.
    """
    total = {
        "calls": dict.fromkeys(SPAN_NAMES, 0),
        "busy_s": dict.fromkeys(SPAN_NAMES, 0.0),
        "self_s": dict.fromkeys(SPAN_NAMES, 0.0),
        "term_pairs": 0,
        "adds": 0,
        "useful_adds": 0,
        "unattributed_s": 0.0,
        "wall_s": 0.0,
        "untraced_wall_s": 0.0,
    }
    for request in requests:
        if paired:
            total["untraced_wall_s"] += ledger.run(request).wall_s
        res = ledger.run(request, traced=True)
        summary = _trace_summary(res)
        if summary is None:
            continue
        for field in ("calls", "busy_s", "self_s"):
            for name in SPAN_NAMES:
                total[field][name] += summary[field][name]
        for field in ("term_pairs", "adds", "useful_adds"):
            total[field] += summary[field]
        total["unattributed_s"] += res.wall_s - summary["covered_s"]
        total["wall_s"] += res.wall_s
    return total


def exact_counts(trace: dict) -> dict:
    """The counts that must repeat exactly for the same requests."""
    counts = {f"{name}.calls": trace["calls"][name] for name in SPAN_NAMES}
    counts["core.mul.term_pairs"] = trace["term_pairs"]
    adds = trace["adds"]
    counts["linalg.add_useful_ratio"] = trace["useful_adds"] / adds if adds else 0.0
    return counts


def per_layer(requests: list[Request], seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Repeat one paired traced pass while another fits in the time left."""
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced.append(traced_pass(requests, ledger, paired=True))
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            break
    metrics = {
        k: (v, "ratio" if k.endswith("ratio") else "count")
        for k, v in exact_counts(traced[0]).items()
    }

    def median(value) -> float:
        return statistics.median(value(t) for t in traced)

    for name in SPAN_NAMES:
        for field in ("busy_s", "self_s"):
            metrics[f"{name}.{field}"] = (median(lambda t: t[field][name]), "s")
    overhead = median(lambda t: t["wall_s"] / t["untraced_wall_s"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.unattributed_s"] = (median(lambda t: t["unattributed_s"]), "s")
    return metrics, {"traced_passes": len(traced)}


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "loadavg_start": os.getloadavg(),
    }
    workload_passes = passes(workload, seed, _load_reference())
    run_child(SETUP_ARGV)  # warm, untimed: compiles the package's .pyc files
    ledger = Ledger()
    if trace:
        metrics, counts = per_layer(next(workload_passes), seconds, ledger)
    else:
        metrics, counts = end_to_end(workload_passes, seconds, ledger)
        ok = ledger.attempted - ledger.failed
        metrics["ok_ratio"] = (ok / ledger.attempted, "ratio")
    meta.update(counts, requests=ledger.log)
    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def self_test(seed: int) -> int:
    """Each span fires on its workload, and counts repeat for one seed."""
    reference = _load_reference()
    problems = []
    for workload, expected in EXPECTED_SPANS.items():
        requests = next(passes(workload, seed, reference))
        ledger = Ledger()
        first, second = (
            exact_counts(traced_pass(requests, ledger, paired=False)) for _ in range(2)
        )
        if ledger.failed:
            problems.append(f"{workload}: {ledger.failed} requests failed")
        problems += [
            f"{workload}: span {s} recorded no call"
            for s in expected
            if not first[f"{s}.calls"]
        ]
        problems += [
            f"{workload}: {k} = {first[k]} then {second[k]}"
            for k in first
            if first[k] != second[k]
        ]
        print(f"{workload}: {json.dumps(first)}")
    for p in problems:
        print(f"SELF-TEST FAILED {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def baseline() -> int:
    """Time the ROADMAP baseline commands (median of three) and print the gap."""
    ledger = Ledger()
    for argv, roadmap_s in ROADMAP_BASELINE_S.items():
        request = Request(argv, None if argv[0] == "verify" else _reference_sha(argv))
        walls = [ledger.run(request).wall_s for _ in range(3)]
        now = statistics.median(walls)
        runs = ", ".join(f"{w:.2f}" for w in walls)
        print(
            f"{' '.join(argv)}: {now:.2f} s now (runs {runs}),"
            f" {roadmap_s} s in ROADMAP, gap {now / roadmap_s - 1:+.0%}"
        )
    return 1 if ledger.failed else 0


def _reference_sha(argv: tuple[str, ...]) -> str:
    return _load_reference()[argv[0]][f"{argv[1]},{argv[2]}"]["sha256"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    # Unwind on SIGTERM too, so that every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cliffstruct" / "cli.py").is_file():
        print(f"no cliffstruct sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args.seed)
    if args.baseline:
        return baseline()
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {
        w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in EXPECTED_SPANS
    }
    print(f"{'workload':<16} {'metric':<16} {'value':>12} unit")
    for workload, result in results.items():
        rows = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        rows["failed_ratio"] = (result["failed"] / result["attempted"], "ratio")
        for name, (value, unit) in rows.items():
            print(f"{workload:<16} {name:<16} {value:>12.6g} {unit}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
