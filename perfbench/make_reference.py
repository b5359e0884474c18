"""Record or check the sha256 of each reference CLI output.

    python3 perfbench/make_reference.py           # rewrite reference.json
    python3 perfbench/make_reference.py --check   # compare, exit 1 on a change

``reference.json`` holds ``repr p q --json`` for every signature with
p + q <= 12 and ``idempotents p q --json`` for n = 9 and 10.  It was
generated from the package as first released.  The benchmark gates its
``repr-large`` requests on it; ``--check`` compares every entry, so a change
meant to keep these outputs byte-identical can prove it.  Rewrite the file
only when a change to those outputs is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from child import HERE, run_child

REFERENCE = HERE / "reference.json"
REPR_MAX_N = 12
IDEMPOTENT_NS = (9, 10)


def signatures(ns) -> list[tuple[int, int]]:
    return [(p, n - p) for n in ns for p in range(n + 1)]


def record(subcommand: str, sigs) -> dict:
    table = {}
    for p, q in sigs:
        res = run_child((subcommand, str(p), str(q), "--json"))
        if res.exit_code != 0:
            sys.exit(f"{subcommand} {p} {q} exited with {res.exit_code}")
        table[f"{p},{q}"] = {
            "sha256": hashlib.sha256(res.stdout).hexdigest(),
            "bytes": len(res.stdout),
        }
        print(
            f"{subcommand} {p} {q}: {res.wall_s:.2f} s, {len(res.stdout)} bytes,"
            f" {res.peak_rss_mb:.1f} MB",
            file=sys.stderr,
        )
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    reference = {
        "repr": record("repr", signatures(range(REPR_MAX_N + 1))),
        "idempotents": record("idempotents", signatures(IDEMPOTENT_NS)),
    }
    if not args.check:
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0
    stored = json.loads(REFERENCE.read_text())
    changed = [
        f"{subcommand} {key}"
        for subcommand, table in stored.items()
        for key, entry in table.items()
        if reference[subcommand].get(key) != entry
    ]
    for line in changed:
        print(f"CHANGED {line}")
    print(f"{len(changed)} of {sum(map(len, stored.values()))} outputs changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
