"""Command-line front end: classify, idempotents, repr, verify, table.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors (including the p + q cap).

Each command imports the layers it runs: ``classify`` and ``table`` load
only ``classify`` and ``core`` (see the package docstring).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classification_table, classify, render_table_text, table_json
from .core import Signature, blade_name, format_multivector, multivector_to_json_dict


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json`` encodes in pure Python; here each scalar
    goes through ``json.dumps`` on its C path, and a list of scalars met
    again at the same depth reuses its text (``representation_to_json_dict``
    shares equal K-entries).  Object keys must be strings.
    """
    lists: dict[tuple[int, int], str] = {}

    def block(items: list[str], brackets: str, depth: int) -> str:
        if not items:
            return brackets
        inner = "\n" + "  " * (depth + 1)
        return (
            brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * depth + brackets[1]
        )

    def encode(value, depth: int) -> str:
        if isinstance(value, (list, tuple)):
            key = (id(value), depth)
            text = lists.get(key)
            if text is None:
                text = block([encode(v, depth + 1) for v in value], "[]", depth)
                # only lists of scalars are kept: keeping every list would
                # hold the output again in the texts of its rows and matrices
                if not any(isinstance(v, (list, tuple, dict)) for v in value):
                    lists[key] = text
            return text
        if isinstance(value, dict):
            if not all(isinstance(k, str) for k in value):
                raise TypeError("JSON object keys must be strings")
            items = [
                f"{json.dumps(k)}: {encode(value[k], depth + 1)}" for k in sorted(value)
            ]
            return block(items, "{}", depth)
        return json.dumps(value)

    return encode(obj, 0)


def _print_json(obj) -> None:
    print(_json_text(obj))


def _status_line(report) -> str:
    passed = len(report.checks) - len(report.failures())
    status = "pass" if report.passed else "FAIL"
    return f"{report.signature}: {passed}/{len(report.checks)} checks {status}"


def _signature(args) -> Signature:
    return Signature(args.p, args.q)


def _cmd_classify(args) -> int:
    cls = classify(_signature(args))
    if args.json:
        _print_json(cls.to_json_dict())
    else:
        print(cls.describe())
    return 0


def _cmd_table(args) -> int:
    entries = classification_table(args.max_n)
    if args.format == "json":
        _print_json(table_json(entries))
    else:
        print(render_table_text(entries))
    return 0


def _cmd_idempotents(args) -> int:
    from .idempotents import complete_set, find_frame

    sig = _signature(args)
    frame = find_frame(sig)
    idem_set = complete_set(frame)
    if args.json:
        _print_json(
            {
                "p": sig.p,
                "q": sig.q,
                "k": frame.k,
                "frame": list(frame.monomials),
                "idempotents": [
                    {
                        "signs": list(sv),
                        "multivector": multivector_to_json_dict(f),
                    }
                    for sv, f in zip(idem_set.signs, idem_set.idempotents)
                ],
            }
        )
    else:
        names = ", ".join(f"e{blade_name(m)}" for m in frame.monomials)
        print(f"{sig}: k={frame.k}, frame [{names}]")
        for sv, f in zip(idem_set.signs, idem_set.idempotents):
            label = "".join("+" if s > 0 else "-" for s in sv)
            print(f"f[{label}] = {format_multivector(f)}")
    return 0


def _cmd_repr(args) -> int:
    from .division import UNIT_NAMES
    from .representation import (
        build_representation,
        format_kmatrix,
        representation_to_json_dict,
    )

    sig = _signature(args)
    rep = build_representation(sig)
    if args.json:
        _print_json(representation_to_json_dict(rep))
        return 0
    print(rep.algebra_class.describe())
    names = ", ".join(f"e{blade_name(m)}" for m in rep.frame.monomials)
    print(f"frame: [{names}]")
    for ci, comp in enumerate(rep.components):
        print(f"component {ci + 1}:")
        print(f"  f = {format_multivector(comp.basis.idempotent)}")
        units = "; ".join(
            f"{name} = {format_multivector(u)}"
            for name, u in zip(UNIT_NAMES, comp.kbasis.units)
        )
        print(f"  K = {comp.kbasis.ktype}: {units}")
        blades = ", ".join(f"e{blade_name(m)}" for m in comp.basis.blades)
        print(f"  spinor blades: [{blades}]")
        for i, g in enumerate(comp.gammas):
            print(f"  gamma(e{i + 1}) =")
            for line in format_kmatrix(g).splitlines():
                print(f"    {line}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import DEFAULT_SAMPLE_SEED, verify_range, verify_signature

    seed = DEFAULT_SAMPLE_SEED if args.seed is None else args.seed
    if args.max_n is not None:
        if args.p is not None or args.q is not None:
            raise ValueError("verify takes either p q or --max-n, not both")
        summary = verify_range(args.max_n, seed=seed)
        if args.json:
            _print_json(summary.to_json_dict())
        else:
            for report in summary.reports:
                print(_status_line(report))
                for c in report.failures():
                    print(f"  [FAIL] {c.check_id}: {json.dumps(c.witness, sort_keys=True)}")
            print(
                f"{summary.passed_signatures}/{summary.signatures} signatures pass"
            )
        return 0 if summary.passed else 1
    if args.p is None or args.q is None:
        raise ValueError("verify needs p q or --max-n N")
    report = verify_signature(_signature(args), seed=seed)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        for c in report.checks:
            mark = "ok" if c.passed else "FAIL"
            line = f"  [{mark}] {c.check_id}"
            if not c.passed and c.witness is not None:
                line += f": {json.dumps(c.witness, sort_keys=True)}"
            print(line)
        print(_status_line(report))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffstruct",
        description=(
            "Exact structure of real Clifford algebras Cl(p,q): classification,"
            " primitive idempotents, spinor representations, verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pq(sp):
        sp.add_argument("p", type=int, help="number of generators with square +1")
        sp.add_argument("q", type=int, help="number of generators with square -1")

    sp = sub.add_parser("classify", help="structure verdict for Cl(p,q)")
    add_pq(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("table", help="classification table for p + q <= N")
    sp.add_argument("--max-n", type=int, default=8)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("idempotents", help="frame and complete idempotent set")
    add_pq(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_idempotents)

    sp = sub.add_parser("repr", help="spinor representation of the generators")
    add_pq(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_repr)

    sp = sub.add_parser("verify", help="run the structural checks")
    sp.add_argument("p", type=int, nargs="?")
    sp.add_argument("q", type=int, nargs="?")
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for the sampled checks (fixed by default)",
    )
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
