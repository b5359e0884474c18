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


# _print_json writes its output in pieces of about this many characters:
# under PYTHONUNBUFFERED=1 stdout is write-through, and one write per piece
# would cost a system call each.
_CHUNK = 1 << 16


def _write_json(obj, write) -> None:
    """Pass the text of ``json.dumps(obj, indent=2, sort_keys=True)``, byte
    for byte, to ``write`` in pieces, without building the whole text.

    With ``indent`` set, ``json`` encodes in pure Python; here each scalar
    goes through ``json.dumps`` on its C path.  The memory rule: the only
    texts kept are those of lists of scalars, once per (object, depth).
    ``representation_to_json_dict`` shares one list per equal K-entry, so
    that is the distinct K-entries, a few KB.  A list of such lists (a
    matrix row) or an object of scalars is joined into one piece and not
    kept; every larger list or object, whole matrices above all, is written
    item by item.  Keeping the text of rows or of anything larger would
    hold the output a second time wherever it seldom repeats.  Object keys
    must be strings.
    """
    lists: dict[int, dict[int, str]] = {}  # depth -> id -> text

    def block(items: list[str], brackets: str, depth: int) -> str:
        if not items:
            return brackets
        inner = "\n" + "  " * (depth + 1)
        return (
            brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * depth + brackets[1]
        )

    def scalar_list(value, depth: int) -> str | None:
        """The text of a list of scalars, or None for any other list."""
        known = lists.setdefault(depth, {})
        text = known.get(id(value))
        if text is None and not any(
            isinstance(v, (list, tuple, dict)) for v in value
        ):
            text = block(list(map(json.dumps, value)), "[]", depth)
            known[id(value)] = text
        return text

    def row(value, depth: int) -> str | None:
        """The text of a list of lists of scalars, or None for any other list."""
        items = list(map(lists.get(depth + 1, {}).get, map(id, value)))
        if None in items:  # some item is new or not a list of scalars
            items = []
            for v in value:
                text = isinstance(v, (list, tuple)) and scalar_list(v, depth + 1)
                if not text:
                    return None
                items.append(text)
        return block(items, "[]", depth)

    def whole(value, depth: int) -> str | None:
        """The text of a value written as one piece: a scalar, a list or
        object of scalars, or a list of lists of scalars; None otherwise."""
        if isinstance(value, dict):
            if not all(isinstance(k, str) for k in value):
                raise TypeError("JSON object keys must be strings")
            if any(isinstance(v, (list, tuple, dict)) for v in value.values()):
                return None
            items = [json.dumps(k) + ": " + json.dumps(value[k])
                     for k in sorted(value)]
            return block(items, "{}", depth)
        if isinstance(value, (list, tuple)):
            return scalar_list(value, depth) or row(value, depth)
        return json.dumps(value)

    def encode(value, depth: int) -> None:
        """Write a value that ``whole`` does not render, item by item, each
        item's text in one piece with the separator before it."""
        if isinstance(value, dict):
            items = [(json.dumps(k) + ": ", value[k]) for k in sorted(value)]
            brackets = "{}"
        else:
            items = [("", v) for v in value]
            brackets = "[]"
        inner = "\n" + "  " * (depth + 1)
        sep = brackets[0] + inner
        for label, item in items:
            text = whole(item, depth + 1)
            if text is None:
                write(sep + label)
                encode(item, depth + 1)
            else:
                write(sep + label + text)
            sep = "," + inner
        write("\n" + "  " * depth + brackets[1])

    text = whole(obj, 0)
    if text is None:
        encode(obj, 0)
    else:
        write(text)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte."""
    pieces: list[str] = []
    _write_json(obj, pieces.append)
    return "".join(pieces)


def _print_json(obj) -> None:
    """Print ``_json_text(obj)`` in writes of about ``_CHUNK`` characters."""
    pieces: list[str] = []
    size = 0

    def write(piece: str) -> None:
        nonlocal size
        pieces.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            sys.stdout.write("".join(pieces))
            pieces.clear()
            size = 0

    _write_json(obj, write)
    pieces.append("\n")
    sys.stdout.write("".join(pieces))


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
