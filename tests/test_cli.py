import json
import math
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import cliffstruct
import cliffstruct.cli as cli
from cliffstruct import (
    Signature,
    build_representation,
    parse_multivector,
    representation_to_json_dict,
)
from cliffstruct.cli import main
from cliffstruct.verify import CheckResult, VerificationReport

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas" / "v1"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_text(capsys):
    code, out = run_cli(capsys, "classify", "3", "0")
    assert code == 0
    assert out == "Cl(3,0) ≅ Mat(2,C), simple, k=1\n"
    code, out = run_cli(capsys, "classify", "0", "0")
    assert code == 0
    assert out == "Cl(0,0) ≅ Mat(1,R), simple, k=0\n"


def test_classify_json_schema(capsys):
    code, out = run_cli(capsys, "classify", "1", "0", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("classify.schema.json"))
    assert data["simple"] is False and data["components"] == 2


def test_classify_cap_exit_code(capsys):
    code = main(["classify", "9", "9"])
    assert code == 2


def test_bad_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "one", "0"])
    assert exc.value.code == 2


def test_table_text_six_rows(capsys):
    code, out = run_cli(capsys, "table", "--max-n", "2", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + 6 rows
    assert "Mat(2,R)" in out


def test_table_byte_stable(capsys):
    _, first = run_cli(capsys, "table", "--max-n", "4", "--format", "text")
    _, second = run_cli(capsys, "table", "--max-n", "4", "--format", "text")
    assert first == second


def test_table_json_schema(capsys):
    code, out = run_cli(capsys, "table", "--max-n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("table.schema.json"))
    assert len(data) == 10


def test_table_cap(capsys):
    assert main(["table", "--max-n", "13"]) == 2


def test_idempotents_text_round_trips(capsys):
    code, out = run_cli(capsys, "idempotents", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Cl(1,1): k=1, frame [e1]"
    sig = Signature(1, 1)
    values = []
    for line in lines[1:]:
        _, text = line.split(" = ", 1)
        values.append(parse_multivector(sig, text))
    assert values[0] + values[1] == sig.scalar(1)
    assert (values[0] * values[1]).is_zero()


def test_idempotents_json_schema(capsys):
    code, out = run_cli(capsys, "idempotents", "2", "1", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("idempotents.schema.json"))
    assert len(data["idempotents"]) == 1 << data["k"]


def test_repr_json_schema(capsys):
    code, out = run_cli(capsys, "repr", "3", "0", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("representation.schema.json"))
    assert data["class"]["K"] == "C"


def test_repr_json_deterministic(capsys):
    _, first = run_cli(capsys, "repr", "2", "1", "--json")
    _, second = run_cli(capsys, "repr", "2", "1", "--json")
    assert first == second
    assert first.encode() == second.encode()


def test_repr_text_semisimple(capsys):
    code, out = run_cli(capsys, "repr", "1", "0")
    assert code == 0
    assert "component 1:" in out and "component 2:" in out
    assert "gamma(e1) =" in out


def test_verify_single_signature(capsys):
    code, out = run_cli(capsys, "verify", "3", "0")
    assert code == 0
    assert "Cl(3,0):" in out and "checks pass" in out


def test_verify_json_schema(capsys):
    code, out = run_cli(capsys, "verify", "1", "0", "--json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("verify_report.schema.json"))


def test_verify_range(capsys):
    code, out = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "10/10 signatures pass"


def test_verify_range_json_schema(capsys):
    code, out = run_cli(capsys, "verify", "--max-n", "2", "--json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("verify_range.schema.json"))


def test_verify_usage_errors(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "1", "0", "--max-n", "2"]) == 2
    assert main(["verify", "--max-n", "13"]) == 2
    capsys.readouterr()
    assert main(["verify", "--max-n", "-1"]) == 2
    assert "max_n must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify"], "verify needs p q or --max-n N"),
        (["verify", "1"], "verify needs p q or --max-n N"),
        (["verify", "1", "0", "--max-n", "2"], "verify takes either p q or --max-n, not both"),
        (["verify", "--max-n", "13"], "max_n = 13 exceeds the supported cap of 12"),
        (["verify", "--max-n", "-1"], "max_n must be nonnegative"),
        (["verify", "9", "9"], "p + q = 18 exceeds the supported cap of 12"),
        (["classify", "9", "9"], "p + q = 18 exceeds the supported cap of 12"),
        (["table", "--max-n", "13"], "max_n = 13 exceeds the supported cap of 12"),
        (["repr", "13", "0"], "p + q = 13 exceeds the supported cap of 12"),
        (["idempotents", "-1", "0"], "signature counts must be nonnegative integers"),
    ],
)
def test_usage_errors_print_one_error_line_and_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerificationReport(
        Signature(1, 1), [CheckResult("idem.count", False, {"count": 0})]
    )
    monkeypatch.setattr("cliffstruct.verify.verify_signature", lambda sig, seed: failing)
    code, out = run_cli(capsys, "verify", "1", "1")
    assert code == 1
    assert "FAIL" in out


def test_multivector_json_schema_from_repr(capsys):
    _, out = run_cli(capsys, "repr", "0", "2", "--json")
    data = json.loads(out)
    schema = load_schema("multivector.schema.json")
    for comp in data["components"]:
        jsonschema.validate(comp["idempotent"], schema)
        for unit in comp["units"]:
            jsonschema.validate(unit, schema)


# ---------------------------------------------------------------------------
# what each command and the package load, each in a fresh interpreter

SRC_DIR = Path(cliffstruct.__file__).resolve().parent.parent


def _fresh(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this package.

    ``-S`` keeps ``site`` and its ``.pth`` files from importing modules that
    would hide an import the package makes itself."""
    env = {"PYTHONPATH": str(SRC_DIR), "PYTHONDONTWRITEBYTECODE": "1"}
    res = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def _loaded_by(argv) -> set[str]:
    """Every module loaded once ``cli.main(argv)`` has run."""
    code = (
        "import contextlib, io, sys\n"
        "from cliffstruct import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        "print(' '.join(sys.modules))\n"
    )
    return set(_fresh(code).split())


BASE = {"cliffstruct", "cliffstruct.classify", "cliffstruct.core", "cliffstruct.cli"}
FRAME = {"cliffstruct.idempotents", "cliffstruct.linalg"}
REPR = FRAME | {"cliffstruct.division", "cliffstruct.representation"}
VERIFY = REPR | {"cliffstruct.verify"}


COMMAND_LAYERS = [
    (["classify", "0", "0"], BASE),
    (["table", "--max-n", "2"], BASE),
    (["idempotents", "1", "1"], BASE | FRAME),
    (["repr", "1", "1", "--json"], BASE | REPR),
    (["verify", "1", "1"], BASE | VERIFY),
]


@pytest.mark.parametrize("argv, loaded", COMMAND_LAYERS)
def test_each_command_loads_only_the_layers_it_runs(argv, loaded):
    assert {m for m in _loaded_by(argv) if m.split(".")[0] == "cliffstruct"} == loaded


def test_every_module_is_loaded_by_some_command():
    # each command's set is pinned above, so a module that none of them
    # loads is one that nothing runs
    modules = {
        f"cliffstruct.{m.name}" for m in pkgutil.iter_modules(cliffstruct.__path__)
    }
    assert modules <= set().union(*(loaded for _, loaded in COMMAND_LAYERS))


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMAND_LAYERS], ids=" ".join)
def test_no_command_loads_dataclasses_inspect_or_typing(argv):
    # inspect alone costs about 10 ms per launch (it imports dis, ast,
    # tokenize and linecache); nothing the package runs needs any of the three
    assert not _loaded_by(argv) & {"dataclasses", "inspect", "typing"}


def _exports(body: str) -> dict:
    code = "import importlib, json, pkgutil, sys\nimport cliffstruct\n" + body
    return json.loads(_fresh(code))


def test_lazy_exports_are_the_submodules_objects():
    out = _exports(
        "exports = {name: getattr(cliffstruct, name) for name in cliffstruct.__all__}\n"
        "mods = [importlib.import_module(f'cliffstruct.{m.name}')\n"
        "        for m in pkgutil.iter_modules(cliffstruct.__path__)]\n"
        "owners = {name: [vars(m)[name] for m in mods if name in vars(m)]\n"
        "          for name in cliffstruct.__all__}\n"
        "print(json.dumps({\n"
        "    'classify': cliffstruct.classify is sys.modules['cliffstruct.classify'].classify,\n"
        "    'orphans': [n for n, objs in owners.items() if not objs],\n"
        "    'differ': [n for n, objs in owners.items()\n"
        "               if any(o is not exports[n] for o in objs)],\n"
        "    'package': [n for n in exports if getattr(cliffstruct, n) is not exports[n]],\n"
        "}))\n"
    )
    assert out == {"classify": True, "orphans": [], "differ": [], "package": []}


def test_lazy_exports_are_listed_and_star_imported():
    out = _exports(
        "listed = set(cliffstruct.__all__) <= set(dir(cliffstruct))\n"
        "namespace = {}\n"
        "exec('from cliffstruct import *', namespace)\n"
        "print(json.dumps({\n"
        "    'listed': listed,\n"
        "    'missing': sorted(set(cliffstruct.__all__) - set(namespace)),\n"
        "    'differ': [n for n in cliffstruct.__all__\n"
        "               if namespace.get(n) is not getattr(cliffstruct, n)],\n"
        "}))\n"
    )
    assert out == {"listed": True, "missing": [], "differ": []}


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cliffstruct.no_such_name
    assert not hasattr(cliffstruct, "verify_everything")


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps, the encoder it replaced


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "3", "1", "--json"),
        ("table", "--max-n", "4", "--format", "json"),
        ("idempotents", "4", "1", "--json"),
        ("repr", "0", "3", "--json"),
        ("repr", "2", "1", "--json"),
        ("repr", "1", "4", "--json"),
        ("verify", "2", "1", "--json"),
        ("verify", "--max-n", "2", "--json"),
    ],
)
def test_json_writer_matches_json_dumps_on_every_subcommand(monkeypatch, capsys, argv):
    """The objects each subcommand hands the writer, with their shared lists."""
    handed = []
    print_json = cli._print_json

    def recorded(obj):
        handed.append(obj)
        print_json(obj)

    monkeypatch.setattr(cli, "_print_json", recorded)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert len(handed) == 1
    assert out == _oracle(handed[0]) + "\n"


def test_json_writer_reuses_a_shared_list_only_at_its_own_depth():
    shared = ["0", 1, [2.5, None]]
    obj = {"b": [shared, shared, {"x": shared}], "a": (shared, ()), "e": {}}
    assert cli._json_text(obj) == _oracle(obj)
    one, two = ["1", "0"], ["-1"]
    row = [one, two]
    twin = [one, two]  # a distinct row list holding the same items
    cases = [
        [row, twin, {"r": twin}],
        {"a": row, "b": [row], "c": [[row]]},  # one row at three depths
        [[one, []], [[], one], [[]]],  # rows that hold an empty list
        [one, "x", row, 2, [one, 3]],  # lists mixed with scalars
        (row, twin, [two, one], (one, two)),  # a matrix of rows
        [{"a b": 1, "a": [2], "a\"": None}, {"a b": 1, "a": 2, "a\"": None}],
    ]
    for case in cases:
        assert cli._json_text(case) == _oracle(case)
    # a matrix is streamed, each row written whole after its separator
    matrix = [row, twin, [two, one]]
    pieces = []
    cli._write_json(matrix, pieces.append)
    assert "".join(pieces) == _oracle(matrix)
    assert len(pieces) == len(matrix) + 1
    for bad in ({1: "key is not a string"}, [{"x": 1}, {2: [3]}]):
        with pytest.raises(TypeError):
            cli._json_text(bad)


class _CountingStdout:
    """A stdout that counts what is written to it and keeps none of it."""

    def __init__(self):
        self.writes = 0
        self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("p, q", [(4, 4), (5, 5), (4, 7)])
def test_print_json_streams_a_large_dump_in_chunks(monkeypatch, p, q):
    """The writer holds the distinct K-entries and about two 64 KB chunks,
    however long the dump and however seldom its rows repeat: Cl(4,4) 104 KB,
    Cl(5,5) 497 KB, Cl(4,7) 634 KB with 72% of its rows distinct.  Building
    the text whole held three times the output; keeping each distinct row's
    text held 1.2 times it for Cl(4,4) and Cl(4,7)."""
    data = representation_to_json_dict(build_representation(Signature(p, q)))
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    tracemalloc.start()
    try:
        cli._print_json(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stdout.chars == len(_oracle(data)) + 1
    assert peak < 3 * cli._CHUNK
    assert stdout.writes <= math.ceil(stdout.chars / cli._CHUNK) + 1


def _json_trees():
    st = pytest.importorskip("hypothesis.strategies")
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | st.text(alphabet=st.characters(), max_size=6)
    )
    trees = st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), kids, max_size=4),
        max_leaves=20,
    )
    # the same list object at two depths, and twice at one depth
    return st.builds(
        lambda tree, shared: {"s": shared, "deep": [[shared, tree, shared]]},
        trees,
        st.lists(trees, max_size=3),
    )


def test_json_writer_matches_json_dumps_on_random_trees():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_json_trees())
    def check(obj):
        assert cli._json_text(obj) == _oracle(obj)

    check()
