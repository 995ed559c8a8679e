"""The package runs on the standard library alone and declares no dependencies.

The classical primitives and the clause reference live in the oracle, and
the engine and the oracle name none of each other's: they share only the
table model, and every read of a table goes through its ``parent`` and
``object_indices``, so only ``table.py`` tells a system from a sub-system.
The engine speaks bitmasks outside its two public frozenset views, the family
layer's records are plain data with support counted only in
``stability_report``, one evaluator checks every law, and every name the
benchmark reads on the package resolves. A process loads only the layers its subcommand runs, and the
package's public names resolve on first access.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "dynred").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "dynred" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


PRIMITIVES = {"positive_region", "condition_classes", "generalized_decision"}
# The oracle's own definitions: the primitives and the clause reference.
ORACLE_ONLY = PRIMITIVES | {"discernibility_function"}
# The engine's reads of a table: the class table, a family's packed rows,
# its probe, the clause build, the search's bitmask absorption, and the
# reduct predicate.
ENGINE_PROBES = {"class_table", "family_classes", "preserves", "pair_masks", "_minimal_masks",
                 "is_reduct"}


def _names(tree):
    """Every identifier a syntax tree names: variables, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]


def test_engine_and_oracle_stay_apart():
    # The primitives and the clause reference are defined in oracle.py and
    # re-exported by the package's public surface. No engine module names the
    # primitives, and the oracle names none of the engine's probes.
    package = ROOT / "src" / "dynred"
    definitions, crossings = [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += [f"{path.name}: {node.name}" for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef) and node.name in ORACLE_ONLY]
        if path.name == "__init__.py":
            continue
        forbidden = ENGINE_PROBES if path.name == "oracle.py" else PRIMITIVES
        crossings += [f"{path.name}:{line}: {name}"
                      for line, name in _names(tree) if name in forbidden]
    assert sorted(definitions) == [f"oracle.py: {name}" for name in sorted(ORACLE_ONLY)]
    assert crossings == []


# The package modules each side may import: the engine's table reads and the
# oracle share the table model and nothing else.
ALLOWED_IMPORTS = {"oracle.py": {"table", "errors"}, "rough.py": {"table"}}


def _package_imports(tree):
    """The package modules a syntax tree imports, relative or absolute; "" is the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "dynred":
            yield node.module.partition(".")[2]
        elif isinstance(node, ast.Import):
            yield from (a.name.partition(".")[2] for a in node.names
                        if a.name.partition(".")[0] == "dynred")


def test_every_table_read_goes_through_the_table_model():
    # A system is the table of all its rows, read through ``parent`` and
    # ``object_indices`` like any other: only table.py tells the two kinds
    # of table apart, and no module keeps an accessor that branches on it.
    package = ROOT / "src" / "dynred"
    crossings, type_tests, accessors = [], [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name in ALLOWED_IMPORTS:
            crossings += [f"{path.name}: {m}" for m in _package_imports(tree)
                          if m not in ALLOWED_IMPORTS[path.name]]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and path.name != "table.py"
                    and any(name == "SubSystem" for _, name in _names(node))):
                type_tests.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef):
                defined = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined = node.id
            else:
                continue
            if defined in {"base_system", "universe"}:
                accessors.append(f"{path.name}:{node.lineno}: {defined}")
    assert crossings == []
    assert type_tests == []
    assert accessors == []


def test_clauses_are_absorbed_only_where_they_are_made():
    definitions, callers = [], []
    for path in sorted((ROOT / "src" / "dynred").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_minimal_masks":
                    definitions.append(path.name)
                callers += [f"{path.name}:{node.name}" for _, name in _names(node)
                            if name == "_minimal_masks"]
    assert definitions == ["reducts.py"]
    assert callers == ["reducts.py:_mmcs"]


def test_the_eight_sets_come_from_one_filter_and_one_report():
    # One support filter makes every stability set: stability_report at 1
    # and at its threshold, and the verifier's T2c ladder on the report's
    # counts. No public wrapper restates it.
    definitions, callers = [], set()
    for path in sorted((ROOT / "src" / "dynred").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_supported":
                    definitions.append(path.name)
                callers |= {f"{path.name}:{node.name}" for _, name in _names(node)
                            if name == "_supported"}
    assert definitions == ["dynamic.py"]
    assert callers == {"dynamic.py:stability_report", "dynamic.py:verify_theorems"}

    tree = ast.parse((ROOT / "src" / "dynred" / "dynamic.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public == {"check_lambda", "analyze_family", "stability_report", "verify_theorems"}


def test_every_law_is_checked_by_one_evaluator():
    # verify_theorems walks one law table. Every TheoremCheck is built by the
    # one evaluator, or by verify_theorems for a law whose hypothesis fails;
    # no per-relation helper restates the evaluator.
    tree = ast.parse((ROOT / "src" / "dynred" / "dynamic.py").read_text(encoding="utf-8"))
    builders, verifier_statuses = set(), []
    for node in tree.body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "TheoremCheck":
                builders.add(where)
                if where == "verify_theorems":
                    verifier_statuses += [arg.value for arg in call.args
                                          if isinstance(arg, ast.Constant)]
    assert builders == {"_evaluate", "verify_theorems"}
    assert verifier_statuses == ["not-applicable"]
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not functions & {"_containment", "_inside_reducts", "_equality"}


RECORDS = {"MemberAnalysis", "FamilyAnalysis", "StabilityReport", "TheoremCheck"}


def test_family_records_are_plain_data_and_support_is_counted_once():
    # The family layer's records hold only fields; the producers do the work.
    # FamilyAnalysis keeps the searches, and stability_report is the one
    # place that counts support from them.
    tree = ast.parse((ROOT / "src" / "dynred" / "dynamic.py").read_text(encoding="utf-8"))
    fields, extra, counting = {}, [], set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in RECORDS:
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            fields[node.name] = [s.target.id for s in body if isinstance(s, ast.AnnAssign)]
            extra += [f"{node.name}:{s.lineno}" for s in body if not isinstance(s, ast.AnnAssign)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if any(name == "Counter" for _, name in _names(node)):
                counting.add(node.name)
    assert set(fields) == RECORDS
    assert extra == []
    assert fields["FamilyAnalysis"] == ["family", "red_s", "core_s", "per_member"]
    assert counting == {"stability_report"}


FROZENSET_PATH = {"frozenset", "all_reducts", "reduct_sets", "canonical_reducts"}
FROZENSET_VIEWS = {"all_reducts", "core_of"}


def test_family_layer_and_cli_speak_masks_only():
    # The engine, the family analysis and the CLI read the search's bitmasks.
    # The public reduct and core views in reducts.py are the only frozensets,
    # kept for library callers and the benchmark's output checks, not a
    # second path beside the masks.
    package = ROOT / "src" / "dynred"
    found = []
    for name in ("rough.py", "reducts.py", "dynamic.py", "cli.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        for node in tree.body:
            if name == "reducts.py" and getattr(node, "name", None) in FROZENSET_VIEWS:
                continue
            found += [f"{name}:{line}: {n}" for line, n in _names(node) if n in FROZENSET_PATH]
    assert found == []


def test_benchmark_reads_resolve_on_the_package():
    # perfbench's output checks and work counts read the package as
    # ``dynred.<name>``; each such name must still resolve once the CLI is
    # imported, or a check would fail or a count read 0 without an error here.
    import dynred
    import dynred.cli  # noqa: F401  (binds the submodule the benchmark reads)

    bench = ROOT / "perfbench"
    sources = sorted(bench.rglob("*.py"))
    assert sources, f"no benchmark sources under {bench}: this test reads the names they use"
    reads = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "dynred"):
                reads.add(node.attr)
    assert "parse_decision_table" in reads
    assert sorted(n for n in reads if not hasattr(dynred, n)) == []


SUBMODULES = ("cli", "dynamic", "errors", "oracle", "output", "reducts", "rough", "table")

# Run with -S -I, so no site hook preloads a module, and -B, so the run writes
# no bytecode beside the sources; argv[1] is the source tree.
IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
loaded = lambda: sorted(m for m in sys.modules if m.startswith("dynred.")
                        or m in ("dataclasses", "fractions", "inspect", "pathlib"))
import dynred, dynred.cli
steps = [["import", None, loaded()]]
for argv in (["reducts"], ["core"], ["reducts", "--exact"],
             ["verify", "--fractions", "0.5,1", "--lambda", "0.75"]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = dynred.cli.run([*argv, "--input", sys.argv[2], "--decision", "d"])
    steps.append([" ".join(argv), status, loaded()])
print(json.dumps(steps))
"""


def _fresh(script, *args):
    argv = [sys.executable, "-S", "-I", "-B", "-c", script, str(ROOT / "src"), *args]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_subcommand_loads_only_its_layers(tmp_path):
    # reducts and core never load the family layer or fractions (and with it
    # decimal); the oracle loads only for --exact. verify needs all three.
    # No command loads dataclasses or inspect: the records are plain classes.
    # None loads pathlib: the CLI opens its input with open().
    csv = tmp_path / "t.csv"
    csv.write_text("a,b,c,d\n0,0,0,0\n1,0,0,1\n0,1,1,1\n", encoding="utf-8")
    static = [f"dynred.{m}" for m in ("cli", "errors", "output", "reducts", "rough", "table")]
    assert _fresh(IMPORT_PROBE, str(csv)) == [
        ["import", None, static],
        ["reducts", 0, static],
        ["core", 0, static],
        ["reducts --exact", 0, sorted([*static, "dynred.oracle"])],
        ["verify --fractions 0.5,1 --lambda 0.75", 0,
         sorted([*static, "dynred.dynamic", "dynred.oracle", "fractions"])],
    ]


PUBLIC_NAMES = [
    "CapacityError", "DEFAULT_MAX_ATTRS", "DEFAULT_MAX_REDUCTS", "DecisionSystem",
    "DiscernibilityMatrix", "DomainError", "EngineError", "Family", "FamilyAnalysis",
    "LAMBDA_GRID", "MemberAnalysis", "MissingValueError", "ParameterError", "ParseError",
    "SamplingPlan", "SchemaError", "SelfCheckError", "SplitMix64", "StabilityReport",
    "SubSystem", "TheoremCheck", "absorb", "all_reducts", "analyze_family",
    "brute_force_core", "brute_force_reducts", "check_lambda", "condition_classes", "core_of",
    "discernibility_function", "discernibility_matrix", "full_subsystem",
    "generalized_decision", "intersect_all", "is_antichain", "is_reduct",
    "literal_dynamic_core", "literal_dynamic_reduct", "literal_generalized_dynamic_core",
    "literal_generalized_dynamic_reduct", "make_subsystem", "parse_decision_table",
    "positive_region", "render_csv", "sample_family", "stability_report", "verify_theorems",
]


def test_public_names_resolve_from_their_defining_modules():
    import importlib

    import dynred

    assert dynred.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"dynred.{dynred._SOURCE[name]}")
        value = getattr(dynred, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    star = {}
    exec("from dynred import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == PUBLIC_NAMES
    assert set(dir(dynred)) >= {*PUBLIC_NAMES, *SUBMODULES}
    # perfbench's work counts read a missing name as absent through this.
    assert getattr(dynred, "no_such_name", None) is None
    with pytest.raises(AttributeError, match="no_such_name"):
        dynred.no_such_name


def test_submodules_resolve_after_a_bare_import():
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import dynred\n"
        f"print(json.dumps([getattr(dynred, m).__name__ for m in {SUBMODULES!r}]))\n"
    )
    assert _fresh(script) == [f"dynred.{m}" for m in SUBMODULES]
