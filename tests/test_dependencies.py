"""The package runs on the standard library alone and declares no dependencies,
and the engine and the oracle share nothing but the positive-region primitives."""

import ast
import re
import sys
from pathlib import Path

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
ENGINE_PROBES = {"class_table", "preserves", "discernibility_masks"}


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
    # The primitives are defined in rough.py, read by the oracle, and
    # re-exported by the package's public surface; no engine path reads them.
    package = ROOT / "src" / "dynred"
    crossings = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "rough.py":
            trees = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                     and f.name in ENGINE_PROBES | {"is_reduct"}]
            assert {f.name for f in trees} == ENGINE_PROBES | {"is_reduct"}
            forbidden = PRIMITIVES
        elif path.name == "oracle.py":
            # The oracle's absorb is the literal frozenset rule, not the engine's.
            trees, forbidden = [tree], ENGINE_PROBES | {"_minimal_masks"}
        elif path.name == "__init__.py":
            continue
        else:
            trees, forbidden = [tree], PRIMITIVES
        for t in trees:
            crossings += [f"{path.name}:{line}: {name}"
                          for line, name in _names(t) if name in forbidden]
    assert crossings == []


def test_clauses_are_absorbed_only_where_they_are_made():
    definitions, callers = [], []
    for path in sorted((ROOT / "src" / "dynred").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_minimal_masks":
                    definitions.append(path.name)
                callers += [f"{path.name}:{node.name}" for _, name in _names(node)
                            if name == "_minimal_masks"]
    assert definitions == ["rough.py"]
    assert callers == ["rough.py:discernibility_masks"]


FROZENSET_PATH = {"frozenset", "all_reducts", "reduct_sets", "canonical_reducts"}


def test_family_layer_and_cli_speak_masks_only():
    # The family analysis and the CLI read the search's bitmasks; the
    # frozenset views are for library callers, not a second path beside them.
    package = ROOT / "src" / "dynred"
    found = []
    for name in ("dynamic.py", "cli.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        found += [f"{name}:{line}: {n}" for line, n in _names(tree) if n in FROZENSET_PATH]
    assert found == []
