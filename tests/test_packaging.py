"""Packaging: every console script pyproject.toml declares must resolve to
a callable in the package, the pipeline modules import without scipy,
every error class is raised somewhere in the package, every module-level
private name or constant is read somewhere in it, every function the
benchmark tracer rebinds exists, every public function, class and method
of the package is read somewhere outside its own definition, and the near
field of every contour moment lives in core."""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

from equilift import builders, core, lifting
from equilift.divisors import generate
from equilift.toast import build_covariant_toast

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "equilift"


def test_console_script_targets_import():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target}"


def test_pipeline_import_leaves_out_scipy_signal_and_integrate():
    # scipy is not a dependency: no scipy module at all may load, signal and
    # integrate included; a fresh interpreter sees what an import really loads
    code = ("import sys, equilift.lifting, equilift.toast, equilift.builders, "
            "equilift.divisors; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == ""


def test_every_error_class_is_raised():
    # an error class that nothing raises is a refusal callers branch on in
    # vain; errors.py itself only defines them
    from equilift import errors
    source = "\n".join(p.read_text() for p in sorted(PACKAGE.glob("*.py"))
                       if p.name != "errors.py")
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.EquiliftError)
               and cls is not errors.EquiliftError]
    assert classes
    unraised = [cls.__name__ for cls in classes
                if not re.search(rf"raise {cls.__name__}\b", source)]
    assert unraised == []


def _module_level_names(tree):
    """Names a module binds at its top level: defs, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def test_no_dead_private_names_or_constants():
    # a module-level _private name or UPPER_CASE constant that no code in
    # the package reads is dead: nothing outside the package may rely on a
    # private name, and a constant nothing reads configures nothing
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _module_level_names(tree)
            if (name.startswith("_") and not name.startswith("__")
                or name.isupper())
            and name not in used]
    assert dead == []


def _tracer_tables():
    """SPANS, REGION_SPANS and REGION_COUNTS of the benchmark tracer, read
    as literals from its source without importing it."""
    tree = ast.parse((ROOT / "liftbench" / "tracing.py").read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SPANS", "REGION_SPANS", "REGION_COUNTS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_functions_exist():
    # the tracer rebinds these names by string; a deleted or renamed one
    # would otherwise surface only in a traced benchmark round
    from equilift.core import CompactRegion
    tables = _tracer_tables()
    assert set(tables) == {"SPANS", "REGION_SPANS", "REGION_COUNTS"}
    missing = [f"{module}.{name}"
               for module, names in tables["SPANS"].values()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"equilift.{module}"), name, None))]
    missing += [f"CompactRegion.{meth}"
                for table in ("REGION_SPANS", "REGION_COUNTS")
                for meth in tables[table].values()
                if not callable(getattr(CompactRegion, meth, None))]
    assert missing == []


def _references(tree):
    """Every name a tree reads: loaded names, attributes, imported names
    and identifier strings (the benchmark tracer rebinds by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    the classes, as (qualified name, definition node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def test_every_public_helper_is_called():
    # a public function, class or method that nothing in the package, the
    # tests or the benchmark reads is a helper that nothing calls; its own
    # body does not count
    files = [p for folder in ("src", "tests", "liftbench")
             for p in sorted((ROOT / folder).rglob("*.py"))]
    refs = Counter()
    for path in files:
        refs.update(_references(ast.parse(path.read_text())))
    unused = [f"{path.name}:{qualname}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualname, node in _public_definitions(
                  ast.parse(path.read_text()))
              if refs[node.name] == Counter(_references(node))[node.name]]
    assert unused == []


def _class_members(node):
    """Names a class body binds as methods or annotated fields."""
    for sub in node.body:
        if isinstance(sub, ast.FunctionDef):
            yield sub.name
        elif isinstance(sub, ast.AnnAssign):
            yield sub.target.id


def test_the_near_field_lives_in_core():
    # one contour engine: only core reads the near-field helpers, no class
    # carries moments of its own, and the package's log-derivatives hand
    # their poles to that engine as a PoleSum
    helpers = {"_near_sum", "_cauchy_kernel"}
    readers = sorted(
        f"{path.name}:{ref}" for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "core.py"
        for ref in set(_references(ast.parse(path.read_text()))) & helpers)
    assert readers == []
    moments = [f"{path.name}:{node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and "dlog_moments" in set(_class_members(node))]
    assert moments == []
    d = generate("poisson", core.Window(-8, 8, -8, 8), seed=3,
                 intensity=0.2)
    psi = lifting.lift_weierstrass(
        d, build_covariant_toast(d, N=2), 2, check_membership=False).psi()
    assert isinstance(psi.dlog, core.PoleSum)
    assert isinstance(builders.weierstrass(d).dlog, core.PoleSum)
