"""Packaging: every console script pyproject.toml declares must resolve to
a callable in the package, the pipeline modules import without scipy, and
every error class is raised somewhere in the package."""

import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

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
