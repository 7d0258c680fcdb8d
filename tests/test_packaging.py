"""Packaging: every console script pyproject.toml declares must resolve to
a callable in the package, and the pipeline modules import without scipy."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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
