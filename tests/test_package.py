"""Package exports: the names in ``gwtqft.__all__`` load their submodule on
first use and are the submodules' own objects, as the README documents.
The package imports nothing outside the standard library."""

import ast
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gwtqft


def test_star_import_binds_submodule_objects():
    ns = {}
    exec("from gwtqft import *", ns)
    assert ns["__version__"] == gwtqft.__version__
    for name in gwtqft.__all__:
        if name == "__version__":
            continue
        obj = ns[name]
        assert obj.__module__.startswith("gwtqft.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert getattr(gwtqft, name) is obj


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gwtqft.no_such_name  # noqa: B018


def test_submodules_import_from_package_in_fresh_process():
    code = ("from gwtqft import checks, cli, gluing; "
            "print(checks.__name__, cli.__name__, gluing.__name__)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gwtqft.checks", "gwtqft.cli", "gwtqft.gluing"]


def test_mat_power_loads_only_the_algebra():
    # the algebra lives in operators, which loads neither checks nor words
    code = ("import sys; from gwtqft import mat_power; "
            "print(mat_power.__module__, 'gwtqft.checks' in sys.modules, "
            "'gwtqft.words' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gwtqft.operators", "False", "False"]


def test_one_matrix_algebra():
    from gwtqft import checks, gluing, operators

    assert checks.mat_power is operators.mat_power
    assert checks.mat_mul is operators.mat_mul
    assert gluing.mat_det is operators.mat_det
    # no module but operators defines a 3x3 matrix helper
    for path in sorted(Path(gwtqft.__file__).parent.glob("*.py")):
        if path.stem == "operators":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not node.name.startswith("mat_"), (path.name, node.name)
                assert node.name != "_cofactor", path.name


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the README's ``>>>`` lines, with the results they print, are a doctest
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 6


def test_readme_lists_the_exported_names():
    text = " ".join(README.read_text().split())
    listed = re.search(r"They are (.*?); there is no parser", text).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(gwtqft.__all__)


def test_standard_library_only():
    # the runtime depends on nothing outside the standard library
    package = Path(gwtqft.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "gwtqft" or top in sys.stdlib_module_names, (path.name, name)
    pyproject = README.with_name("pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)


def test_no_unused_imports():
    # every module but the lazy export table uses each name it imports
    package = Path(gwtqft.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
