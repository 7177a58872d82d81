"""The routes share no code: their agreement is a check only while each stands alone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import evenzeta

SRC = Path(evenzeta.__file__).parent


def _parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module):
    """Short names of the evenzeta modules that a module imports from."""
    names = set()
    for node in ast.walk(_parse(module)):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and not source.startswith("evenzeta"):
                continue
            source = source.removeprefix("evenzeta").lstrip(".")
            if source:
                names.add(source.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("evenzeta."):
                    names.add(alias.name.split(".")[1])
    return names


def _top_level_definitions(module):
    return {
        node.name
        for node in _parse(module).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }


def test_trees_imports_no_other_route():
    imports = _package_imports("trees")
    assert "polynomials" in imports  # the scan sees the module's own imports
    assert not imports & {"recursion", "zeta"}


def test_recursion_imports_neither_trees_nor_sequences():
    imports = _package_imports("recursion")
    assert "polynomials" in imports
    assert not imports & {"trees", "sequences"}


REPLAY = {"tree_data", "_replay_step"}


def test_replay_is_defined_only_in_trees():
    assert REPLAY <= _top_level_definitions("trees")
    owners = {path.stem for path in SRC.glob("*.py") if REPLAY & _top_level_definitions(path.stem)}
    assert owners == {"trees"}


def _raised_strings(module):
    """The string parts of every expression a module raises."""
    return [
        node.value
        for raised in ast.walk(_parse(module))
        if isinstance(raised, ast.Raise)
        for node in ast.walk(raised)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_index_check_is_defined_only_in_rationals():
    # an index's type and bound errors are raised by rationals.check_index
    # alone, and no "must be >=" check is left anywhere
    modules = [path.stem for path in SRC.glob("*.py")]
    owners = {
        module
        for module in modules
        for text in _raised_strings(module)
        if " outside " in text or text.endswith("is not an int")
    }
    assert owners == {"rationals"}
    sources = {module: (SRC / f"{module}.py").read_text(encoding="utf-8") for module in modules}
    assert [module for module, text in sources.items() if "must be >=" in text] == []
    # evenbench's tracer wraps every __all__ function: a guard there would be
    # traced on every public call
    assert "check_index" not in importlib.import_module("evenzeta.rationals").__all__


def test_every_all_name_is_bound():
    # evenbench's tracer wraps each layer by its __all__ name and skips a
    # missing one silently; `import *` would raise on it
    checked = set()
    for path in SRC.glob("*.py"):
        if path.stem in ("__init__", "__main__"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"evenzeta.{path.stem}")
        names = getattr(module, "__all__", [])
        assert [name for name in names if not hasattr(module, name)] == [], path.stem
        if names:
            checked.add(path.stem)
    assert {"rationals", "symmetric", "zeta"} <= checked


LIBRARY = ("polynomials", "rationals", "recursion", "symmetric", "trees", "zeta")


def test_package_publishes_every_module_name_once():
    # evenzeta.__all__ is the six modules' lists and nothing else: each name
    # is the module's own object, and no name is published twice
    published = []
    for short in LIBRARY:
        module = importlib.import_module(f"evenzeta.{short}")
        for name in module.__all__:
            assert getattr(evenzeta, name) is getattr(module, name), (short, name)
        published += module.__all__
    assert sorted(evenzeta.__all__) == sorted(published)
    assert len(set(published)) == len(published)
    # the CLI and its suites stay out of `import evenzeta`
    code = "import sys, evenzeta; print(sorted(m for m in sys.modules if m.startswith('evenzeta')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["evenzeta", *(f"evenzeta.{m}" for m in LIBRARY)])


def _float_uses(module):
    """The float(...) calls and math.pi reads in a module."""
    return [
        node
        for node in ast.walk(_parse(module))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "pi"
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        )
    ]


def test_floats_appear_only_in_display():
    # the computation path is exact: a float is made only for the CLI's
    # opt-in --approx output
    owners = {path.stem for path in SRC.glob("*.py") if _float_uses(path.stem)}
    assert owners == {"cli"}


def _format_readers(module):
    """The functions of a module that read an attribute named format."""
    return {
        function.name
        for function in ast.walk(_parse(module))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "format" and isinstance(node.ctx, ast.Load)
    }


def test_output_format_is_read_only_where_output_is_printed():
    # each command returns its result and text lines: _run prints one of them,
    # and _fail prints a failure, in the requested format
    assert _format_readers("cli") == {"_run", "_fail"}


def _dict_builders(module):
    """The functions of a module that contain a dict display."""
    return {
        function.name
        for function in ast.walk(_parse(module))
        if isinstance(function, ast.FunctionDef)
        and any(isinstance(node, ast.Dict) for node in ast.walk(function))
    }


def test_check_records_are_built_only_in_check_and_run_suite():
    # each verify suite yields (name, got, expected): _check alone makes a
    # check record of it, and run_suite alone makes a suite's report
    assert _dict_builders("verify") == {"_check", "run_suite"}


def test_import_leaves_out_dataclasses_and_inspect():
    # every value type is a checked tuple, so importing the package and its
    # CLI loads neither; -S keeps what the host's site module imports out
    code = (
        "import sys, evenzeta, evenzeta.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
