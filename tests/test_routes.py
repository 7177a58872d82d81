"""The routes share no code: their agreement is a check only while each stands alone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_recursion_imports_neither_tree_module():
    imports = _package_imports("recursion")
    assert "polynomials" in imports
    assert not imports & {"trees", "plane_trees"}


REPLAY = {"tree_data", "_replay_step"}


def test_replay_is_defined_only_in_plane_trees():
    assert REPLAY <= _top_level_definitions("plane_trees")
    owners = {path.stem for path in SRC.glob("*.py") if REPLAY & _top_level_definitions(path.stem)}
    assert owners == {"plane_trees"}
    # the convolution can never call the replay that checks it, and the
    # replay reads the route's values but no other route
    assert "plane_trees" not in _package_imports("trees")
    imports = _package_imports("plane_trees")
    assert "trees" in imports
    assert not imports & {"recursion", "zeta"}


BASIS = {"basis_coefficients", "expand_basis", "_nested_sum"}


def test_basis_is_defined_only_in_basis():
    # the nested-product basis shares no code with the operator recursion:
    # the coeffs suite compares two independent computations of P_k
    assert BASIS <= _top_level_definitions("basis")
    owners = {path.stem for path in SRC.glob("*.py") if BASIS & _top_level_definitions(path.stem)}
    assert owners == {"basis"}
    assert _package_imports("basis") == {"bounds", "rationals", "polynomials"}
    assert "basis" not in _package_imports("recursion") | _package_imports("zeta")


def _raised_strings(module):
    """The string parts of every expression a module raises."""
    return [
        node.value
        for raised in ast.walk(_parse(module))
        if isinstance(raised, ast.Raise)
        for node in ast.walk(raised)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def _raised_names(module):
    """The names of the exceptions a module raises by name, as in raise TypeError(...)."""
    names = []
    for raised in ast.walk(_parse(module)):
        if isinstance(raised, ast.Raise) and raised.exc is not None:
            exc = raised.exc.func if isinstance(raised.exc, ast.Call) else raised.exc
            if isinstance(exc, ast.Name):
                names.append(exc.id)
    return names


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
    # every wrong-typed argument is refused by a check in rationals, and the
    # library's one exception class, for a broken invariant, is defined there
    assert [module for module in modules if "TypeError" in _raised_names(module)] == ["rationals"]
    classes = [
        f"{short}.{name}"
        for short in (*LIBRARY, "bounds", "verify")
        for name, value in vars(importlib.import_module(f"evenzeta.{short}")).items()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == f"evenzeta.{short}"
    ]
    assert classes == ["rationals.ConsistencyError"]
    retired = ("is_exact", "InexactDivisionError")
    assert [module for module, text in sources.items() if any(n in text for n in retired)] == []
    assert not set(retired) & set(evenzeta.__all__)
    # evenbench's tracer wraps every __all__ function: a guard there would be
    # traced on every public call
    guards = {"check_exact", "check_int", "check_index", "check_type"}
    assert not guards & set(importlib.import_module("evenzeta.rationals").__all__)


def _bound_assignments(module):
    """The *_MAX and *_MAX_K names a module assigns at its top level."""
    return {
        target.id
        for node in _parse(module).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith(("_MAX", "_MAX_K"))
    }


def test_every_bound_is_assigned_only_in_bounds():
    # how far each entry point goes is decided in one module, which imports
    # nothing, so the CLI's parser reads it without loading a route
    owners = {path.stem for path in SRC.glob("*.py") if _bound_assignments(path.stem)}
    assert owners == {"bounds"}
    imports = (ast.Import, ast.ImportFrom)
    assert not any(isinstance(node, imports) for node in ast.walk(_parse("bounds")))
    # a module that publishes a bound publishes bounds' own value
    bounds = importlib.import_module("evenzeta.bounds")
    published = set()
    for short in (*evenzeta._MODULES, "verify"):
        module = importlib.import_module(f"evenzeta.{short}")
        for name in module.__all__:
            if name.endswith(("_MAX", "_MAX_K")):
                assert getattr(module, name) is getattr(bounds, name), (short, name)
                published.add(name)
    # and the CLI reads each of the others, its commands' own bounds
    commands = _bound_assignments("bounds") - published
    assert "RECURSION_MAX" in published and "AK_MAX" in commands
    cli = importlib.import_module("evenzeta.cli")
    assert all(getattr(cli, name, None) is getattr(bounds, name) for name in commands), commands
    # verify runs its suites in the table's order, within the table's bounds
    suites = importlib.import_module("evenzeta.verify").SUITES
    assert [(name, s.min_max_k, s.hard_max_k) for name, s in suites.items()] == [
        (name, low, high) for name, (low, high) in bounds.SUITE_BOUNDS.items()
    ]


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


def _defines_all(path):
    """Whether a module assigns __all__ at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )


def test_package_table_lists_every_library_module():
    # the package publishes a module's names from its table: a module left
    # out, or a name missing from its row, would go silently unpublished;
    # the CLI and its suites are not library modules
    published = {path.stem for path in SRC.glob("*.py") if _defines_all(path)}
    assert "cli" in published and "verify" in published
    assert set(evenzeta._MODULES) == published - {"__init__", "cli", "verify"}
    for short, names in evenzeta._MODULES.items():
        assert list(names) == importlib.import_module(f"evenzeta.{short}").__all__, short


LIBRARY = tuple(evenzeta._MODULES)


def _fresh(code):
    """What a fresh interpreter with the package on its path prints after code."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def _loaded(code):
    """The evenzeta modules loaded in a fresh interpreter by `import evenzeta` and then code."""
    return _fresh(
        f"import sys, evenzeta; {code}; "
        "print(sorted(m.removeprefix('evenzeta.') for m in sys.modules if m.startswith('evenzeta.')))"
    )


def test_package_publishes_every_module_name_once():
    # evenzeta.__all__ is the library modules' lists and nothing else: each name
    # is the module's own object, and no name is published twice
    published = []
    for short in LIBRARY:
        module = importlib.import_module(f"evenzeta.{short}")
        for name in module.__all__:
            assert getattr(evenzeta, name) is getattr(module, name), (short, name)
        published += module.__all__
    assert sorted(evenzeta.__all__) == sorted(published)
    assert len(set(published)) == len(published)
    # a fresh `import *` binds every name, and dir() lists each before it is read
    star = "from evenzeta import *; print(sorted(n for n in globals() if not n.startswith('_')))"
    assert _fresh(star) == sorted(published)
    assert set(published) <= set(_fresh("import evenzeta; print(dir(evenzeta))"))
    with pytest.raises(AttributeError, match="^module 'evenzeta' has no attribute 'no_such_name'$"):
        evenzeta.no_such_name


def test_a_name_loads_only_its_own_module():
    # `import evenzeta` loads no module, and neither do __all__ and dir(); a
    # name loads its own module and that module's imports, so the recursion
    # route compiles neither tree module nor the text forms, and the tree
    # route leaves out the recursion and its per-tree replay.  The CLI
    # itself loads only the bounds and the text forms.
    assert _loaded("pass") == []
    assert _loaded("evenzeta.__all__, dir(evenzeta)") == []
    scalars = ["bounds", "polynomials", "rationals"]
    recursion = sorted([*scalars, "recursion"])
    assert _loaded("evenzeta.zeta_numerator") == recursion
    route = sorted([*scalars, "trees"])
    for name in ("generalized_transform", "polynomial_via_trees", "SequenceSpec"):
        assert _loaded(f"evenzeta.{name}") == route, name
    assert _loaded("evenzeta.tree_data") == sorted([*route, "plane_trees"])
    assert _loaded("evenzeta.basis_coefficients") == sorted([*scalars, "basis"])
    assert _loaded("evenzeta.newton_girard_check") == ["bounds", "rationals", "symmetric"]
    assert _loaded("evenzeta.parse_rational") == ["text"]
    assert _loaded("evenzeta.ConsistencyError") == ["bounds", "rationals"]
    assert _loaded("import evenzeta.cli") == ["bounds", "cli", "text"]


def test_text_loads_only_when_a_value_is_printed():
    # the routes read and write no text: a route's value loads text only when
    # str() prints it
    assert "text" not in _loaded("evenzeta.translated_polynomial(5)")
    assert "text" in _loaded("str(evenzeta.numerator_polynomial(5))")


def test_only_text_imports_re_and_no_library_module_loads_it():
    # the regex and the text forms live in text.py, which imports no sibling;
    # no library module imports it when it loads, so no route compiles it
    def imports(nodes):
        return {
            alias.name if isinstance(node, ast.Import) else node.module
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }

    modules = [path.stem for path in SRC.glob("*.py")]
    assert [module for module in modules if "re" in imports(ast.walk(_parse(module)))] == ["text"]
    assert _package_imports("text") == set()
    for short in LIBRARY:
        assert "text" not in imports(_parse(short).body), short


# the modules beyond the CLI's own (bounds, text) that a command loads: each
# imports the routes it calls when it runs
RECURSION_ROUTE = ["rationals", "polynomials", "recursion"]
TREE_ROUTE = ["rationals", "polynomials", "trees"]
COMMAND_MODULES = {
    "ak --max 5": RECURSION_ROUTE,
    "pk --k 5": RECURSION_ROUTE,
    "zeta-even --k 5": [*RECURSION_ROUTE, "zeta"],
    "bernoulli --k 5 --method recursion": [*RECURSION_ROUTE, "zeta"],
    "bernoulli --k 5 --method classical": [*RECURSION_ROUTE, "zeta"],
    "transform --k 5": TREE_ROUTE,
    "bernoulli --k 5 --method tree": [*RECURSION_ROUTE, "trees", "zeta"],
    "trees --k 5 --list": [*TREE_ROUTE, "plane_trees"],
    "verify --suite newton-girard": ["verify", *LIBRARY],
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_a_command_loads_only_the_routes_it_runs(command):
    argv = command.split()
    run = f"import io, evenzeta.cli; sys.stdout = io.StringIO(); evenzeta.cli.main({argv})"
    own = ["cli", "bounds", "text"]
    loaded = _loaded(f"{run}; sys.stdout = sys.__stdout__")
    assert loaded == sorted({*own, *COMMAND_MODULES[command]})


def test_a_dunder_miss_loads_no_module():
    # inspect.unwrap and doctest probe hasattr(module, "__wrapped__"); a miss
    # on a dunder name other than __all__ is answered at once
    for name in ("__wrapped__", "__no_such_name__"):
        assert _loaded(f"assert not hasattr(evenzeta, {name!r})") == []
    miss = "^module 'evenzeta' has no attribute '__wrapped__'$"
    with pytest.raises(AttributeError, match=miss):
        evenzeta.__wrapped__


def test_a_submodule_probe_loads_no_module():
    # the import machinery probes hasattr(evenzeta, "verify") before it
    # imports the submodule; a name outside the table, a dotted one too, is
    # answered at once, and the import itself still loads what verify reads
    for name in ("verify", "cli", "verify.run_suite"):
        assert _loaded(f"assert not hasattr(evenzeta, {name!r})") == []
    code = "from evenzeta import verify; assert verify is sys.modules['evenzeta.verify']"
    assert _loaded(code) == sorted(["bounds", "verify", *LIBRARY])


def test_library_modules_import_siblings_only_by_module():
    # `import evenzeta` or `from . import x` in a library module would read
    # the package while it loads and could re-enter its __getattr__, loading
    # a sibling route; a sibling comes in only as `from .x import name`
    for short in LIBRARY:
        for node in ast.walk(_parse(short)):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "evenzeta" for alias in node.names), short
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    assert node.level == 1 and node.module, (short, ast.unparse(node))
                else:
                    assert node.module.split(".")[0] != "evenzeta", (short, ast.unparse(node))


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
