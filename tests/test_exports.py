"""The public surface: each module's ``__all__`` and the package re-export; and the
source of those modules."""

import ast
import inspect
from pathlib import Path

import pytest

import maqmsim
from maqmsim import cli, detect, memory, protocol, qstate, schedule, tomo

MODULES = [memory, qstate, protocol, schedule, detect, tomo, cli]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_module_exports_resolve_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(module, name)
        # functions and classes are exported by the module that defines them
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name
        assert getattr(maqmsim, name) is obj


def test_package_exports_the_module_lists():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert maqmsim.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", ["ScheduleConstraints", "MeasurementSetting", "cell_efficiency",
                                  "_SWEEP_INTEGER", "_entropy", "_int_words",
                                  "herald_loop", "CountRow", "_CountRows",
                                  "_poisson_resamples", "_resample_count",
                                  "_tomography_settings", "_w_labels", "_w_settings",
                                  "monte_carlo_fidelity", "_qubit_blocks"])
def test_second_copies_are_gone(name):
    assert not any(hasattr(m, name) for m in (maqmsim, *MODULES))


def test_counts_cross_to_tomo_as_arrays_only():
    # a table is its columns, and tomo takes resamples, never the streams
    # that draw them
    assert not hasattr(detect.CountsTable, "from_rows")
    from_detect = [alias.name for node in ast.walk(ast.parse(inspect.getsource(tomo)))
                   if isinstance(node, ast.ImportFrom) and node.module == "detect"
                   for alias in node.names]
    assert from_detect and not [name for name in from_detect if name.startswith("_")]
    assert not [name for name, fn in vars(tomo).items() if inspect.isfunction(fn)
                and "streams" in inspect.signature(fn).parameters]


def test_settings_nothing_sets_are_gone():
    assert "CLEAN" not in schedule.Channel.__members__
    assert "init" not in inspect.signature(tomo.mle_reconstruct).parameters


def optimized_mode_reads(tree):
    """The nodes of ``tree`` that python -O changes or that can tell it is on:
    -O strips ``assert``, folds ``__debug__`` to False and sets
    ``sys.flags.optimize``, and it does nothing else."""
    sys_names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names if alias.name == "sys"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assert)
                or isinstance(node, ast.Name) and node.id == "__debug__"
                or isinstance(node, ast.Attribute) and (
                    node.attr == "__debug__" or node.attr == "flags"
                    and isinstance(node.value, ast.Name) and node.value.id in sys_names)
                or isinstance(node, ast.ImportFrom) and node.module == "sys"
                and any(alias.name in ("flags", "*") for alias in node.names)):
            yield node


@pytest.mark.parametrize("source", [
    "assert x > 0, 'x must be positive'",
    "if __debug__:\n    check(x)",
    "import builtins\nif builtins.__debug__:\n    check(x)",
    "import sys\nif not sys.flags.optimize:\n    check(x)",
    "import sys as _sys\nlevel = _sys.flags",
    "from sys import flags",
    "from sys import *",
])
def test_optimized_mode_reads_are_found(source):
    assert len(list(optimized_mode_reads(ast.parse(source)))) == 1


def test_no_guard_relies_on_assert():
    # with no node that -O changes or that can see it, the package does the
    # same under -O as without it: every guard still runs
    sources = sorted(Path(maqmsim.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in optimized_mode_reads(ast.parse(path.read_text(), str(path)))]
    assert {Path(m.__file__) for m in MODULES} <= set(sources)
    assert found == []
