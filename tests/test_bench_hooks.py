"""The names the traced benchmark wraps must exist in the package, so that
a rename or deletion fails here rather than only in a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from ternions import _pycore

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    child = load_child()
    for op in child.KERNEL_OPS:
        assert callable(getattr(_pycore.Kernel, op, None)), f"Kernel.{op}"
    for mod_name, fn_name in child.FUNCTIONS:
        mod = importlib.import_module("ternions." + mod_name)
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name, fn_name in child.GENERATORS:
        mod = importlib.import_module("ternions." + mod_name)
        fn = getattr(mod, fn_name, None)
        assert inspect.isgeneratorfunction(fn), f"{mod_name}.{fn_name}"
