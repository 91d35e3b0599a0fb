"""The public surface: each name is listed once, in the ``__all__`` of the
module that defines it, and the package republishes the union. And no
function in the package takes a parameter it never reads."""

import ast
import collections
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import fpqr

MODULES = [importlib.import_module(f"fpqr.{info.name}") for info in pkgutil.iter_modules(fpqr.__path__)]
LISTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_each_listed_name_is_defined_in_its_module():
    for module in LISTING:
        for name in module.__all__:
            assert inspect.getmodule(getattr(module, name)) is module, (module.__name__, name)


def test_no_name_is_listed_twice():
    counts = collections.Counter(name for module in LISTING for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_package_exports_the_sorted_union():
    assert fpqr.__all__ == sorted(name for module in LISTING for name in module.__all__)
    for module in LISTING:
        for name in module.__all__:
            assert getattr(fpqr, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from fpqr import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == fpqr.__all__
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_package_init_lists_no_names():
    # Beyond its docstring and version, __init__ holds imports and the union.
    tree = ast.parse(inspect.getsource(fpqr))
    strings = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert strings == [ast.get_docstring(tree, clean=False), fpqr.__version__]


def test_every_parameter_is_read():
    # A parameter that no line of its function (nested functions included)
    # reads is dead weight at every call site; a name starting with "_" says
    # the signature is fixed from outside and is exempt.
    unread = []
    for path in sorted(Path(fpqr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            names = [arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read and name[0] != "_"]
    assert unread == []
