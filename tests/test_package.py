import ast
import contextlib
import importlib
import inspect
import io
import pathlib
import pkgutil
import re

import shifted_kschur
from shifted_kschur import cli
from tests.conftest import clear_package_caches


def test_every_export_resolves():
    missing = [name for name in shifted_kschur.__all__
               if not hasattr(shifted_kschur, name)]
    assert not missing


def _modules():
    return [shifted_kschur] + [
        importlib.import_module(f"shifted_kschur.{info.name}")
        for info in pkgutil.iter_modules(shifted_kschur.__path__)]


def _reached() -> dict:
    """The caches ``clear_package_caches`` clears, by qualified name."""
    out = {}
    for module in _modules():
        for obj in vars(module).values():
            objs = [obj] + (list(vars(obj).values())
                            if isinstance(obj, type) else [])
            for o in objs:
                if callable(getattr(o, "cache_clear", None)):
                    out[f"{o.__module__}.{o.__qualname__}"] = o
    return out


class _CachedDefs(ast.NodeVisitor):
    """The qualified names of the functions decorated with ``lru_cache``
    or ``cache``, nested ones included."""

    def __init__(self, module: str):
        self.path, self.found = [module], []

    def _scope(self, node, inner: list):
        self.path.append(node.name)
        self.path.extend(inner)
        self.generic_visit(node)
        del self.path[-1 - len(inner):]

    def visit_ClassDef(self, node):
        self._scope(node, [])

    def visit_FunctionDef(self, node):
        for dec in node.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            name = dec.attr if isinstance(dec, ast.Attribute) else \
                getattr(dec, "id", None)
            if name in ("lru_cache", "cache"):
                self.found.append(".".join(self.path + [node.name]))
        self._scope(node, ["<locals>"])

    visit_AsyncFunctionDef = visit_FunctionDef


def _cached_defs() -> set:
    found = set()
    for module in _modules():
        visitor = _CachedDefs(module.__name__)
        visitor.visit(ast.parse(inspect.getsource(module)))
        found.update(visitor.found)
    return found


def _containers() -> dict:
    """Each mutable container among the modules' and their classes'
    attributes, with a shallow copy of what it holds now."""
    out = {}
    for module in _modules():
        owners = [(module.__name__, vars(module))] + [
            (f"{module.__name__}.{name}", vars(obj))
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__]
        for owner, attrs in owners:
            for name, obj in attrs.items():
                if type(obj) in (dict, list, set, bytearray) \
                        and not name.startswith("__"):
                    out[f"{owner}.{name}"] = (obj, type(obj)(obj))
    return out


def _requests():
    """A few requests of every verb, so each cache fills."""
    argvs = [
        ["poly", "--shape", "3,1/1", "--family", "GQdouble", "-n", "2"],
        ["special-value", "--shape", "4,2,1", "--family", "GP", "-n", "3"],
        ["parity", "--shape", "3,1", "--family", "GQ", "-n", "2"],
        ["double-skew", "--lambda", "3,1", "--mu", "1", "-n", "2"],
        ["enumerate", "--shape", "2,1", "--family", "Q", "-n", "2",
         "--count-only"],
        ["identity", "--check", "coproduct", "--max-weight", "3",
         "--nx", "1", "--ny", "1"],
        ["verify-involution", "--shape", "2,1", "--max-n", "2"],
        ["pair", "--lambda", "3,1", "--mu", "1", "--family", "Q", "-n",
         "2"],
    ]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) in (0, 1), argv


def test_every_cache_is_a_functools_cache_the_clearing_loop_reaches():
    reached = _reached()
    assert _cached_defs() == set(reached)
    # the recursions, their interned tuples and the oracle sum among them,
    # each bounded
    for name in ("genfunc._point_levels", "genfunc._interned",
                 "genfunc._tableau_terms"):
        assert reached[f"shifted_kschur.{name}"].cache_parameters()[
            "maxsize"] is not None, name
    containers = _containers()
    _requests()
    assert all(c.cache_info().currsize for c in reached.values())
    # no module-level container grew into a memo
    for name, (obj, before) in containers.items():
        assert obj == before, name
    clear_package_caches()
    left = {name: c.cache_info().currsize for name, c in reached.items()
            if c.cache_info().currsize}
    assert not left


def test_every_module_parses_at_the_declared_python_floor():
    # the grammar of the oldest Python that pyproject.toml admits
    root = pathlib.Path(shifted_kschur.__file__).parent
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (root.parents[1] / "pyproject.toml").read_text(),
                      re.MULTILINE)
    assert floor
    version = tuple(map(int, floor.groups()))
    sources = sorted(root.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=version)
