import argparse
import ast
import contextlib
import functools
import importlib
import inspect
import io
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import textwrap

import shifted_kschur
from shifted_kschur import cli, enumeration
from tests.conftest import clear_package_caches


def test_cli_import_loads_neither_dataclasses_nor_fractions():
    # each pulls in more modules, which a kschur call pays for at start-up
    src = pathlib.Path(shifted_kschur.__file__).parents[1]
    code = ("import sys, shifted_kschur.cli; print(sorted("
            "{'dataclasses', 'fractions'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)},
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_package_import_loads_no_submodule():
    # the root binds no names, so it imports none of its modules
    src = pathlib.Path(shifted_kschur.__file__).parents[1]
    code = ("import sys, shifted_kschur; print(sorted("
            "m for m in sys.modules if m.startswith('shifted_kschur.')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)},
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


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


def _requests(tmp_path):
    """A few requests of every verb, so each cache fills; the certificate
    goes to a file in tmp_path, so the writer runs too."""
    argvs = [
        ["poly", "--shape", "3,1/1", "--family", "GQdouble", "-n", "2"],
        ["special-value", "--shape", "4,2,1", "--family", "GP", "-n", "3"],
        ["parity", "--shape", "3,1", "--family", "GQ", "-n", "2"],
        ["double-skew", "--lambda", "3,1", "--mu", "1"],
        ["enumerate", "--shape", "2,1", "--family", "Q", "-n", "2",
         "--count-only"],
        ["identity", "--check", "coproduct", "--max-weight", "3",
         "--nx", "1", "--ny", "1"],
        ["verify-involution", "--shape", "2,1", "--max-n", "2"],
        ["pair", "--lambda", "3,1", "--mu", "1", "--family", "Q", "-n",
         "2", "--out", str(tmp_path / "cert.json")],
    ]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) in (0, 1), argv


def test_every_cache_is_a_functools_cache_the_clearing_loop_reaches(
        tmp_path):
    reached = _reached()
    assert _cached_defs() == set(reached)
    # the recursions, their letter factors and the oracle sum among them,
    # each bounded
    for name in ("genfunc._point_levels", "genfunc._letter_factor",
                 "genfunc._tableau_terms"):
        assert reached[f"shifted_kschur.{name}"].cache_parameters()[
            "maxsize"] is not None, name
    containers = _containers()
    _requests(tmp_path)
    assert all(c.cache_info().currsize for c in reached.values())
    # no module-level container grew into a memo
    for name, (obj, before) in containers.items():
        assert obj == before, name
    clear_package_caches()
    left = {name: c.cache_info().currsize for name, c in reached.items()
            if c.cache_info().currsize}
    assert not left


def test_readme_names_every_cache_with_its_bound():
    # bullets such as "- `genfunc._letter_factor` (16,384), keyed on ..."
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = re.search(r"^## Caches\n(.*?)^## ", readme.read_text(),
                        re.M | re.S).group(1)
    listed = {name: int(bound.replace(",", "")) for name, bound in
              re.findall(r"^- `(\w+\.\w+)` \(([\d,]+)[ )]", section, re.M)}
    assert listed == {
        name.removeprefix("shifted_kschur."): c.cache_parameters()["maxsize"]
        for name, c in _reached().items()}


def test_readme_names_only_what_the_modules_bind():
    # a backticked module.name or module.Class.attr, such as
    # "`involutions.read_certificate(fh)`", is an attribute of that module
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    modules = ("shapes", "tableaux", "enumeration", "genfunc", "polyring",
               "involutions", "cli")
    named = set(re.findall(rf"`((?:{'|'.join(modules)})(?:\.\w+)+)",
                           readme.read_text()))
    assert len(named) > 15
    unbound = []
    for name in sorted(named):
        module, *path = name.split(".")
        try:
            functools.reduce(getattr, path, importlib.import_module(
                f"shifted_kschur.{module}"))
        except AttributeError:
            unbound.append(name)
    assert not unbound


def _unused_imports(source: str) -> list:
    """The names an import in source binds and no expression reads; a
    quoted annotation counts as read."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            note = getattr(node, "annotation", None) or \
                getattr(node, "returns", None)
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))
    return sorted(bound - read)


def test_no_unused_import_in_src():
    root = pathlib.Path(shifted_kschur.__file__).parent
    sources = sorted(root.glob("*.py"))
    assert len(sources) > 5
    unused = {p.name: _unused_imports(p.read_text()) for p in sources}
    assert not {name: names for name, names in unused.items() if names}
    assert _unused_imports("from .shapes import Box, SkewShape\n"
                           "x: 'SkewShape'\n") == ["Box"]
    # nor a module-level def, class or constant that src/ never reads
    bound, read = _module_names([p.read_text() for p in sources])
    assert len(bound) > 100
    assert not sorted(bound - read)
    # a tuple target binds each name; a read as an attribute of another
    # source's module counts
    bound, read = _module_names(["A = 1\ndef f(): return B\n"
                                 "B, _C, _D = 2, 3, 4\n"
                                 "class K: pass\n__all__ = ['K']\n",
                                 "y = m._C\n"])
    assert sorted(bound - read) == ["A", "K", "_D", "f", "y"]


def test_naive_oracle_shares_no_code_with_the_walk():
    # validate_cells is the oracle's only judge, so the oracle stays
    # independent of the backtracking walk it checks
    tree = ast.parse(textwrap.dedent(
        inspect.getsource(enumeration.naive_oracle)))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "validate_cells" in called
    assert not named & {"_candidate_cells", "_cell_table", "_leaves",
                        "enumerate_fillings"}


def _module_names(sources: list) -> tuple[set, set]:
    """(bound, read): the names, dunders aside, that a module of sources
    binds at module level by def, class or assignment, and every name
    some expression in sources reads, as a name or an attribute."""
    bound, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            bound.update(name for name in names if not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return bound, read


def _unread_options(parser: argparse.ArgumentParser) -> list:
    """(verb, dest) for each option of a verb whose ``func`` never reads
    ``args.<dest>``."""
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    unread = []
    for verb, p in verbs.items():
        tree = ast.parse(textwrap.dedent(
            inspect.getsource(p.get_default("func"))))
        read = {n.attr for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        unread += [(verb, a.dest) for a in p._actions
                   if not isinstance(a, argparse._HelpAction)
                   and a.dest not in read]
    return unread


def _reads_a(args):
    return args.a


def test_every_cli_option_is_read_by_its_verb():
    assert not _unread_options(cli.build_parser())
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("v")
    p.add_argument("--a")
    p.add_argument("--b")
    p.set_defaults(func=_reads_a)
    assert _unread_options(parser) == [("v", "b")]


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


def _package_names(sources: dict) -> set:
    """The dotted ``shifted_kschur`` names that ``sources`` (module name ->
    text) import, or read as attributes of a package module or class.

    A chain ``a.b.c`` is followed from a name its module bound by an
    import, or from one of ``sources`` imported by name and one of the
    names that module bound, through every package module or class; each
    prefix that must exist is a name.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    binds = {}  # module -> {local name: dotted package name}
    for name, tree in trees.items():
        local = binds[name] = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "shifted_kschur"):
                for a in node.names:
                    local[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "shifted_kschur":
                        local[a.asname or "shifted_kschur"] = (
                            a.name if a.asname else "shifted_kschur")
                    elif a.name in trees:
                        local[a.asname or a.name] = a.name
    names = set()
    for name, tree in trees.items():
        names.update(v for v in binds[name].values() if v not in trees)
        for node in ast.walk(tree):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if not attrs or not isinstance(node, ast.Name):
                continue
            path = binds[name].get(node.id)
            if path in trees:  # a perfbench module: the names it bound
                path = binds[path].get(attrs.pop(0))
            if path is None:
                continue
            obj = _lookup(path)
            for attr in attrs:
                if not (inspect.ismodule(obj) or isinstance(obj, type)):
                    break
                path += "." + attr
                names.add(path)
                obj = _lookup(path)
    return names


def _lookup(path: str):
    """The object at a dotted package path, or None if there is none."""
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    try:
        return getattr(_lookup(module), attr)
    except AttributeError:
        return None


def test_names_the_benchmark_reads_exist():
    # perfbench is read only here; a name of src/ that it reads and that
    # is renamed or removed would break the benchmark, not Tier-1
    bench = pathlib.Path(shifted_kschur.__file__).parents[2] / "perfbench"
    paths = sorted(bench.glob("*.py")) + sorted(bench.glob("selftest/*.py"))
    names = _package_names({p.stem: p.read_text() for p in paths})
    assert {"shifted_kschur.enumeration.EnumSpec",
            "shifted_kschur.enumeration.count",
            "shifted_kschur.involutions.minimal_tableau",
            "shifted_kschur.genfunc.double_skew_shortcut",
            "shifted_kschur.genfunc.FunctionSpec",
            "shifted_kschur.cli.USAGE"} <= names
    assert [n for n in sorted(names) if _lookup(n) is None] == []
    fake = _package_names({
        "a": "from shifted_kschur import genfunc\ngenfunc.gone\n",
        "b": "import a\na.genfunc.FunctionSpec.nothing\n"})
    assert sorted(n for n in fake if _lookup(n) is None) == [
        "shifted_kschur.genfunc.FunctionSpec.nothing",
        "shifted_kschur.genfunc.gone"]
