"""Static checks on the package, test and demo sources; the lint step of
the test suite."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Package modules are named from src/, test and demo files from the root.
MODULES = {str(p.relative_to(SRC)): p for p in sorted(SRC.rglob("*.py"))}
MODULES.update({str(p.relative_to(ROOT)): p for d in ("tests", "demos")
                for p in sorted((ROOT / d).glob("*.py"))})


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, nor lists in __all__."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    assert unused_imports(MODULES[name].read_text()) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Private functions, methods, classes and `self._x` attributes that
    the sources define and never read. Storing into `self._x[k]` is no
    read of `_x`."""
    defined: set[str] = set()
    read: set[str] = set()
    for tree in map(ast.parse, sources):
        stored_into = {id(node.value) for node in ast.walk(tree)
                       if isinstance(node, ast.Subscript)
                       and not isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load) and id(node) not in stored_into:
                    read.add(node.attr)
                elif (isinstance(node.value, ast.Name)
                      and node.value.id == "self"):
                    defined.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.endswith("__"))


def test_the_check_sees_an_unread_private_name():
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self._kept = self._clock = 0\n"
              "    def _helper(self):\n"
              "        self._clock[1] = 2\n"
              "        return self._kept\n"
              "    def _stale(self):\n"
              "        self._helper()\n")
    assert unread_private_names([source]) == ["_clock", "_stale"]


def test_every_private_name_in_src_is_read():
    sources = [p.read_text() for p in sorted(SRC.rglob("*.py"))]
    assert unread_private_names(sources) == []


def private_reads_across_modules(sources: dict[str, str]) -> list[str]:
    """Each module's reads of another module's private names: an attribute
    `x._name`, on an `x` other than `self` or `cls`, where the module
    defines no `_name` (by def, class, name assignment or `self._name`
    store), and a `from .m import _name`. A private name is one module's
    business, so a read from another means the two share a decision."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        defined: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                                ast.Load):
                defined.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and not isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("self", "cls")):
                defined.add(node.attr)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and private(node.attr) and node.attr not in defined
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                found.append(f"{module}: line {node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{module}: line {node.lineno}: import {a.name}"
                          for a in node.names if private(a.name)]
    return found


def test_the_check_sees_a_private_read_across_modules():
    table = ("class Table:\n"
             "    def __init__(self):\n"
             "        self._rows = []\n"
             "    def merge(self, other):\n"
             "        return self._rows + other._rows\n"
             "def _helper():\n"
             "    pass\n")
    reader = ("from .table import Table, _helper\n"
              "class Reader:\n"
              "    def __init__(self, table):\n"
              "        self._table = table\n"
              "    def rows(self):\n"
              "        return self._table._rows, self._table.__class__\n")
    assert private_reads_across_modules({"table.py": table,
                                         "reader.py": reader}) == [
        "reader.py: line 1: import _helper", "reader.py: line 6: ._rows"]


@pytest.mark.parametrize("name", sorted(n for n in MODULES
                                        if n.startswith("c3sim")))
def test_no_src_module_reads_another_modules_private_name(name):
    assert private_reads_across_modules(
        {name: MODULES[name].read_text()}) == []


def dataclasses_of(source: str) -> list[ast.ClassDef]:
    """The classes a source decorates with @dataclass or @dataclass(...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in node.decorator_list]
            if any(isinstance(d, ast.Name) and d.id == "dataclass"
                   for d in decorators):
                found.append(node)
    return found


def unread_dataclass_fields(defining: list[str],
                            reading: list[str]) -> list[str]:
    """`Class.field` for each field of a @dataclass in `defining` that no
    source in `reading` reads as an attribute. A field named by a string
    constant counts as read, since getattr can read it."""
    fields = [(node.name, stmt.target.id)
              for source in defining for node in dataclasses_of(source)
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)]
    read: set[str] = set()
    for tree in map(ast.parse, reading):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_the_check_sees_an_unread_dataclass_field():
    source = ("@dataclass(frozen=True)\n"
              "class A:\n"
              "    kept: int\n"
              "    named: int\n"
              "    stored: int = 0\n"
              "class B:\n"
              "    plain: int\n"
              "def use(a):\n"
              "    a.stored = a.kept\n"
              "    return getattr(a, 'named')\n")
    assert unread_dataclass_fields([source], [source]) == ["A.stored"]


def test_every_dataclass_field_in_src_is_read():
    """A field nothing reads is state written for no one. A read in a test
    does not count: a field only tests read is state no run uses. The check
    matches field names, not classes, so a field is still passed off as
    read by any read of the same name on another class."""
    sources = [p.read_text() for p in sorted(SRC.rglob("*.py"))]
    readers = sources + [p.read_text() for d in ("demos", "c3bench")
                         for p in sorted((ROOT / d).rglob("*.py"))
                         if "tests" not in p.relative_to(ROOT).parts]
    assert unread_dataclass_fields(sources, readers) == []


def undocumented_dataclasses(source: str) -> list[str]:
    """The @dataclass classes of a source with no docstring, or an empty
    one, which dataclass treats as none."""
    return [f"line {node.lineno}: {node.name}"
            for node in dataclasses_of(source)
            if not ast.get_docstring(node)]


def test_the_check_sees_an_undocumented_dataclass():
    source = ("@dataclass(frozen=True)\n"
              "class A:\n"
              "    kept: int\n"
              "@dataclass\n"
              "class B:\n"
              "    \"\"\"Documented.\"\"\"\n"
              "    plain: int\n"
              "class C:\n"
              "    plain: int\n"
              "@dataclass(slots=True)\n"
              "class D:\n"
              "    # a comment is no docstring\n"
              "    plain: int\n"
              "@dataclass\n"
              "class E:\n"
              "    ''\n"
              "    plain: int\n")
    assert undocumented_dataclasses(source) == ["line 2: A", "line 11: D",
                                                "line 15: E"]


@pytest.mark.parametrize("name", sorted(n for n in MODULES
                                        if n.startswith("c3sim")))
def test_every_src_dataclass_has_a_docstring(name):
    """On CPython 3.10 to 3.13, @dataclass gives a class with no docstring
    one made from inspect.signature, at every import. For the 22 records
    that once had none, the signatures alone took 1.2 ms of every run's
    start-up on CPython 3.11, and a benchmark run takes about 0.1 s."""
    assert undocumented_dataclasses(MODULES[name].read_text()) == []


def blanket_excepts(source: str) -> list[str]:
    """The handlers of a source that catch everything: a bare `except:`,
    or one naming Exception or BaseException, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            if any(t is None or (isinstance(t, ast.Name)
                                 and t.id in ("Exception", "BaseException"))
                   for t in caught):
                found.append(f"line {node.lineno}")
    return found


def test_the_check_sees_a_blanket_except():
    source = ("try:\n    f()\nexcept:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, Exception) as exc:\n    pass\n"
              "try:\n    f()\nexcept BaseException:\n    raise\n"
              "try:\n    f()\nexcept (KeyError, ValueError):\n    pass\n"
              "try:\n    f()\nexcept ExceptionGroup:\n    pass\n")
    assert blanket_excepts(source) == ["line 3", "line 7", "line 11"]


@pytest.mark.parametrize("name", sorted(n for n in MODULES
                                        if n.startswith("c3sim")))
def test_no_src_module_catches_every_exception(name):
    """A handler that catches everything turns a fault in the program into
    whatever the handler reports. In a run that report is ordinary data,
    such as a refused payment in the logs, so the fault is never seen.
    Each handler names the errors it expects."""
    assert blanket_excepts(MODULES[name].read_text()) == []


def outside_imports(source: str) -> list[str]:
    """Modules a source imports from neither the standard library nor
    c3sim; a relative import is c3sim's own."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.lineno, node.module))
    # CPython's SHA-256 module is _sha2 from 3.12 and _sha256 before, and
    # stdlib_module_names lists only the running interpreter's name.
    allowed = sys.stdlib_module_names | {"c3sim", "_sha2", "_sha256"}
    return [f"line {line}: {name}" for line, name in imported
            if name.split(".")[0] not in allowed]


def test_the_check_sees_an_outside_import():
    source = ("import os, networkx.algorithms\n"
              "from . import engine\n"
              "from scipy import stats\n"
              "from c3sim.overlay import Overlay\n")
    assert outside_imports(source) == ["line 1: networkx.algorithms",
                                       "line 3: scipy"]


# pyproject.toml declares no dependencies: the package runs on the
# standard library alone.
@pytest.mark.parametrize("name", sorted(n for n in MODULES
                                        if n.startswith("c3sim")))
def test_src_imports_only_the_standard_library(name):
    assert outside_imports(MODULES[name].read_text()) == []
