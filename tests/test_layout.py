"""Layout guard for the package sources, using only the standard library.

No `slred` module may import a `_private` name from a sibling module, and
every module-level import must be used in its module.  `__init__.py` only
re-exports, and `from __future__` imports change the compiler, so both are
exempt.  Every name a module lists in `__all__` must be bound at its top
level, so a stale export fails here and not only on `import *`.  Every function the benchmark's tracer wraps must exist under the
name it wraps, so a rename fails here and not only in a traced run.  Every
top-level function or class of the package, and every method but a dunder,
must be referenced by name outside its own definition, in `src/`, `tests/`
or `perfbench/`, so code that nothing reads fails here.  Every dataclass
field, `NamedTuple` field and `__slots__` entry of the package must be read
by the program: by an attribute access in `src/` or `perfbench/`, or as a
key in a `to_json`, so a field only tests look at fails here too.
"""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slred"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imports(tree: ast.Module):
    """(bound name, imported name, source module) per module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, source


def _is_sibling(source) -> bool:
    return source is not None and (source.startswith(".") or source.startswith("slred"))


def _exported(tree: ast.Module) -> list:
    """The names listed in the module's __all__, in order."""
    return [
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]


def _top_level_names(tree: ast.Module) -> set:
    """Names bound by a top-level def, class, assignment or import."""
    names = {bound for bound, _name, _origin in _imports(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _violations(source: str) -> list:
    tree = ast.parse(source)
    exported = _exported(tree)
    # names listed in __all__ are exported, hence used
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported)
    out = []
    for bound, name, origin in _imports(tree):
        if _is_sibling(origin) and _is_private(name):
            out.append(f"imports private {name} from {origin}")
        if bound not in used:
            out.append(f"imports {name} but never uses it")
    defined = _top_level_names(tree)
    out += [f"exports {name} but never binds it" for name in exported if name not in defined]
    return out


def _definitions(tree: ast.Module):
    """(qualified name, node) per top-level def or class and per method of a
    top-level class, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.AST) -> Counter:
    """Names used in a tree: variables, attributes and the parts of imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def _string_references(tree: ast.AST) -> Counter:
    """Identifiers spelled inside string constants, such as "Poly.__mul__"."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def _dead_names(package: dict, others, bench) -> list:
    """Definitions in the package sources that nothing references.

    `package` maps module names to sources; the names, attributes and imports
    of every source count as references, and for the `bench` sources the
    identifiers in their strings too.  References inside a definition's own
    body do not count for that definition.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    for source in others:
        total += _references(ast.parse(source))
    for source in bench:
        tree = ast.parse(source)
        total += _references(tree) + _string_references(tree)
    dead = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            if total[node.name] - _references(node)[node.name] <= 0:
                dead.append(f"{module}: {qualified}")
    return dead


def _is_record(node: ast.ClassDef) -> bool:
    """Is the class a dataclass or a NamedTuple, whose annotations are fields?"""
    for expr in node.decorator_list + node.bases:
        target = expr.func if isinstance(expr, ast.Call) else expr
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name in ("dataclass", "NamedTuple"):
            return True
    return False


def _fields(tree: ast.Module):
    """(qualified name, field) per dataclass field, NamedTuple field and
    `__slots__` entry of a top-level class; a ClassVar is no field."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        record = _is_record(node)
        for item in node.body:
            if (
                record
                and isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
            ):
                yield f"{node.name}.{item.target.id}", item.target.id
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                for elt in ast.walk(item.value):
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        yield f"{node.name}.{elt.value}", elt.value


def _field_reads(tree: ast.AST) -> set:
    """Attributes a tree loads, and the keys of the dicts built in its `to_json`s."""
    out = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "to_json":
            out.update(
                key.value
                for d in ast.walk(node)
                if isinstance(d, ast.Dict)
                for key in d.keys
                if isinstance(key, ast.Constant)
            )
    return out


def _dead_fields(package: dict, bench) -> list:
    """Fields of the package that neither the package nor `bench` reads."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    reads = set()
    for tree in [*trees.values(), *(ast.parse(source) for source in bench)]:
        reads |= _field_reads(tree)
    return [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, name in _fields(tree)
        if name not in reads
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_layout(path):
    assert _violations(path.read_text()) == []


def test_guard_flags_private_and_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from .lie import _ZERO, Root\n"
        "from .orbits import Partition  # noqa: F401\n"
        "def f(r: Root):\n"
        "    return _ZERO\n"
    )
    assert _violations(source) == [
        "imports os but never uses it",
        "imports private _ZERO from .lie",
        "imports Partition but never uses it",
    ]


def test_guard_flags_stale_exports():
    source = (
        "from .lie import Root\n"
        "__all__ = ['Root', 'Datum', 'embed_case_two', 'build', 'LIMIT']\n"
        "LIMIT: int = 3\n"
        "class Datum:\n"
        "    pass\n"
        "def build(r: Root):\n"
        "    def embed_case_two():\n"
        "        pass\n"
    )
    assert _violations(source) == ["exports embed_case_two but never binds it"]


def test_every_definition_is_referenced():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [path.read_text() for path in sorted((ROOT / "tests").glob("*.py"))]
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _dead_names(package, others, bench) == []


def test_guard_flags_dead_names():
    package = {
        "mod.py": (
            "class Chart:\n"
            "    def read(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def orphan(self):\n"
            "        return Chart\n"
            "    def __repr__(self):\n"
            "        return 'Chart'\n"
            "def countdown(n):\n"
            "    return countdown(n - 1) if n else 0\n"
            "def traced():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
        ),
    }
    others = ["from mod import exported\nChart().read()\nNAMES = ['orphan']\n"]
    bench = ["SPANS = ('mod.traced',)\n"]
    assert _dead_names(package, others, bench) == [
        "mod.py: Chart.orphan",
        "mod.py: countdown",
    ]


def test_every_field_is_read():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _dead_fields(package, bench) == []


def test_guard_flags_unread_fields():
    package = {
        "mod.py": (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar, NamedTuple\n"
            "@dataclass(frozen=True)\n"
            "class Datum:\n"
            "    lam: int\n"
            "    mu: int\n"
            "    shown: int\n"
            "    kind: ClassVar[str] = 'datum'\n"
            "    def to_json(self):\n"
            "        return {'lam': self.lam, 'shown': 1}\n"
            "class Move(NamedTuple):\n"
            "    i: int\n"
            "    j: int\n"
            "class Grading:\n"
            "    __slots__ = ('levels', '_cache')\n"
            "    def __init__(self, levels):\n"
            "        self.levels = levels\n"
            "        self._cache = None\n"
            "    def width(self, move):\n"
            "        return len(self.levels) + move.i\n"
        ),
    }
    # only the benchmark's source reads `mu` and `j`; a store is no read
    bench = ["def timed(d, m):\n    return d.mu if m.j else 0\n"]
    assert _dead_fields(package, []) == [
        "mod.py: Datum.mu",
        "mod.py: Move.j",
        "mod.py: Grading._cache",
    ]
    assert _dead_fields(package, bench) == ["mod.py: Grading._cache"]


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import slred  # noqa: F401  (the tracer looks modules up once this has run)

    targets = [(module, path) for _name, module, path, *_cost in tracer.WRAPPED]
    targets += [(module, path) for _name, module, path in tracer.COUNTED]
    assert targets
    for module, path in targets:
        owner = sys.modules.get(module)
        assert owner is not None, f"import slred does not load {module}"
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
            assert owner is not None, f"{module}.{path} does not resolve"
        assert callable(owner), f"{module}.{path} is not callable"
