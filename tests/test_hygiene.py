"""Source hygiene: no module under src/tgq keeps an import it never uses,
no private module-level function or class is left that nothing else in
src/tgq names, no public function or method is left that nothing in
src/tgq names unless the package exports it, no private module-level
function takes a parameter it never reads, no parameter with a default is
left that no call in src/tgq sets, no dataclass declares a field that
src/tgq never reads, and every error message of src/tgq/dsl is pinned.

There is no linter among the dependencies, so this walks each module's AST.
A package ``__init__.py`` imports names to re-export them and is skipped by
the import check.
"""

import ast
import json
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tgq"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ are exported, so they count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert any(p.name == "search.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = "import os\nfrom typing import Optional, List\n\ndef f(x: Optional[int]):\n    return x\n"
    assert unused_imports(source) == [(1, "os"), (2, "List")]


def test_attribute_use_counts():
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def unreferenced_private_defs(sources: dict) -> list:
    """(module, name) of each private module-level function or class that
    no other top-level statement of any module in ``sources`` names."""
    defs, uses = [], []
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            uses.append(((module, i), names))
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defs.append(((module, i), stmt.name))
    return sorted((where[0], name) for where, name in defs
                  if not any(name in names for other, names in uses if other != where))


def test_no_unreferenced_private_defs():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in PACKAGE}
    assert unreferenced_private_defs(sources) == []


def test_detects_unreferenced_private_defs():
    sources = {
        "a.py": "def _dead():\n    return _dead()\n\n"
                "def _used():\n    return 1\n\nclass _Kept:\n    pass\n",
        "b.py": "from .a import _Kept\n\ndef f():\n    return a._used()\n",
    }
    assert unreferenced_private_defs(sources) == [("a.py", "_dead")]


def unread_parameters(sources: dict) -> list:
    """(module, function, parameter) of each parameter of a private
    module-level function in ``sources`` that its body never reads."""
    out = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                args = stmt.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                read = {n.id for body in stmt.body for n in ast.walk(body)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out += [(module, stmt.name, p) for p in params if p not in read]
    return sorted(out)


def test_every_private_function_parameter_is_read():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in PACKAGE}
    assert unread_parameters(sources) == []


def test_detects_unread_parameters():
    sources = {
        "a.py": "def _f(a, b, *rest, c=1, **extra):\n    b = c\n    return [a for _ in extra]\n\n"
                "def _g(x):\n    return lambda: x\n\n"
                "def public(unused):\n    pass\n\n"
                "class K:\n    def _m(self, unused):\n        pass\n",
    }
    assert unread_parameters(sources) == [("a.py", "_f", "b"), ("a.py", "_f", "rest")]


def unread_dataclass_fields(sources: dict) -> list:
    """(module, class, field) of each field declared by a dataclass in
    ``sources`` whose name no module there reads, as an attribute
    (``x.field``) or as a keyword argument (``f(field=...)``)."""
    fields, reads = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields += [(module, node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                reads.add(node.arg)
    return sorted(f for f in fields if f[2] not in reads)


def test_every_dataclass_field_is_read():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in PACKAGE}
    assert unread_dataclass_fields(sources) == []


def test_detects_unread_dataclass_fields():
    sources = {
        "a.py": "from dataclasses import dataclass\n\n"
                "@dataclass(frozen=True)\nclass A:\n    kept: int\n    passed: int\n"
                "    dead: int = 0\n\n"
                "class Plain:\n    ignored: int\n",
        "b.py": "import dataclasses\n\n@dataclasses.dataclass\nclass B:\n    gone: str\n\n"
                "def f(a):\n    a.dead = 1\n    return a.kept, B(passed=2)\n",
    }
    assert unread_dataclass_fields(sources) == [("a.py", "A", "dead"), ("b.py", "B", "gone")]


TESTS = Path(__file__).resolve().parent
DSL = sorted((SRC / "dsl").glob("*.py"))
_MESSAGE_ARG = {"_fail": 0, "ParseError": 0, "TgqError": 1}


def error_messages(source: str) -> list:
    """(line, regex) of the message of each ``_fail(...)``, ``TgqError(...)``
    and ``ParseError(...)`` call in ``source`` whose message is written out:
    the literal text or a module-level string constant holding it, or an
    f-string with each field read as any run of characters on one line."""
    tree = ast.parse(source)
    constants = {stmt.targets[0].id: stmt.value for stmt in tree.body
                 if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _MESSAGE_ARG and len(node.args) > _MESSAGE_ARG[node.func.id]):
            continue
        msg = node.args[_MESSAGE_ARG[node.func.id]]
        if isinstance(msg, ast.Name):
            msg = constants.get(msg.id, msg)
        if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
            out.append((node.lineno, re.escape(msg.value)))
        elif isinstance(msg, ast.JoinedStr):
            out.append((node.lineno, "".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else '[^"\n]*?'
                for part in msg.values)))
    return out


def unpinned_messages(sources: dict, pinned: str) -> list:
    """(module, line) of each message in ``sources`` that ``pinned`` never shows."""
    return sorted((module, line) for module, source in sources.items()
                  for line, pattern in error_messages(source)
                  if re.search(pattern, pinned) is None)


def pinned_text() -> str:
    """Every message of a pinned error envelope, and the text of every test."""
    envelopes = [json.loads(line) for line in
                 (TESTS / "data" / "pin_expected.jsonl").read_text().splitlines()]
    return "\n".join([e["error"]["message"] for e in envelopes if "error" in e]
                     + [p.read_text() for p in sorted(TESTS.glob("test_*.py"))])


def test_every_dsl_error_message_is_pinned():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in DSL}
    assert unpinned_messages(sources, pinned_text()) == []


def test_detects_unpinned_messages():
    sources = {"a.py": "def f(x):\n"
                       "    _fail('kept rule')\n"
                       "    _fail(f'{x} is not a node')\n"
                       "    raise TgqError(CODE, f'unknown {x} here')\n"
                       "    raise ParseError('dropped rule', 1, 1)\n"
                       "    _fail(_NAMED)\n\n"
                       "_NAMED = 'named rule'\n"}
    assert unpinned_messages(sources, "kept rule\nnode:a is not a node\nunknown\n") == [
        ("a.py", 4), ("a.py", 5), ("a.py", 6)]


# Public names reached from outside src/tgq: the package's exports and the
# CLI entry point named in pyproject.toml. A method called by duck typing
# (to_dict, pp, pinned, similarity, resolve, resolve_bindings) is referenced
# by any attribute of its name, so it needs no entry here.
PACKAGE_EXPORTS = "__init__.py"
ENTRY_POINTS = {"main"}  # tgq.cli:main


def exported_names(source: str) -> set:
    """The names a package ``__init__.py`` lists in ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return set()


def unreferenced_public_defs(sources: dict, allowed: set) -> list:
    """(module, name) of each public module-level function and each public
    method of a module-level class in ``sources`` that no code there names
    outside its own body, as a name, an attribute or an import, unless
    ``allowed`` holds it."""
    def names(tree) -> list:
        out = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append(node.id)
            elif isinstance(node, ast.Attribute):
                out.append(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out += [alias.name for alias in node.names]
        return out

    defs, counts = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for name in names(tree):
            counts[name] = counts.get(name, 0) + 1
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            defs += [(module, f) for f in members
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not f.name.startswith("_") and f.name not in allowed]
    return sorted((module, f.name) for module, f in defs
                  if counts.get(f.name, 0) == names(f).count(f.name))


def test_every_public_def_is_referenced():
    allowed = exported_names((SRC / PACKAGE_EXPORTS).read_text()) | ENTRY_POINTS
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unreferenced_public_defs(sources, allowed) == []


def test_detects_unreferenced_public_defs():
    sources = {
        "a.py": "def dead(n):\n    return dead(n - 1)\n\n"
                "def called():\n    return 1\n\n"
                "def exported():\n    pass\n\n"
                "class K:\n    def unused(self):\n        pass\n\n"
                "    def used(self):\n        return self.used\n\n"
                "    def to_dict(self):\n        return {}\n",
        "b.py": "from .a import called\n\ndef f(k):\n    return k.used(), called()\n",
    }
    assert unreferenced_public_defs(sources, {"exported", "to_dict"}) == [
        ("a.py", "dead"), ("a.py", "unused"), ("b.py", "f")]
    assert exported_names('__all__ = ["load", "parse"]\n') == {"load", "parse"}


def unset_optional_parameters(sources: dict, allowed: set) -> list:
    """(module, function, parameter) of each parameter with a default of a
    function or method in ``sources`` that no call there sets, by position
    or by keyword, unless ``allowed`` holds the function's name.

    A call is matched to every definition of the name it calls, as ``f(...)``
    or ``x.f(...)``; calling a class sets its ``__init__``. A call that
    passes ``*args`` or ``**kwargs`` sets every parameter. So a parameter set
    only through a dict of keyword arguments is never flagged:
    ``tasks.pattern_search`` is called only with the planner's ``**args``,
    and this check cannot tell which keys that dict holds."""
    defs, calls = [], {}  # calls: name -> [(positional count, keywords)]
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, node, methods.get(id(node))))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (float("inf") if spread else len(node.args),
                     None if spread else {k.arg for k in node.keywords}))
    out = []
    for module, f, cls in defs:
        if f.name in allowed:
            continue
        args = f.args
        positional = args.posonlyargs + args.args
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        if bound:
            positional = positional[1:]  # self or cls
        optional = [(i, a.arg) for i, a in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)]
        optional += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None]
        name = cls if f.name == "__init__" else f.name
        seen = calls.get(name, [])
        out += [(module, f"{cls}.{f.name}" if cls else f.name, param) for i, param in optional
                if not any(kws is None or param in kws or (i is not None and i < n)
                           for n, kws in seen)]
    return sorted(out)


def test_every_optional_parameter_is_set():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in PACKAGE}
    assert unset_optional_parameters(sources, ENTRY_POINTS) == []


def test_detects_unset_optional_parameters():
    sources = {
        "a.py": "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
                "def main(argv=None):\n    pass\n\n"
                "def spread(x=0, y=0):\n    pass\n\n"
                "class K:\n    def __init__(self, k=0, j=0):\n        pass\n\n"
                "    def m(self, p=0, q=0):\n        pass\n\n"
                "    @staticmethod\n    def s(u=0, v=0):\n        pass\n",
        "b.py": "def g(k, args):\n"
                "    f(1, 2, e=5)\n"
                "    spread(**args)\n"
                "    K(1)\n"
                "    k.m(1)\n"
                "    K.s(1)\n",
    }
    assert unset_optional_parameters(sources, {"main"}) == [
        ("a.py", "K.__init__", "j"), ("a.py", "K.m", "q"), ("a.py", "K.s", "v"),
        ("a.py", "f", "c"), ("a.py", "f", "d")]
