"""Every module-level function, class and method of the library has a caller.

A definition counts as reached when some other top-level statement of a
library module (``__init__.py`` re-exports do not count) or of a benchmark
module refers to it: by a Name, an Attribute, an import alias, or a string
constant that is exactly the identifier, since the benchmark's tracer names
the functions it wraps as strings.  A method other than a dunder counts as
reached when that code names it anywhere outside the method's own body, for
instance from another method of its class.  Code that only tests reach
belongs in the tests, not in ``src/``.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "hybridlab").glob("*.py"))
CALLERS = [p for p in LIBRARY if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)
    return names


def top_level(path: Path) -> list[ast.stmt]:
    return ast.parse(path.read_text(), filename=str(path)).body


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_definitions() -> tuple[list[str], int]:
    """Names of unreached definitions, and how many definitions were checked."""
    refs = {(path, i): referenced_names(stmt)
            for path in CALLERS for i, stmt in enumerate(top_level(path))}
    unreached, checked = [], 0
    for path in LIBRARY:
        for i, stmt in enumerate(top_level(path)):
            if not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                continue
            elsewhere = [names for key, names in refs.items() if key != (path, i)]
            checked += 1
            if not any(stmt.name in names for names in elsewhere):
                unreached.append(f"{path.stem}.{stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for method in stmt.body:
                if not isinstance(method, FUNCTIONS) or is_dunder(method.name):
                    continue
                siblings = [referenced_names(other) for other in stmt.body if other is not method]
                checked += 1
                if not any(method.name in names for names in elsewhere + siblings):
                    unreached.append(f"{path.stem}.{stmt.name}.{method.name}")
    return unreached, checked


def test_every_library_definition_has_a_caller():
    unreached, checked = unreached_definitions()
    assert checked > 100
    assert unreached == [], f"defined in src/ but reached only by tests: {unreached}"


def check_module(tmp_path, monkeypatch, source: str) -> tuple[list[str], int]:
    module = tmp_path / "lonely.py"
    module.write_text(source)
    monkeypatch.setattr(sys.modules[__name__], "LIBRARY", [module])
    monkeypatch.setattr(sys.modules[__name__], "CALLERS", [module])
    return unreached_definitions()


def test_a_definition_reached_only_by_its_own_body_is_reported(tmp_path, monkeypatch):
    assert check_module(tmp_path, monkeypatch,
                        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
                        "def used():\n    return 1\n\n\nVALUE = used()\n") == (["lonely.lonely"], 2)


def test_a_method_reached_only_by_its_own_body_is_reported(tmp_path, monkeypatch):
    # _block is reached from draws, and draws from top-level code; alone
    # calls only itself, and dunders are never reported.
    source = ("class Streams:\n"
              "    def __init__(self):\n        self.cache = {}\n\n"
              "    def _block(self, k):\n        return k\n\n"
              "    def draws(self, k):\n        return self._block(k)\n\n"
              "    def alone(self, n):\n        return self.alone(n - 1) if n else 0\n\n\n"
              "VALUE = Streams().draws(1)\n")
    assert check_module(tmp_path, monkeypatch, source) == (["lonely.Streams.alone"], 4)
