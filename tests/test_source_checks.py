"""Checks on the package source itself."""

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

import mine

# Hooks the standard library calls by name: argparse calls _Parser.error.
CALLED_BY_STDLIB = {"cli.py:error"}


def test_no_assert_statements_in_package():
    # Correctness checks must survive `python -O`, which strips asserts.
    found = []
    for path in sorted(Path(mine.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _names(path):
    """Names a file defines with def or class, and every other name token in it."""
    defined, named = [], Counter()
    prev = None
    with open(path, encoding="utf-8") as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME:
                if prev in ("def", "class"):
                    defined.append(tok.string)
                else:
                    named[tok.string] += 1
            prev = tok.string
    return defined, named


def test_every_definition_in_package_is_named_elsewhere():
    # A function, class or method nothing names is dead code.
    package = Path(mine.__file__).parent
    repo = Path(__file__).resolve().parent.parent
    defined, named = [], Counter()
    for root in (package, repo / "tests", repo / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            names, tokens = _names(path)
            named.update(tokens)
            if root == package:
                defined += [(path.name, name) for name in names]
    unnamed = [f"{file}:{name}" for file, name in defined
               if not (name.startswith("__") and name.endswith("__")) and not named[name]
               and f"{file}:{name}" not in CALLED_BY_STDLIB]
    assert unnamed == []


def test_every_private_definition_is_named_in_the_package():
    # Tests name private helpers too (they spy on some), so a private function
    # or class must also be named by the package itself, or it has lost its
    # last production caller.
    defined, named = [], Counter()
    for path in sorted(Path(mine.__file__).parent.rglob("*.py")):
        names, tokens = _names(path)
        named.update(tokens)
        defined += [f"{path.name}:{name}" for name in names
                    if name.startswith("_") and not name.endswith("__")]
    assert [where for where in defined if not named[where.partition(":")[2]]] == []


def test_package_init_files_import_nothing():
    # Each name is imported from the module that defines it: no __init__.py
    # re-exports, and none defines a name other than __version__.
    package = Path(mine.__file__).parent
    found = []
    for path in sorted(package.rglob("__init__.py")):
        where = path.relative_to(package)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append(f"{where}:{node.lineno}: import")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(f"{where}:{node.lineno}: {node.name}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and node.id != "__version__":
                found.append(f"{where}:{node.lineno}: {node.id}")
    assert found == []


def test_package_imports_only_the_standard_library():
    # The package stays pure Python with no runtime dependencies: every
    # import names a standard library module or the package itself.
    package = Path(mine.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(package)}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names | {"mine"}]
    assert found == []
