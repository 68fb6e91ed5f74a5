"""The package's public surface has callers, and the proof library is
declared once.

A public function, method or static constructor of `src/casverify/*.py`
counts as called when some file in `src/`, `scripts/` or `perfbench/*.py`
names it: a `Name`, an `Attribute` or an import, not counting the package
`__init__.py`, which only re-exports.  `perfbench/tracing.py` wraps
functions by their string names, so those strings count too.  Tests are
not callers."""

import ast
import re
from pathlib import Path

from casverify import speclib

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "casverify"
CALLER_FILES = sorted({*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
                       *(ROOT / "perfbench").glob("*.py")} - {PACKAGE / "__init__.py"})

# Public names kept with no caller in those files, each with its reason.
NO_CALLER_ALLOWED: dict[str, str] = {}


def _public_definitions():
    """(qualified name, bare name) of every public module-level function
    and every public method or static constructor of a class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _referenced_names() -> set[str]:
    names = set()
    for path in CALLER_FILES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name.rpartition(".")[2] for a in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path.name == "tracing.py"):
                names.add(node.value)
    return names


def test_every_public_function_has_a_caller():
    used = _referenced_names()
    uncalled = sorted(qual for qual, bare in _public_definitions()
                      if bare not in used and qual not in NO_CALLER_ALLOWED)
    assert uncalled == []


def test_allowed_names_still_exist_without_a_caller():
    # An entry that gained a caller, or whose function is gone, is stale.
    used = _referenced_names()
    defined = {qual: bare for qual, bare in _public_definitions()}
    for qual in NO_CALLER_ALLOWED:
        assert qual in defined and defined[qual] not in used, qual


# -- the declared proof library ---------------------------------------------------

def _readme_library_names() -> list[str]:
    """The `speclib.<name>` entries in the first column of the README's
    proof-library table."""
    text = (ROOT / "README.md").read_text()
    table = text.split("## Proof library", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in table.splitlines():
        if line.startswith("|"):
            names += re.findall(r"`speclib\.(\w+)`", line.split("|")[1])
    return names


def test_speclib_all_is_the_readme_table():
    names = _readme_library_names()
    assert len(names) == len(set(names))
    assert sorted(speclib.__all__) == sorted(names)


def test_corpus_uses_every_library_name():
    used = set()
    for module in ("corpus.py", "awsport.py"):
        tree = ast.parse((PACKAGE / module).read_text())
        used |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                 and n.value.id == "sl"}
    assert set(speclib.__all__) <= used, set(speclib.__all__) - used
