"""Module hygiene: the dense oracle is a test reference that no production
module may import, every public top-level function or class is used
somewhere, and outside the oracle it is used by the program itself."""

import ast
import glob
import os
import re

import pytest

import stgp

SRC = os.path.dirname(stgp.__file__)
ROOT = os.path.dirname(os.path.dirname(SRC))


def imported_modules(source: str):
    """Absolute names of every module (or module attribute) a source file
    imports.  The package is flat, so a relative import resolves under
    stgp."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(p for p in ("stgp" if node.level else "",
                                        node.module or "") if p)
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


def imports_oracle(source: str) -> bool:
    return any(m == "stgp.oracle" or m.startswith("stgp.oracle.")
               for m in imported_modules(source))


def test_production_never_imports_oracle():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "oracle.py" in files and "solver.py" in files
    offenders = []
    for f in files:
        with open(os.path.join(SRC, f), encoding="utf-8") as fh:
            if f != "oracle.py" and imports_oracle(fh.read()):
                offenders.append(f)
    assert offenders == []


@pytest.mark.parametrize("line,hit", [
    ("from .oracle import dense_prior_precision", True),
    ("from . import oracle", True),
    ("from stgp import oracle", True),
    ("import stgp.oracle as o", True),
    ("from stgp.oracle import dense_prior_covariance", True),
    ("from .prior import phi_s", False),
    ("import oracle_of_delphi", False),
])
def test_import_parser(line, hit):
    assert imports_oracle(line) == hit


def public_definitions():
    """(file, name) of every public top-level function and class."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield os.path.basename(path), node.name


def test_no_unused_public_definitions():
    """A name that occurs as a word only once across the sources, the tests,
    the benchmark scripts and pyproject.toml occurs only in its own
    definition: nothing calls it."""
    paths = (glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
             + glob.glob(os.path.join(ROOT, "tests", "*.py"))
             + glob.glob(os.path.join(ROOT, "bench", "*.py"))
             + [os.path.join(ROOT, "pyproject.toml")])
    text = ""
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text += fh.read() + "\n"
    defs = list(public_definitions())
    assert ("solver.py", "gauss_newton") in defs
    unused = [f"{f}:{name}" for f, name in defs
              if len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1]
    assert unused == []


# the public reader of the CLI's own CSV artifacts, which only tests call
PRODUCTION_USE_EXCEPTIONS = {("cli.py", "read_state_csv")}


def referenced_names(paths):
    """Every name a set of source files loads, reads as an attribute or
    imports; definitions, strings and comments do not count."""
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_public_definitions_used_by_production():
    """A public top-level function or class of a production module (every
    module but oracle.py) is referenced by production code or by the
    benchmark scripts, not only by tests: test-only helpers belong in the
    tests or in oracle.py."""
    paths = [p for p in glob.glob(os.path.join(SRC, "*.py"))
             if os.path.basename(p) != "oracle.py"]
    used = referenced_names(paths + glob.glob(os.path.join(ROOT, "bench",
                                                           "*.py")))
    assert "linearize" in used and "stencil_slot" in used
    unused = [f"{f}:{name}" for f, name in public_definitions()
              if f != "oracle.py" and name not in used
              and (f, name) not in PRODUCTION_USE_EXCEPTIONS]
    assert unused == []


def test_referenced_names_parser(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import a.b as c\nfrom d import e\nx = f(g.h)\n"
                    "def unused():\n    'k'\n")
    assert referenced_names([str(path)]) == {"a.b", "e", "x", "f", "g", "h"}
