"""The package's docstrings and comments state contracts, not measurements.

A timing, a memory figure or a before/after comparison goes stale as soon as the
code or the machine changes; CHANGES.md keeps those, with the setup they were
measured on, and a docstring points there instead.  A module's public names are
the package's too.
"""

import ast
import importlib
import io
import pathlib
import re
import tokenize

import pytest

import splinerf

SRC = pathlib.Path(__file__).parents[1] / "src" / "splinerf"
MEASURED = re.compile(r"\d+(\.\d+)?\s?(ms|µs|MiB|GiB)\b|\d+(\.\d+)?\s?s against\b")


def _text(path):
    """Every docstring and comment of a module, as (line, text) pairs."""
    source = path.read_text(encoding="utf-8")
    out = [(node.body[0].lineno, ast.get_docstring(node, clean=False))
           for node in ast.walk(ast.parse(source))
           if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
           and ast.get_docstring(node, clean=False)]
    out += [(tok.start[0], tok.string) for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_docstrings_and_comments_hold_no_measured_figure(path):
    found = [(line, match.group(0)) for line, text in _text(path)
             for match in MEASURED.finditer(" ".join(text.split()))]
    assert not found, f"{path.name}: measured figures belong in CHANGES.md: {found}"


@pytest.mark.parametrize("module", ["kernels", "features", "sampling", "regression", "leverage"])
def test_module_public_names_are_the_packages(module):
    # a name a module exports is one the package exports, so no public name serves tests
    # alone; cli is left out, since its main is the console entry point
    exported = importlib.import_module(f"splinerf.{module}").__all__
    assert [name for name in exported if not hasattr(splinerf, name)] == []
