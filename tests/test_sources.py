"""The package's docstrings and comments state contracts, not measurements.

A timing, a memory figure or a before/after comparison goes stale as soon as the
code or the machine changes; CHANGES.md keeps those, with the setup they were
measured on, and a docstring points there instead.
"""

import ast
import io
import pathlib
import re
import tokenize

import pytest

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
