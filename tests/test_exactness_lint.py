"""The package computes over int and Fraction only: no float name, no float
literal, and no true division unless one operand is a Fraction(...) call,
so that / never divides two ints.  Checked on the syntax tree of every
module of src/chowfans."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chowfans"
MODULES = sorted(SRC.glob("*.py"))


def _is_fraction_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def inexact_nodes(tree):
    """(line, reason) for each float name, float literal and true division
    without a Fraction(...) operand in a syntax tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "float name"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            out.append((node.lineno, "float literal %r" % (node.value,)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not (_is_fraction_call(node.left) or _is_fraction_call(node.right)):
                out.append((node.lineno, "true division"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            if not _is_fraction_call(node.value):
                out.append((node.lineno, "true division"))
    return sorted(out)


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"chow.py", "fans.py", "linalg.py", "rings.py", "kahler.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_float_and_no_int_division(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert inexact_nodes(tree) == []


@pytest.mark.parametrize("source, reasons", [
    ("x = a / b", ["true division"]),
    ("x = 0.5", ["float literal 0.5"]),
    ("x = 1e3 * y", ["float literal 1000.0"]),
    ("x = float(y)", ["float name"]),
    ("x /= n", ["true division"]),
    ("x = sum(v) / len(v)", ["true division"]),
    ("x = Fraction(a) / b", []),
    ("x = a / Fraction(b)", []),
    ("x /= Fraction(n)", []),
    ("x = Fraction(a, b) + a // b", []),
], ids=["div", "literal", "exponent-literal", "float-call", "aug-div",
        "mean", "fraction-left", "fraction-right", "aug-fraction", "exact"])
def test_lint_catches_inexact_code(source, reasons):
    assert [r for _, r in inexact_nodes(ast.parse(source))] == reasons
