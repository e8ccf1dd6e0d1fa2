"""No module of the package branches on a model type: what differs
between models lives on the model classes. No module imports SciPy,
which only the tests use, as an independent oracle."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pshmodels"
MODEL_CLASSES = {"Strip1D", "Disc1D", "StripTube", "EllipticTube"}


def _named_classes(node) -> set:
    """Every class name in an isinstance class argument: a name, an
    attribute such as models.StripTube, or a tuple of either."""
    if isinstance(node, ast.Tuple):
        return set().union(*(_named_classes(e) for e in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def model_isinstance_lines(source: str) -> list:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _named_classes(node.args[1]) & MODEL_CLASSES]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_isinstance_on_a_model_class(path):
    assert model_isinstance_lines(path.read_text()) == []


def test_guard_sees_each_spelling():
    source = ("isinstance(m, Strip1D)\n"
              "isinstance(m, models.EllipticTube)\n"
              "isinstance(m, (Disc1D, int))\n"
              "isinstance(m, Ellipsoid)\n")
    assert model_isinstance_lines(source) == [1, 2, 3]


def scipy_import_lines(source: str) -> list:
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_import_lines(path.read_text()) == []


def test_scipy_guard_sees_each_spelling():
    source = ("import scipy\n"
              "from scipy.optimize import minimize\n"
              "import numpy, scipy.linalg as la\n"
              "def f():\n"
              "    from scipy import optimize\n"
              "from .scipy_free import x\n"
              "import scipyish\n")
    assert scipy_import_lines(source) == [1, 2, 3, 5]
