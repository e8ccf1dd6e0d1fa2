"""No module of the package branches on a model type: what differs
between models lives on the model classes, and no model defines a
one-point sampler, member or potential of its own, nor a body a one-point
gauge or membership, so every draw and every evaluation takes the batched
path. A body states its gauge formula alone: only ConvexBody tests and
refuses centers and defines ``gauge_batch`` and ``gauge_pair``, and only
Ellipsoid has a center rule of its own. A model evaluates through
``member_potential_batch`` alone: only Model defines ``member_batch`` and
``potential_batch``. No module imports
SciPy, which only the tests use, as an independent oracle, none takes
more than the default dialect from the csv module (``slice`` writes its
text itself, and the tests keep ``csv.writer`` as the reference for it),
and none imports a name it never uses."""
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


def csv_use_lines(source: str) -> list:
    """The lines of source that take a name other than the default
    ``excel`` dialect from the csv module."""
    tree = ast.parse(source)
    return sorted(
        [node.lineno for node in ast.walk(tree)
         if isinstance(node, ast.Attribute)
         and isinstance(node.value, ast.Name) and node.value.id == "csv"
         and node.attr != "excel"]
        + [node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           and node.level == 0 and node.module == "csv"])


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_csv_dialect_only(path):
    # slice writes the text of csv.writer itself, a block of rows per
    # write; the package reads only the dialect from the csv module
    assert csv_use_lines(path.read_text()) == []


def test_csv_guard_sees_each_use():
    source = ("import csv\n"
              "w = csv.writer(handle)\n"
              "from csv import excel\n"
              "rows = csvkit.reader(handle)\n"
              "end = csv.excel.lineterminator\n"
              "def f():\n"
              "    return csv.QUOTE_MINIMAL\n")
    assert csv_use_lines(source) == [2, 3, 7]


SCALAR_SAMPLERS = ("sample_member", "sample_fd_safe", "strip_point")
SCALAR_EVALUATORS = ("member", "potential")


def scalar_overrides(classes, names=SCALAR_SAMPLERS) -> list:
    """Each of the methods names (by default the one-point samplers) a
    class defines for itself, as Class.name."""
    return [f"{cls.__name__}.{name}" for cls in classes
            for name in names if name in vars(cls)]


def _subclasses(cls) -> list:
    subs = []
    for sub in cls.__subclasses__():
        subs += [sub] + _subclasses(sub)
    return subs


def test_one_sampling_path():
    # a model draws only in batches; its one-point samplers are those of
    # Model, the batches of one row
    from pshmodels import models
    assert sorted(scalar_overrides([models.Model])) == sorted(
        f"Model.{name}" for name in SCALAR_SAMPLERS)
    assert scalar_overrides(_subclasses(models.Model)) == []


def test_sampler_guard_sees_an_override():
    class Scalar:
        def sample_fd_safe(self, rng, h):
            return rng

    class Batched:
        def sample_fd_safe_batch(self, rngs, h):
            return rngs
    assert scalar_overrides([Scalar, Batched]) == ["Scalar.sample_fd_safe"]


def _package_classes(classes) -> list:
    """The classes of the package among classes; the tests' own model and
    body doubles may evaluate one point at a time."""
    return [cls for cls in classes if cls.__module__.startswith("pshmodels")]


def test_one_evaluation_path():
    # a model evaluates only in batches; its member and potential are
    # those of Model, the batches of one row
    from pshmodels import models
    assert scalar_overrides([models.Model], SCALAR_EVALUATORS) == [
        "Model.member", "Model.potential"]
    assert scalar_overrides(_package_classes(_subclasses(models.Model)),
                            SCALAR_EVALUATORS) == []


def test_evaluation_guard_sees_an_override():
    class Scalar:
        def potential(self, z):
            return 0.0

    class Batched:
        def potential_batch(self, Z):
            return Z

    class Double:  # a test double, outside the package
        def potential(self, z):
            return 0.0
    Scalar.__module__ = Batched.__module__ = "pshmodels.models"
    assert scalar_overrides(_package_classes([Scalar, Batched, Double]),
                            SCALAR_EVALUATORS) == ["Scalar.potential"]


BATCH_EVALUATORS = ("member_batch", "potential_batch")


def test_one_model_evaluation():
    # a model defines member_potential_batch alone; member_batch and
    # potential_batch are those of Model, its mask and its values
    from pshmodels import models
    assert scalar_overrides([models.Model], BATCH_EVALUATORS) == [
        "Model.member_batch", "Model.potential_batch"]
    assert scalar_overrides(_package_classes(_subclasses(models.Model)),
                            BATCH_EVALUATORS) == []


def test_batch_evaluation_guard_sees_an_override():
    class StripTube:
        def potential_batch(self, Z):
            return Z

    class Disc1D:
        def member_batch(self, Z):
            return Z

    class Batched:
        def member_potential_batch(self, Z):
            return Z, Z

    class Double:  # a test double, outside the package
        def potential_batch(self, Z):
            return Z
    classes = [StripTube, Disc1D, Batched]
    for cls in classes:
        cls.__module__ = "pshmodels.models"
    assert scalar_overrides(_package_classes(classes + [Double]),
                            BATCH_EVALUATORS) == [
        "StripTube.potential_batch", "Disc1D.member_batch"]


SCALAR_BODY_METHODS = ("_gauge", "contains")


def scalar_body_overrides(classes) -> list:
    """The one-point gauges and memberships the package's bodies among
    classes define for themselves, but SmoothBody.contains: its scalar
    root find tests membership once per bracket step, where a batch of one
    row costs more."""
    return [name for name in scalar_overrides(_package_classes(classes),
                                              SCALAR_BODY_METHODS)
            if name != "SmoothBody.contains"]


def test_one_body_evaluation_path():
    # a body evaluates only in batches; its _gauge and contains are those
    # of ConvexBody, the batches of one row
    from pshmodels import bodies
    assert scalar_overrides([bodies.ConvexBody], SCALAR_BODY_METHODS) == [
        "ConvexBody._gauge", "ConvexBody.contains"]
    assert scalar_body_overrides(_subclasses(bodies.ConvexBody)) == []


def test_body_guard_sees_an_override():
    class Polytope:
        def _gauge(self, x, y):
            return 0.0

    class Ellipsoid:
        def contains(self, x):
            return True

    class SmoothBody:
        def _gauge(self, x, y):
            return 0.0

        def contains(self, x):
            return True

    class Batched:
        def gauge_batch(self, X, Y):
            return X

    class Double:  # a test double, outside the package
        def contains(self, x):
            return True
    classes = [Polytope, Ellipsoid, SmoothBody, Batched]
    for cls in classes:
        cls.__module__ = "pshmodels.bodies"
    assert scalar_body_overrides(classes + [Double]) == [
        "Polytope._gauge", "Ellipsoid.contains", "SmoothBody._gauge"]


# the gauge contract: the center test, its refusal and the two gauge
# batches are stated once, on ConvexBody
GAUGE_CONTRACT = ("gauge_centers", "_centered", "gauge_batch", "gauge_pair")


def gauge_contract_overrides(classes) -> list:
    """The parts of the gauge contract the package's bodies among classes
    restate for themselves, but Ellipsoid.gauge_centers: an ellipsoid also
    refuses centers within 1e-12 of its boundary."""
    return [name for name in scalar_overrides(_package_classes(classes),
                                              GAUGE_CONTRACT)
            if name != "Ellipsoid.gauge_centers"]


def test_one_gauge_contract():
    # a body defines its gauge formula _gauges and nothing else of the
    # contract; gauge_batch and gauge_pair refuse and evaluate through it
    from pshmodels import bodies
    assert scalar_overrides([bodies.ConvexBody], GAUGE_CONTRACT) == [
        f"ConvexBody.{name}" for name in GAUGE_CONTRACT]
    assert gauge_contract_overrides(_subclasses(bodies.ConvexBody)) == []
    assert scalar_overrides(_package_classes(_subclasses(bodies.ConvexBody)),
                            ("_gauges",)) == [
        "Polytope._gauges", "Ellipsoid._gauges", "SmoothBody._gauges"]


def test_gauge_contract_guard_sees_an_override():
    class Polytope:
        def gauge_centers(self, X):
            return X

    class Ellipsoid:
        def gauge_centers(self, X):
            return X

        def gauge_batch(self, X, Y):
            return X

    class SmoothBody:
        def gauge_pair(self, X, Y, centers=None):
            return X, Y

        def _gauges(self, X, Y):
            return X

    class Double:  # a test double, outside the package
        def gauge_batch(self, X, Y):
            return X
    classes = [Polytope, Ellipsoid, SmoothBody]
    for cls in classes:
        cls.__module__ = "pshmodels.bodies"
    assert gauge_contract_overrides(classes + [Double]) == [
        "Polytope.gauge_centers", "Ellipsoid.gauge_batch",
        "SmoothBody.gauge_pair"]


# names a module imports for others to read: perfbench's tracer test checks
# that tracing leaves cli.substream bound
REEXPORTS = {"cli.py": {"substream"}}


def unused_imports(source: str) -> list:
    """The names source imports and never reads, but those in its
    ``__all__``, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    unused = unused_imports(path.read_text())
    assert sorted(set(unused) - REEXPORTS.get(path.name, set())) == []


def test_import_guard_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import xml.dom\n"
              "from .bodies import Gauge, interval as segment, _rowdot\n"
              "__all__ = ['Gauge']\n"
              "def f(x: np.ndarray) -> float:\n"
              "    return xml.dom.x + _rowdot(x, x)\n")
    assert unused_imports(source) == ["os", "segment"]
