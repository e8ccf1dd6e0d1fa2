"""No module of the package branches on a model type, and the model
layer branches on no body type: what differs between models lives on the
model classes, and what differs between bodies on the body classes. Every
rejection retry runs in ``sampling.redraw``: the only loops of
``models.py`` and ``sampling.py`` that repeat until a test passes are its
rounds and the slope ladder of ``Model._slope``. Every draw site keys its
streams in one array, by ``sampling.substreams``: no comprehension of a
module calls ``substream``. No model defines a
one-point sampler, member or potential of its own, nor a body a one-point
gauge or membership, so every draw and every evaluation takes the batched
path. A body states its formulas alone: only ConvexBody defines the
public body methods, which validate their input once, tests and refuses
centers and defines ``gauge_batch`` and ``gauge_pair``; no formula of a
body validates, and a polytope's A x and an ellipsoid's Q x of its
centers come from one formula, its center pass. A model
evaluates through ``member_potential_batch`` alone: only Model defines
``member_batch`` and ``potential_batch``, and only ``Model._center_args``
refuses an x off a model's center. Only ``stencils.py`` calls a field
handed to it, so every finite-difference point is placed by its one
stencil, and only ``suites.py`` builds a verdict: no other module
constructs a CheckReport or defines a ``check_*`` function. The CLI
refuses no domain input itself: it raises no OutsideDomainError and
neither tests nor validates a center, so every domain refusal comes from
the library. No module imports
SciPy, which only the tests use, as an independent oracle, none takes more
than the default dialect from the csv module (``slice`` writes its text
itself, and the tests keep ``csv.writer`` as the reference for it), and
none imports a name it never uses. The imports run one way, from each
module to the layers below it, with one deferred import, and none inside
any other function."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pshmodels"
MODEL_CLASSES = {"Strip1D", "Disc1D", "StripTube", "EllipticTube"}
BODY_CLASSES = {"ConvexBody", "Polytope", "Ellipsoid", "SmoothBody",
                "Superellipse"}


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


def model_isinstance_lines(source: str, classes=MODEL_CLASSES) -> list:
    """The lines of source that isinstance-test one of classes, by
    default a model class."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _named_classes(node.args[1]) & classes]


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


def test_models_branch_on_no_body_class():
    # a body's own formulas (tight_covectors, gauges) carry what differs
    source = (SRC / "models.py").read_text()
    assert model_isinstance_lines(source, BODY_CLASSES) == []


def test_body_guard_sees_each_spelling():
    source = ("isinstance(body, Ellipsoid)\n"
              "isinstance(b, bodies.Polytope)\n"
              "isinstance(b, (SmoothBody, int))\n"
              "isinstance(m, StripTube)\n"
              "isinstance(b, Superellipse) or isinstance(b, ConvexBody)\n")
    assert sorted(model_isinstance_lines(source, BODY_CLASSES)) == [
        1, 2, 3, 5, 5]


def _is_retry_loop(node) -> bool:
    """A while loop, or a for loop over range(...)."""
    return isinstance(node, ast.While) or (
        isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range")


def retry_loops(source: str) -> list:
    """Where each retry loop of source runs: Class.function or function
    of the outermost function that holds it, or <module>, in source
    order."""
    found = []

    def visit(node, where, in_function):
        for child in ast.iter_child_nodes(node):
            if _is_retry_loop(child):
                found.append(".".join(where) or "<module>")
            if not in_function and isinstance(child, (
                    ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, where + (child.name,),
                      not isinstance(child, ast.ClassDef))
            else:
                visit(child, where, in_function)
    visit(ast.parse(source), (), False)
    return found


# the rounds of the one redraw function, and the slope ladder
RETRY_LOOPS = {"sampling.py": ["redraw"], "models.py": ["Model._slope"]}


@pytest.mark.parametrize("name", sorted(RETRY_LOOPS))
def test_one_redraw_loop(name):
    assert retry_loops((SRC / name).read_text()) == RETRY_LOOPS[name]


def test_loop_guard_sees_a_reintroduced_loop():
    source = ("def redraw(rngs):\n"
              "    for _ in range(3):\n"
              "        pass\n"
              "class EllipticTube:\n"
              "    def strip_points(self, W, rngs):\n"
              "        while rows:\n"
              "            rows = rows[1:]\n"
              "    def sample(self, rngs):\n"
              "        def draw(active):\n"
              "            for i in range(2):\n"
              "                pass\n"
              "        return [j for j in range(4)]\n"
              "    def listed(self, xs):\n"
              "        for x in xs:\n"
              "            pass\n"
              "for k in range(2):\n"
              "    pass\n")
    assert retry_loops(source) == ["redraw", "EllipticTube.strip_points",
                                   "EllipticTube.sample", "<module>"]


def substream_comprehension_lines(source: str) -> list:
    """The lines of source with a comprehension (list, set, dict or
    generator) whose elements call ``substream``, by name or attribute."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp,
                      ast.GeneratorExp)
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, comprehensions)
        and any(isinstance(call, ast.Call)
                and _named_classes(call.func) == {"substream"}
                for part in ([node.key, node.value]
                             if isinstance(node, ast.DictComp)
                             else [node.elt])
                for call in ast.walk(part)))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_streams_keyed_in_one_array(path):
    assert substream_comprehension_lines(path.read_text()) == []


def test_stream_guard_sees_each_comprehension():
    source = ("rngs = [substream(seed, k) for k in range(n)]\n"
              "rngs = (sampling.substream(seed, k) for k in range(n))\n"
              "rngs = {k: substream(seed, k) for k in range(n)}\n"
              "D = [unit_vector(substream(s, 0), 2) for s in seeds]\n"
              "rngs = substreams(seed, range(n))\n"
              "rng = substream(seed, 0)\n"
              "rows = [rng.random(2) for rng in substreams(seed, range(n))]\n"
              "keys = {substream: k for k in range(n)}\n")
    assert substream_comprehension_lines(source) == [1, 2, 3, 4]


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


def field_calls(source: str) -> list:
    """(function, line) of each call of a parameter named ``field`` in
    source: in the function or lambda that takes it, or in one nested in
    it. Defining a field and passing it on is no call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        if "field" not in [arg.arg for arg in params]:
            continue
        found += [(getattr(node, "name", "<lambda>"), call.lineno)
                  for call in ast.walk(node)
                  if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Name)
                  and call.func.id == "field"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_one_stencil(path):
    # second_differences places every stencil point and calls the field
    # once per batch; pointwise lifts a scalar field to a batched one
    callers = {name for name, _ in field_calls(path.read_text())}
    assert callers == ({"pointwise", "second_differences"}
                       if path.name == "stencils.py" else set())


def test_stencil_guard_sees_a_reintroduced_call():
    source = ("def _line_forms(field, Z, D, h):\n"
              "    points = np.concatenate([Z, Z + h * D])\n"
              "    return field(points)\n"
              "def levi_line(field, z, d, h):\n"
              "    return _line_forms(pointwise(field), z, d, h)\n"
              "def gauge_residuals(body, W, h):\n"
              "    def field(W):\n"
              "        return body.gauge_batch(W, W)\n"
              "    return central_differences(field, W, h)\n"
              "def lift(field):\n"
              "    def batch(Z):\n"
              "        return [field(z) for z in Z]\n"
              "    return batch\n"
              "square = lambda field, z: field(z) ** 2\n")
    assert field_calls(source) == [("_line_forms", 3), ("lift", 12),
                                   ("<lambda>", 14)]


def verdict_sites(source: str) -> list:
    """(name, line) of each function named check_* defined in source and
    of each CheckReport it constructs, by name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("check_")):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.Call) and "CheckReport" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append(("CheckReport", node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_one_check_layer(path):
    # every verdict (worst point, worst value, pass flag) is built in
    # suites; the layers below it compute diagnostics only
    if path.name != "suites.py":
        assert verdict_sites(path.read_text()) == []


def test_check_layer_guard_sees_a_reintroduced_verdict():
    source = ("from .suites import CheckReport\n"
              "from . import suites\n"
              "def check_plurisubharmonic(model, n, seed, h, tol):\n"
              "    return CheckReport('psh', model.name, n, h, tol, None,\n"
              "                       0.0, True)\n"
              "class Tube:\n"
              "    def check_ma(self):\n"
              "        return suites.CheckReport(*self.fields)\n"
              "def checks(reports):\n"
              "    return [report.check for report in reports]\n")
    assert sorted(verdict_sites(source)) == [
        ("CheckReport", 4), ("CheckReport", 8),
        ("check_ma", 7), ("check_plurisubharmonic", 3)]


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
    classes define for themselves."""
    return scalar_overrides(_package_classes(classes), SCALAR_BODY_METHODS)


def test_one_body_evaluation_path():
    # a body evaluates only in batches; its _gauge and contains are those
    # of ConvexBody, the batches of one row (a smooth body's scalar root
    # find runs its own one-point formula _member, through contains)
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
        def _member(self, x):
            return True

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
        "Polytope._gauge", "Ellipsoid.contains", "SmoothBody.contains"]


# the gauge contract: the center test, its refusal and the two gauge
# batches are stated once, on ConvexBody
GAUGE_CONTRACT = ("gauge_centers", "_centered", "gauge_batch", "gauge_pair")


def gauge_contract_overrides(classes) -> list:
    """The parts of the gauge contract the package's bodies among classes
    restate for themselves."""
    return scalar_overrides(_package_classes(classes), GAUGE_CONTRACT)


def test_one_gauge_contract():
    # a body defines its formulas and nothing else of the contract:
    # gauge_batch and gauge_pair refuse and evaluate through the center
    # pass _centers and the gauge formulas _gauges and _gauge_pairs. A
    # closed-form body has a center pass of its own, whose terms (A x, or
    # Q x and 1 - x Q x) every formula reads; an ellipsoid's also refuses
    # centers within 1e-12 of its boundary. A smooth body's pair is two
    # gauge batches, its two root finds
    from pshmodels import bodies
    assert scalar_overrides([bodies.ConvexBody], GAUGE_CONTRACT) == [
        f"ConvexBody.{name}" for name in GAUGE_CONTRACT]
    subclasses = _package_classes(_subclasses(bodies.ConvexBody))
    assert gauge_contract_overrides(subclasses) == []
    assert scalar_overrides(subclasses, ("_gauges",)) == [
        "Polytope._gauges", "Ellipsoid._gauges", "SmoothBody._gauges"]
    assert scalar_overrides(subclasses, ("_centers", "_gauge_pairs")) == [
        "Polytope._centers", "Polytope._gauge_pairs", "Ellipsoid._centers",
        "Ellipsoid._gauge_pairs"]


def center_products(source: str) -> list:
    """Class.method of each method in source that multiplies its body's
    matrix into the centers X, ``_matvec(self.<matrix>, X)``."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_matvec" and len(node.args) == 2
                    and isinstance(node.args[0], ast.Attribute)
                    and isinstance(node.args[0].value, ast.Name)
                    and node.args[0].value.id == "self"
                    and isinstance(node.args[1], ast.Name)
                    and node.args[1].id == "X"
                    for node in ast.walk(method)):
                found.append(f"{cls.name}.{method.name}")
    return found


def test_one_center_pass_per_body():
    # A x of a polytope and Q x of an ellipsoid come from one formula,
    # the center pass, which the center test and every gauge formula read
    assert center_products((SRC / "bodies.py").read_text()) == [
        "Polytope._centers", "Ellipsoid._centers"]


def test_center_pass_guard_sees_a_reintroduced_product():
    source = ("class Ellipsoid(ConvexBody):\n"
              "    def _centers(self, X):\n"
              "        return _matvec(self.Q, X)\n"
              "    def _hessians(self, C, Y):\n"
              "        QX = _matvec(self.Q, X)\n"
              "        return _matvec(self.Q, Y)\n"
              "class Polytope(ConvexBody):\n"
              "    def _gauges(self, X, Y):\n"
              "        return self.b - _matvec(self.A, X)\n"
              "    def _supports(self, A):\n"
              "        return _matvec(self._vertices, A)\n")
    assert center_products(source) == [
        "Ellipsoid._centers", "Ellipsoid._hessians", "Polytope._gauges"]


def test_gauge_contract_guard_sees_an_override():
    class Polytope:
        def gauge_centers(self, X):
            return X

    class Ellipsoid:
        def _centers(self, X):
            return X

        def gauge_batch(self, X, Y):
            return X

    class SmoothBody:
        def gauge_pair(self, X, Y, masked=False):
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


# the input contract: every public method of a body validates its input
# and is defined once, on ConvexBody; a body defines formulas alone
BODY_ENTRY_POINTS = ("contains", "contains_batch", "support", "support_batch",
                     "gauge", "gauge_batch", "gauge_pair", "gauge_centers",
                     "gauge_hessian", "gauge_hessian_batch",
                     "tight_covectors")
VALIDATORS = {"_rows", "_vector"}


def test_one_body_input_contract():
    from pshmodels import bodies
    assert scalar_overrides([bodies.ConvexBody], BODY_ENTRY_POINTS) == [
        f"ConvexBody.{name}" for name in BODY_ENTRY_POINTS]
    assert scalar_overrides(_package_classes(_subclasses(bodies.ConvexBody)),
                            BODY_ENTRY_POINTS) == []


def test_input_contract_guard_sees_an_override():
    class Ellipsoid:
        def contains_batch(self, W):
            return W

        def _members(self, W):
            return W

    class Superellipse:
        def support_batch(self, A):
            return A

    class Double:  # a test double, outside the package
        def gauge_centers(self, X):
            return X
    for cls in (Ellipsoid, Superellipse):
        cls.__module__ = "pshmodels.bodies"
    assert scalar_overrides(
        _package_classes([Ellipsoid, Superellipse, Double]),
        BODY_ENTRY_POINTS) == ["Ellipsoid.contains_batch",
                               "Superellipse.support_batch"]


def validating_methods(source: str, base: str = "ConvexBody") -> list:
    """Class.method of each method of a subclass of base in source (its
    classes, derived from base directly or through another of them) that
    calls a validator (``_rows``, ``_vector``)."""
    tree = ast.parse(source)
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    found = []

    def derives(cls) -> bool:
        names = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        return base in names or any(derives(classes[name]) for name in names
                                    if name in classes)
    for cls in classes.values():
        if cls.name == base or not derives(cls):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in VALIDATORS
                    for node in ast.walk(method)):
                found.append(f"{cls.name}.{method.name}")
    return found


def test_no_body_formula_validates():
    # the bodies' formulas run on the rows ConvexBody validated
    assert validating_methods((SRC / "bodies.py").read_text()) == []


def test_validation_guard_sees_a_formula():
    source = ("class ConvexBody:\n"
              "    def contains_batch(self, W):\n"
              "        return self._members(_rows(W, self.dim))\n"
              "class SmoothBody(ConvexBody):\n"
              "    def _member(self, x):\n"
              "        return _vector(x) is x\n"
              "class Superellipse(SmoothBody):\n"
              "    def _supports(self, A):\n"
              "        def inner():\n"
              "            return _rows(A, 2)\n"
              "        return inner()\n"
              "    def _members(self, W):\n"
              "        return rows(W)\n"
              "class Gauge:\n"
              "    def batch(self, Y):\n"
              "        return _rows(Y, self.dim)\n")
    assert validating_methods(source) == ["SmoothBody._member",
                                          "Superellipse._supports"]


def off_center_refusals(source: str) -> list:
    """The functions of source (the outermost one that holds it) that raise
    an OutsideDomainError whose text starts with "x is not"."""
    found = []

    def text(node) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr) and node.values:
            return text(node.values[0])
        return ""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Raise)
                    and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, ast.Name)
                    and child.exc.func.id == "OutsideDomainError"
                    and child.exc.args
                    and text(child.exc.args[0]).startswith("x is not")):
                found.append(function)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner and function is None
                  else function)
    visit(ast.parse(source), None)
    return found


# the one refusal of an x off a model's center
OFF_CENTER_REFUSALS = {"models.py": ["_center_args"]}


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_one_off_center_refusal(path):
    assert (off_center_refusals(path.read_text())
            == OFF_CENTER_REFUSALS.get(path.name, []))


def test_refusal_guard_sees_each_spelling():
    source = ("class Disc1D:\n"
              "    def metric(self, x, v):\n"
              "        if x:\n"
              "            raise OutsideDomainError('x is not in (-1, 1)')\n"
              "        raise OutsideDomainError('point is not in the disc')\n"
              "def disc_upper_bound(model, x, v):\n"
              "    def inner():\n"
              "        raise OutsideDomainError(f'x is not in the {x} center')\n"
              "    raise ValueError('x is not a vector')\n"
              "def chart(body, z):\n"
              "    raise OutsideDomainError(\"gauge center x is not inside\")\n")
    assert off_center_refusals(source) == ["metric", "disc_upper_bound"]


def domain_refusals(source: str) -> list:
    """(line, name) of each OutsideDomainError that source raises and of
    each call of ``in_center`` or ``_center_args`` in it, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "OutsideDomainError":
                found.append((node.lineno, "OutsideDomainError"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in ("in_center", "_center_args"):
                found.append((node.lineno, name))
    return sorted(found)


def test_cli_leaves_domain_refusals_to_the_library():
    assert domain_refusals((SRC / "cli.py").read_text()) == []


def test_domain_refusal_guard_sees_each_kind():
    source = ("def cmd_metric(args):\n"
              "    try:\n"
              "        model.metric(x, v)\n"
              "    except OutsideDomainError:\n"
              "        raise\n"
              "    if not model.in_center(x):\n"
              "        raise OutsideDomainError('x is not in the center')\n"
              "    x, v = model._center_args(x, v)\n"
              "    raise OutsideDomainError\n")
    assert domain_refusals(source) == [(6, "in_center"),
                                       (7, "OutsideDomainError"),
                                       (8, "_center_args"),
                                       (9, "OutsideDomainError")]


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


# the package's modules, lowest layer first: at run time a module imports
# only modules before it, so the imports form one direction; a model builds
# its discs (geodesics) and competitors (maximality) from the layers below
LAYERS = ("errors", "stencils", "bodies", "sampling", "geodesics",
          "maximality", "models", "levi", "suites", "cli", "__init__",
          "__main__")
# the one import inside a function: an identity residual is taken on the
# tube over a body, which geodesics cannot build from below models
DEFERRED_IMPORTS = {("geodesics", "identity_residual")}


def _is_type_checking(node) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def function_imports(source: str) -> list:
    """(function, line) of each import inside a function, the function
    named by the outermost one."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if function and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((function, child.lineno))
            if function is None and isinstance(child, (ast.FunctionDef,
                                                       ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)
    visit(ast.parse(source), None)
    return found


def runtime_imports(source: str) -> set:
    """The package modules source imports when it is imported: imports
    outside functions and outside ``if TYPE_CHECKING:``."""
    found = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if _is_type_checking(node):
                visit(node.orelse)
                continue
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")
                if node.level == 0 and module[0] != "pshmodels":
                    continue
                path = module[1:] if node.level == 0 else module
                found.update(path[:1] if path and path[0] else
                             {alias.name for alias in node.names})
            elif isinstance(node, ast.Import):
                found.update(alias.name.split(".")[1] for alias in node.names
                             if alias.name.startswith("pshmodels."))
            visit(ast.iter_child_nodes(node))
    visit(ast.parse(source).body)
    return found


def test_layers_list_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("layer", LAYERS)
def test_one_import_direction(layer):
    source = (SRC / f"{layer}.py").read_text()
    later = set(LAYERS[LAYERS.index(layer):])
    assert sorted(runtime_imports(source) & later) == []
    assert [(layer, function) for function, _ in function_imports(source)
            if (layer, function) not in DEFERRED_IMPORTS] == []


def test_import_direction_guard_sees_each_spelling():
    source = ("from typing import TYPE_CHECKING\n"
              "import pshmodels.cli\n"
              "from . import models, sampling\n"
              "from .levi import levi_line\n"
              "from pshmodels.suites import verify\n"
              "from pshmodels import reports\n"
              "if TYPE_CHECKING:\n"
              "    from .geodesics import chart\n"
              "else:\n"
              "    from .maximality import Competitor\n"
              "class Tube:\n"
              "    def gauges(self):\n"
              "        from .bodies import Gauge\n"
              "        def inner():\n"
              "            import pshmodels.errors\n"
              "def identity_residual():\n"
              "    from .models import EllipticTube\n")
    assert runtime_imports(source) == {"cli", "models", "sampling", "levi",
                                       "suites", "reports", "maximality"}
    assert function_imports(source) == [("gauges", 13), ("gauges", 15),
                                        ("identity_residual", 17)]
