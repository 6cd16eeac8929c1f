"""Static checks over the package source, with the standard library only.

Every import of a module in ``src/fluxgrad`` is used, every private
module-level function or class is referenced somewhere in ``src/``, every
public one is re-exported by ``__init__.py`` or referenced there too, no
module-level assignment gives a second name to something that already has
one, every field of a method or evaluation config is set as a keyword by
some call in ``cli.py`` or ``evalkit.py``, ``models._readonly`` is the
one place that makes an array read-only, ``models._Record.__init__`` the
one that sets a record's fields, ``geometry._row_norms`` the one that takes
row norms, ``models.softmax`` the one that max-shifts for an exponential,
``models._real`` the one check of a real setting's range (no other code
names infinity),
no ``except`` clause names ``OverflowError``, no module imports another's
private constant by name, no module imports ``dataclasses``, and
``geometry`` is the one Monte Carlo layer: it defines the sphere, the
antithetic pairs and their estimate, imports only ``models`` and ``errors``
from the package, and is where every import of ``SphereSpec`` comes from,
while ``divergence`` imports nothing from ``neflag``.  ``neflag`` reads no
f value: it neither imports nor calls ``evaluate`` or ``evaluate_batch``.
``__init__.py`` re-exports names it does not use, so it is only searched
for references.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fluxgrad"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def imported_names(tree):
    """The names each import statement of the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (a.asname or a.name for a in node.names)


def referenced_names(tree):
    """Every name the module reads, looks up as an attribute or imports from elsewhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = TREES[module]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_private_definition(module):
    private = [
        node.name
        for node in TREES[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    referenced = {name for tree in TREES.values() for name in referenced_names(tree)}
    assert sorted(set(private) - referenced) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_public_definition(module):
    # a public name that __init__ does not re-export (an import there is a reference) and no code names is dead
    public = [
        node.name
        for node in TREES[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    referenced = {name for tree in TREES.values() for name in referenced_names(tree)}
    assert sorted(set(public) - referenced) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_level_alias(module):
    aliases = [
        ast.unparse(node)
        for node in TREES[module].body
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Attribute))
    ]
    assert aliases == []


CONFIGS = ("NeflagConfig", "IgConfig", "SmoothGradConfig", "EvalConfig")


def test_every_config_field_is_set_outside_the_tests():
    # a field only the tests set is a setting no caller needs
    fields = {
        f"{node.name}.{field.value}"
        for tree in TREES.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in CONFIGS
        for stmt in node.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "_fields" for t in stmt.targets)
        for field in stmt.value.elts  # ``__slots__ = _fields = ("name", ...)``
    }
    assert len({f.split(".")[0] for f in fields}) == len(CONFIGS)
    set_by_callers = {
        kw.arg
        for module in ("cli.py", "evalkit.py")
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Call)
        for kw in node.keywords
    }
    assert sorted(f for f in fields if f.split(".")[1] not in set_by_callers) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_dataclasses(module):
    # each decoration compiles its generated methods at import; models._Record needs no code generation
    imports = [
        ast.unparse(node)
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert imports == []


def test_only_models_readonly_freezes_arrays():
    # one freeze helper, which copies, so no caller's array is frozen behind its back
    freezers = sorted(
        f"{module}:{getattr(node, 'name', '<module>')}"
        for module, tree in TREES.items()
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "setflags"
    )
    assert freezers == ["models.py:_readonly"]


def test_only_the_record_base_sets_fields():
    # each record checks its arguments, then hands them to the one constructor that writes the slots
    setters = sorted(
        f"{module}:{getattr(node, 'name', '<module>')}"
        for module, tree in TREES.items()
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__"
    )
    assert setters == ["models.py:_Record"]


def test_row_norms_come_from_one_helper():
    # np.linalg.norm(a, axis=1) costs more in its wrapper than in the sum on the search's small
    # rows; geometry._row_norms is its formula.  A vector norm, which takes no axis, may stay.
    calls = sorted(
        f"{module}:{call.lineno}"
        for module, tree in TREES.items()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and ast.unparse(call.func).endswith("linalg.norm")
        and (len(call.args) > 2 or any(kw.arg == "axis" for kw in call.keywords))
    )
    assert calls == []


def test_one_softmax():
    # a head reads its column of models.softmax; a second max-shifted exponential is a second softmax
    shifts = sorted(
        f"{module}:{getattr(node, 'name', '<module>')}"
        for module, tree in TREES.items()
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "reduce"
        and call.args and ast.unparse(call.args[0]) == "np.maximum"
    )
    assert shifts == ["models.py:softmax"]


def test_one_exponential_per_stage():
    # a gradient or a Laplacian reads the exponentials of its forward pass; a second np.exp forms them again
    exps = sorted({
        f"{module}:{getattr(node, 'name', '<module>')}"
        for module, tree in TREES.items()
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "np.exp"
    })
    assert exps == ["models.py:_act", "models.py:_rest", "models.py:expit", "models.py:softmax"]


def test_no_except_names_overflow_error():
    # an overflow the library can foresee is refused as a FluxgradError, so no caller catches Python's
    handlers = sorted(
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and "OverflowError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    )
    assert handlers == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_private_constant_is_imported_by_name(module):
    # ``from .models import _BLOCK_BYTES`` copies the value once, at import, so a later change to the
    # owner's constant, such as a test's monkeypatch, never reaches the copy; read it as models._BLOCK_BYTES
    copies = [
        alias.name
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if re.fullmatch(r"_[A-Z][A-Z0-9_]*", alias.name)
    ]
    assert copies == []


def test_one_check_per_real_setting():
    # an epsilon, radius, sigma, step, rate or margin goes through models._real; a hand-written
    # ``0 < v < np.inf`` elsewhere is a second rule, which drifts from the first
    infinities = sorted(
        f"{module}:{getattr(node, 'name', '<module>')}:{ref.lineno}"
        for module, tree in TREES.items()
        for node in tree.body
        for ref in ast.walk(node)
        if isinstance(ref, ast.Attribute) and ref.attr == "inf" and ast.unparse(ref.value) in ("np", "numpy", "math")
    )
    assert [site for site in infinities if not site.startswith("models.py:_real:")] == []


def package_imports(tree):
    """The package modules a module imports from: ``x`` of ``from . import x`` and of ``from .x import ...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from (a.name for a in node.names) if node.module is None else (node.module,)


def test_geometry_is_the_one_monte_carlo_layer():
    # neflag and divergence both draw on the sphere, its pairs and their estimate; a second definition, an import
    # of them from above geometry or a divergence that reaches into neflag splits the layer again
    owners = sorted(
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("SphereSpec", "IntegralEstimate", "_mirrored", "_estimate")
    )
    assert owners == ["geometry.py:IntegralEstimate", "geometry.py:SphereSpec", "geometry.py:_estimate",
                      "geometry.py:_mirrored"]
    assert sorted(set(package_imports(TREES["geometry.py"]))) == ["errors", "models"]
    assert "neflag" not in set(package_imports(TREES["divergence.py"]))
    sources = sorted({
        f"{module}:{node.module}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "SphereSpec" for a in node.names)
    })
    assert {"divergence.py:geometry", "neflag.py:geometry"} <= set(sources)
    assert [source for source in sources if not source.endswith(":geometry")] == []


def test_neflag_reads_no_f_value():
    # the search accepts a point on its exact flux and the map sums gradients, so an f value read there is unused
    tree = TREES["neflag.py"]
    assert {"evaluate", "evaluate_batch"} & (set(imported_names(tree)) | set(referenced_names(tree))) == set()
