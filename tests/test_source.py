"""Static checks over the package source, using only the standard library."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names re-exported through __all__ count as used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [
        f"{path.relative_to(SRC)}:{line} {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_module_level_imports():
    unused = [entry for path in sorted(SRC.rglob("*.py")) for entry in _unused_imports(path)]
    assert unused == []


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every absolute import, at module level or inside a
    function."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    return names


def _third_party_imports(path: Path) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{line} {name}"
        for line, name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]


def test_src_imports_only_the_standard_library():
    # the package has no third-party dependency; every import, at module
    # level or inside a function, is relative or from the standard library
    imports = [entry for path in sorted(SRC.rglob("*.py")) for entry in _third_party_imports(path)]
    assert imports == []


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    out: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def _references(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_no_unreferenced_private_module_level_names():
    # a private name defined at module level must be used somewhere in the
    # package other than inside its own definition
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}
    references = [(node, _references(node)) for tree in trees.values() for node in tree.body]
    dead = [
        f"{path.relative_to(SRC)}:{definition.lineno} {name}"
        for path, tree in trees.items()
        for name, definition in _private_definitions(tree).items()
        if not any(name in names for node, names in references if node is not definition)
    ]
    assert dead == []


def _span_targets() -> dict[str, tuple]:
    path = SRC.parent / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS")
    }


def _resolve(module: str, *names: str):
    obj = importlib.import_module(f"cyclic_lrc.{module}")
    for name in names:
        obj = getattr(obj, name, None)
    return obj


def test_readme_library_entry_points_are_exported():
    # every name the README's "Library entry points" block imports is in
    # cyclic_lrc.__all__, so a retired entry cannot linger in the docs
    import cyclic_lrc

    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "cyclic_lrc"
        for alias in node.names
    ]
    assert "construct" in imported
    assert [name for name in imported if name not in cyclic_lrc.__all__] == []


def test_perfbench_span_targets_resolve():
    # the tracer wraps these names by lookup; one that a refactor drops
    # would stop `perfbench/run.py --trace 1` from installing
    targets = _span_targets()
    assert set(targets) == {"FUNCTIONS", "METHODS"}
    missing = [
        ".".join(target)
        for target in targets["FUNCTIONS"] + targets["METHODS"]
        if not callable(_resolve(*target))
    ]
    assert missing == []


def test_cli_import_loads_every_span_target_module():
    # the tracer imports only cyclic_lrc.cli and then reads sys.modules for
    # each targeted module, so a module the CLI loaded lazily would make
    # every `perfbench/run.py --trace 1` run raise KeyError; a fresh
    # process, since this test session has imported every module already
    targets = _span_targets()
    modules = sorted({target[0] for target in targets["FUNCTIONS"] + targets["METHODS"]})
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cyclic_lrc.cli; "
        "print([m for m in sys.argv[2:] if 'cyclic_lrc.' + m not in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC), *modules],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert "codefile" in modules  # the layer once proposed to load lazily
    assert out.stdout.strip() == "[]"


def test_roots_of_unity_come_from_primitive_nth_root():
    # every root of unity outside field.py is field.primitive_nth_root's
    # canonical one: no other module powers the multiplicative generator
    callers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
        and {"generator", "_multiplicative_generator"} & {getattr(node, "id", None), getattr(node, "attr", None)}
    ]
    assert callers == []


def test_no_module_names_a_splitting_field():
    # the codes are built, and their stated zeros confirmed, in GF(q) or
    # GF(q^2): no function, variable, attribute or import of the package
    # names the splitting field of x^n - 1 (the ex-3.3 diagnostic for a
    # GF(q^2) past the supported order, output bytes, is a string)
    hits = [
        f"{path.relative_to(SRC)}:{node.lineno} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _identifiers(node)
        if "splitting" in name.lower()
    ]
    assert hits == []


def _identifiers(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.alias):
        return [node.name, node.asname or ""]
    return []


def test_locality_has_one_certificate_and_no_budget():
    # the grid word is the only locality certificate: repair.py runs no
    # scan kernel, and verify_locality takes no enumeration budget
    tree = ast.parse((SRC / "cyclic_lrc" / "repair.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in imported if name.split(".")[-1] == "kernels"] == []
    verify_locality = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "verify_locality"
    )
    args = verify_locality.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["code", "r_test"]


def test_src_does_not_import_dataclasses():
    # dataclasses, the modules it loads and its code generation were about a
    # third of `import cyclic_lrc.cli`; value types derive from
    # field.Immutable or typing.NamedTuple instead
    hits = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _imported_modules(path)
        if name.split(".")[0] == "dataclasses"
    ]
    assert hits == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -I -S: no site hooks or environment that could load them first;
    # -B: the probe leaves no bytecode cache behind in src/
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cyclic_lrc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_algebra_layer_does_not_import_field_element():
    # polynomials, the scan kernel and the constructions compute on element
    # indices; FieldElement is built only at the public edges
    hits = [
        f"{name}:{node.lineno}"
        for name in ("poly.py", "kernels.py", "constructions.py")
        for node in ast.walk(ast.parse((SRC / "cyclic_lrc" / name).read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "FieldElement" for alias in node.names)
    ]
    assert hits == []


def test_field_element_is_a_checked_value_without_arithmetic():
    # element arithmetic is the field's, on indices; a FieldElement is built
    # by its checked constructor, or by field.py's private factory where the
    # digits are valid by construction
    from cyclic_lrc.field import FieldElement, FiniteField

    ops = ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "neg", "pos", "invert")
    arithmetic = {f"__{pre}{op}__" for op in ops for pre in ("", "r", "i")}
    # __add__ and one() stay while perfbench/selftest.py flips a repaired
    # symbol with `+ field.one()`; they go with the benchmark's next change
    assert arithmetic & set(vars(FieldElement)) == {"__add__"}
    assert not hasattr(FieldElement, "inverse")
    assert {"zero", "one", "elements", "generator"} & set(vars(FiniteField)) == {"one"}
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "FieldElement" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []


def test_poly_computes_by_products_and_division_only():
    # the codes are built from products of linear factors and long division
    # of x^n - 1; a point is evaluated by field._poly_eval on coefficients,
    # and a distance is read from the whole DistanceScan
    from cyclic_lrc.cyclic import DistanceScan
    from cyclic_lrc.poly import Poly

    ops = ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod", "pow", "neg", "pos", "invert")
    arithmetic = {f"__{pre}{op}__" for op in ops for pre in ("", "r", "i")}
    assert arithmetic & set(vars(Poly)) == {"__mul__", "__divmod__"}
    assert not {"zero", "one", "padded", "__call__"} & set(vars(Poly))
    assert not hasattr(DistanceScan, "value")
