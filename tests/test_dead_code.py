"""Every top-level public function and class of the package has a caller.

A definition in src/fdedim/*.py that no code in src/, scripts/ or
perfbench/ refers to is run by tests only.  A reference is a name, an
attribute, an imported name or a string constant: the benchmark tracer
names the functions it wraps by strings such as "box_count".
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public API kept for users without a caller in the code: the paper's
# dimension formulas, which acceptance criterion 3 checks, and the
# interpolation of a history segment
KEPT = ("bounds.fractal_bound", "bounds.hausdorff_bound_alpha_free",
        "bounds.fractal_bound_alpha_free", "core.interpolate")


def _public_definitions():
    for path in sorted((ROOT / "src" / "fdedim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def _references():
    refs = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    refs.add(node.value)
    return refs


def test_every_public_definition_is_referenced():
    refs = _references()
    unreferenced = [qual for qual, name in _public_definitions()
                    if name not in refs and qual not in KEPT]
    assert unreferenced == []

