"""lsfa's one way to factor a matrix, to call LAPACK and to check symmetry, read off its sources with ast.

objective._Block factors every symmetric positive-definite matrix and
objective.call_lapack makes every LAPACK call.  Two factorizations stay
outside them, each named here: newton's scipy.linalg.cho_factor, which the
benchmark times under that name, and datagen's np.linalg.cholesky, whose
factor the seeded instances are drawn through.  symbasis.require_symmetric
alone decides whether a matrix is symmetric.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lsfa").glob("*.py"))


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _names(tree) -> set[str]:
    """Every dotted name the module reads, and every name it imports, module-qualified."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif (name := _dotted(node)) is not None:
            names.add(name)
    return names


TREES = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
NAMES = {module: _names(tree) for module, tree in TREES.items()}


def _modules_where(predicate) -> set[str]:
    return {module for module, names in NAMES.items() if any(map(predicate, names))}


def test_the_sources_are_found():
    assert {"objective", "newton", "datagen", "harness"} <= set(NAMES)


def test_only_objective_binds_lapack_routines():
    assert _modules_where(lambda name: name.split(".")[-1] == "get_lapack_funcs") == {"objective"}


def test_scipy_is_read_only_by_objective_and_newtons_cho_factor():
    assert _modules_where(lambda name: name.split(".")[0] == "scipy") == {"objective", "newton"}
    scipy_names = {name for name in NAMES["newton"] if name.split(".")[0] == "scipy"}
    assert scipy_names == {"scipy", "scipy.linalg", "scipy.linalg.cho_factor"}


def test_only_datagen_factors_with_numpy():
    assert _modules_where(lambda name: name.split(".")[-1] == "cholesky") == {"datagen"}


def _is_transpose(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "T"


def _compares_with_transpose(node) -> bool:
    """True for X - Y.T, X -= Y.T, X == Y.T, X != Y.T and np.subtract(X, Y.T), in either order."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        operands = [node.left, node.right]
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
        operands = [node.target, node.value]
    elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        operands = [node.left, *node.comparators]
    elif isinstance(node, ast.Call) and _dotted(node.func) in ("np.subtract", "numpy.subtract"):
        operands = node.args
    else:
        return False
    return any(map(_is_transpose, operands))


def _functions_comparing_with_transposes(tree) -> set[str]:
    """The functions (innermost enclosing def, or <module>) holding such a comparison."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if _compares_with_transpose(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_require_symmetric_compares_a_matrix_with_its_transpose():
    # symmetrizing sums such as _Block.inv's inv + inv.T stay allowed
    found = {(module, function) for module, tree in TREES.items()
             for function in _functions_comparing_with_transposes(tree)}
    assert found == {("symbasis", "require_symmetric")}
