"""lsfa's one way to factor a matrix and to call LAPACK, read off its sources with ast.

objective._Block factors every symmetric positive-definite matrix and
objective.call_lapack makes every LAPACK call.  Two factorizations stay
outside them, each named here: newton's scipy.linalg.cho_factor, which the
benchmark times under that name, and datagen's np.linalg.cholesky, whose
factor the seeded instances are drawn through.
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


NAMES = {path.stem: _names(ast.parse(path.read_text())) for path in SOURCES}


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
