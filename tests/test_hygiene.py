"""Source hygiene: no dead module-level import, no ``__all__`` entry that names nothing,
no copy of the numeric check outside ``errors.number``."""

import ast
import importlib
from pathlib import Path

import pytest

import haloflow

PACKAGE = Path(haloflow.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's own top-level import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = [name for name in _imported_names(tree) if name not in read]
    assert not unused, f"{path.relative_to(PACKAGE)} imports {unused} and never reads them"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_all_entry_resolves(path):
    module = importlib.import_module(_module_name(path))
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which it does not define"


# the one numeric checker, and the CSV formatter, which writes a bool cell as
# true or false and checks no field
NUMBER_CHECKER = PACKAGE / "errors.py"
ALLOWED_FUNCTIONS = {PACKAGE / "reporting.py": "format_value"}


def _numeric_rule_copies(tree: ast.Module, allowed: str | None) -> list[str]:
    """Each ``isinstance(x, bool)`` call and ``float_info.max`` read, as
    ``line: source``, outside the function named ``allowed``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            skip.update(range(node.lineno, node.end_lineno + 1))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            hit = any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)
        else:
            hit = isinstance(node, ast.Attribute) and ast.unparse(node).endswith("float_info.max")
        if hit and node.lineno not in skip:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p != NUMBER_CHECKER],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_numeric_check_outside_the_checker(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    copies = _numeric_rule_copies(tree, ALLOWED_FUNCTIONS.get(path))
    assert not copies, (f"{path.relative_to(PACKAGE)} tests a bool or the double range itself; "
                        f"call errors.number instead: {copies}")
