"""Every imported name in the package and its tests is used.

Walks the syntax tree of each module: a name bound by an import must be
read somewhere in the file, or listed in its ``__all__`` (a re-export).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "combadc").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_no_unused_imports():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in FILES
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}
