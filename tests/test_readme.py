from __future__ import annotations

import ast
import re
from pathlib import Path

import amdigraph

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs_and_names_the_package_surface() -> None:
    # the package exports exactly what the README's Library section imports
    [block] = re.findall(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    imported = [
        name.strip()
        for names in re.findall(r"^from amdigraph import (.+)$", block, flags=re.M)
        for name in names.split(",")
    ]
    assert sorted(imported) == [
        "build_F",
        "certify_irreducible",
        "decide",
        "enumerate_structures",
        "factor_over_Q",
        "validate_certificate",
    ]
    assert sorted(amdigraph.__all__) == sorted(["__version__", *imported])


SRC = Path(amdigraph.__file__).resolve().parent


def _unreferenced_top_level_names() -> list[str]:
    """Top-level functions and classes of the package that no other top-level
    statement of the package references and that README.md does not name."""

    def refs(node: ast.AST) -> set[str]:
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name)
        return out

    defs: list[tuple[str, ast.stmt]] = []
    statements: list[tuple[ast.stmt, set[str]]] = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append((node, refs(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node))
    readme = README.read_text()
    return [
        qualified
        for qualified, node in defs
        if not any(node.name in names for other, names in statements if other is not node)
        and not re.search(rf"\b{re.escape(node.name)}\b", readme)
    ]


def test_every_top_level_definition_is_reached_from_the_package_or_the_readme() -> None:
    assert _unreferenced_top_level_names() == []
