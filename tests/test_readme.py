from __future__ import annotations

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
