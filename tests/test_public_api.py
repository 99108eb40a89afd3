"""The public API: vckit.__all__ and the README's library example agree
with what the package binds, so a removed name cannot linger in either
and an added one cannot be left out of __all__."""

from __future__ import annotations

import re
import types
from pathlib import Path

import vckit

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_code_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_all_names_are_bound_and_listed_once():
    assert len(vckit.__all__) == len(set(vckit.__all__))
    assert [name for name in vckit.__all__ if not hasattr(vckit, name)] == []


def test_every_public_binding_is_listed():
    bound = {
        name
        for name, value in vars(vckit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(vckit.__all__)) == []


def test_readme_library_example_names_resolve():
    used = set(re.findall(r"\bvckit\.(\w+)", _library_code_block()))
    assert used, "the README's Library code block names no vckit attribute"
    assert sorted(name for name in used if name not in vckit.__all__) == []
