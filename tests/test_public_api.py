"""The public API: vckit.__all__, the README and the CLI's options agree
with what the package binds, so a removed name or flag cannot linger in
the README and an added name cannot be left out of __all__ or of the
README."""

from __future__ import annotations

import argparse
import re
import types
from pathlib import Path

import vckit
from vckit.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_code_block() -> str:
    section = _readme_section("Library")
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


def test_readme_names_every_public_name():
    # each name appears in a code span or code block of the README
    text = README.read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, re.S))
    named = set(re.findall(r"\w+", code))
    assert sorted(name for name in vckit.__all__ if name not in named) == []


def test_readme_flags_are_cli_options():
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        for option in action.option_strings
    }
    flags = set()
    for title in ("CLI", "Benchmark reports"):
        flags.update(re.findall(r"(?<![\w-])--[a-z][\w-]*", _readme_section(title)))
    assert "--time-limit" in flags, "the README's CLI sections name no flag"
    assert sorted(flags - options) == []
