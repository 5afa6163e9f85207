"""The package must load on the oldest Python that pyproject.toml declares.

The suite runs on one interpreter, so two checks stand in for an import
under the floor: every source file parses with the floor's grammar, and no
regular expression the source compiles uses a construct newer than it
(possessive repeats and atomic groups came in 3.11; on 3.10 ``re.compile``
raises on them when the module loads)."""

import ast
import re
from pathlib import Path

import pytest

PARSER = getattr(re, "_parser", None) or __import__("sre_parse")  # 3.10 has no re._parser

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lhecnn").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
RE_FUNCTIONS = {"compile", "fullmatch", "match", "search", "sub", "subn", "split",
                "findall", "finditer"}


def floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def patterns(tree: ast.AST):
    """The constant pattern of every ``re.<function>(...)`` call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in RE_FUNCTIONS and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.args[0].value


def opcodes(node):
    """Every opcode name in a parsed pattern, nested ones included."""
    if isinstance(node, PARSER.SubPattern):
        for op, arg in node:
            yield str(op)
            yield from opcodes(arg)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from opcodes(item)


def newer_opcodes(pattern: str) -> set[str]:
    return {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"} & set(opcodes(PARSER.parse(pattern)))


def test_the_floor_is_what_the_checks_assume():
    assert floor() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_with_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_regexes_use_nothing_newer_than_the_floor(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for pattern in patterns(tree):
        newer = newer_opcodes(pattern)
        assert not newer, f"{path.name}: {pattern!r} uses {sorted(newer)}"


def test_the_regex_check_sees_possessive_repeats():
    assert newer_opcodes("(?:a(?:,b++)*)?") == {"POSSESSIVE_REPEAT"}
    assert newer_opcodes("x(?>a|[bc]*+)") == {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}
    assert newer_opcodes("(?:-?[0-9]+(?:,-?[0-9]+)*)?") == set()
