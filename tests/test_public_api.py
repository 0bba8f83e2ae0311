"""Every public function and class member of ``risac`` has a caller outside the tests.

A function exported in a module's ``__all__``, and a public method,
classmethod, staticmethod or property of a class exported there, must be
referenced somewhere in ``src/risac`` or ``benchmarks/`` other than its own
definition and the package re-export in ``__init__``. Helpers that only tests
use belong in ``tests/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "risac"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _referenced_names() -> set:
    """Every name read as a bare name or an attribute in src (bar __init__) and benchmarks."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "benchmarks").rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_functions(module_name: str) -> list:
    mod = importlib.import_module(f"risac.{module_name}")
    return [
        name for name in getattr(mod, "__all__", [])
        if inspect.isfunction(getattr(mod, name))
        and getattr(mod, name).__module__ == mod.__name__
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_function_has_a_caller(module_name):
    referenced = _referenced_names()
    orphans = [n for n in _public_functions(module_name) if n not in referenced]
    assert not orphans, f"risac.{module_name} exports functions only tests call: {orphans}"


def _public_members(module_name: str) -> list:
    """``Class.member`` for each public callable or property defined on an exported class."""
    mod = importlib.import_module(f"risac.{module_name}")
    members = []
    for name in getattr(mod, "__all__", []):
        cls = getattr(mod, name)
        if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) or isinstance(value, (property, classmethod,
                                                                staticmethod)):
                members.append((f"{name}.{attr}", attr))
    return members


def test_member_scan_sees_methods_classmethods_and_properties():
    channels = [full for full, _ in _public_members("channels")]
    assert {"RisIsacScenario.from_scene", "RisIsacScenario.h_t", "RisIsacScenario.f_t",
            "Scene.n_ris", "Scene.replace"} <= set(channels)
    assert "DetectionConfig.threshold" in [full for full, _ in _public_members("sensing")]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_class_member_has_a_caller(module_name):
    referenced = _referenced_names()
    orphans = [full for full, attr in _public_members(module_name) if attr not in referenced]
    assert not orphans, f"risac.{module_name} exports class members only tests call: {orphans}"
