"""Every public function and class member of ``risac`` has a caller in ``src``.

A function exported in a module's ``__all__``, and a public method,
classmethod, staticmethod or property of a class exported there, must be
referenced somewhere in ``src/risac`` other than its own definition and the
package re-export in ``__init__``: a function by name or attribute, a class
member by attribute. Helpers that only tests use belong in ``tests/``.

``BENCHMARK_ONLY`` names the exports that only ``benchmarks/`` keeps alive.
Each must stay exported, be read by the benchmark and have no ``src``
caller; a member that gains one leaves the set.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "risac"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


BENCHMARK_ONLY = {
    "config.render_config",
    "dual_waveform.autoscale_tau",
    "ris_isac.coupling_objective",
    "ris_isac.coupling_gradient",
    "ris_isac.fim_theta",
    "channels.RisIsacScenario.f_t",
    "channels.RisIsacScenario.f_r",
    "channels.RisIsacScenario.f_c",
}


def _referenced_names(files) -> tuple:
    """(bare names, attribute names) read in ``files``."""
    names, attrs = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _src_names() -> tuple:
    return _referenced_names(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _public_functions(module_name: str) -> list:
    mod = importlib.import_module(f"risac.{module_name}")
    return [
        name for name in getattr(mod, "__all__", [])
        if inspect.isfunction(getattr(mod, name))
        and getattr(mod, name).__module__ == mod.__name__
    ]


def _passed_parameters(files) -> dict:
    """Function name -> (largest positional count, keyword names) over the calls in ``files``.

    A call with ``*args`` counts as passing every positional parameter, and
    one with ``**kwargs`` every keyword.
    """
    passed = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            count, keywords = passed.get(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            keywords |= {k.arg for k in node.keywords}
            passed[name] = (max(count, len(node.args)), keywords)
    return passed


@pytest.mark.parametrize("module_name", MODULES)
def test_every_parameter_of_a_public_function_is_passed_in_src(module_name):
    # A parameter that no src call sets is a knob with one value in use: it
    # belongs in the body as a constant.
    passed = _passed_parameters(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    mod = importlib.import_module(f"risac.{module_name}")
    unset = []
    for name in _public_functions(module_name):
        if f"{module_name}.{name}" in BENCHMARK_ONLY:
            continue
        count, keywords = passed.get(name, (0, set()))
        params = inspect.signature(getattr(mod, name)).parameters.values()
        unset += [f"{name}({p.name})" for i, p in enumerate(params)
                  if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
                  and not (p.kind != p.KEYWORD_ONLY and i < count)
                  and not (p.kind != p.POSITIONAL_ONLY and (p.name in keywords
                                                           or None in keywords))]
    assert not unset, f"risac.{module_name} has parameters no src call passes: {unset}"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_function_has_a_caller(module_name):
    names, attrs = _src_names()
    orphans = [n for n in _public_functions(module_name) if n not in names | attrs
               and f"{module_name}.{n}" not in BENCHMARK_ONLY]
    assert not orphans, f"risac.{module_name} exports functions with no src caller: {orphans}"


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
    attrs = _src_names()[1]
    orphans = [full for full, attr in _public_members(module_name) if attr not in attrs
               and f"{module_name}.{full}" not in BENCHMARK_ONLY]
    assert not orphans, f"risac.{module_name} exports class members with no src caller: {orphans}"


def test_benchmark_only_names_are_exported_unused_in_src_and_read_by_the_benchmark():
    names, attrs = _src_names()
    bench_names, bench_attrs = _referenced_names(sorted((ROOT / "benchmarks").rglob("*.py")))
    exported = {f"{m}.{n}" for m in MODULES for n in _public_functions(m)}
    members = {f"{m}.{full}" for m in MODULES for full, _ in _public_members(m)}
    for qualified in sorted(BENCHMARK_ONLY):
        attr = qualified.rpartition(".")[2]
        if qualified in exported:
            assert attr not in names | attrs, f"{qualified} has a src caller; drop it from the set"
        else:
            assert qualified in members, f"{qualified} is no longer exported"
            assert attr not in attrs, f"{qualified} has a src caller; drop it from the set"
        assert attr in bench_names | bench_attrs, f"{qualified} is not read by the benchmark"
