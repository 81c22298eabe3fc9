"""The benchmark can still reach every library name it uses.

The files under ``perfbench/`` drive the library through its modules by
attribute (``training.corpus_f1``, ``head.greedy_decode``, ...) and the
tracer replaces functions, methods and tensor primitives by name. Renaming
or deleting one of them breaks benchmark runs, so these tests are a fast
guard. The benchmark files are only read, never changed.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

from plugner import head, tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_attributes_used(path: Path) -> set[tuple[str, str]]:
    """(plugner module, attribute) for every ``alias.attr`` where ``alias = import_module("plugner.x")``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) == "import_module"
            and isinstance(node.value.args[0], ast.Constant)
            and node.value.args[0].value.startswith("plugner.")
        ):
            for target in node.targets:
                aliases[target.id] = node.value.args[0].value
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }


def test_every_library_name_the_benchmark_uses_exists():
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= module_attributes_used(path)
    assert {"plugner.head", "plugner.training"} <= {module for module, _ in used}  # the scan sees the calls
    missing = sorted(f"{module}.{attr}" for module, attr in used
                     if not hasattr(importlib.import_module(module), attr))
    assert missing == []


def test_tracer_installs_over_every_listed_name_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    matmul, step_scores = tensor.matmul, head.step_scores
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tensor.matmul is not matmul
        assert head.step_scores is not step_scores
    finally:
        tracer.uninstall()
    assert tensor.matmul is matmul
    assert head.step_scores is step_scores
