"""The library names the benchmark under perfbench/ rebinds or imports stay
resolvable, so removing or renaming one fails here and not only in a traced
benchmark run.  The names are read from the benchmark's own files."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tracer_targets():
    """The (owner, attribute, span, hook) targets of perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # built without __init__, which registers a fork hook; the lists need no state
    bare = tracer.Tracer.__new__(tracer.Tracer)
    return bare.setup_targets() + bare.step_targets()


def resolve(module, name):
    """What `from module import name` binds."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def netalloc_names(path):
    """(where, object or None) for every name the file imports from netalloc
    and every attribute it reads off a netalloc module so imported."""
    tree = ast.parse(path.read_text())
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "netalloc":
            for alias in node.names:
                try:
                    obj = resolve(node.module, alias.name)
                except (AttributeError, ImportError):
                    obj = None
                found.append((f"{node.module}.{alias.name}", obj))
                if isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((f"{modules[node.value.id].__name__}.{node.attr}",
                          getattr(modules[node.value.id], node.attr, None)))
    return found


def test_every_name_the_tracer_rebinds_resolves():
    targets = tracer_targets()
    assert len(targets) > 10
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"perfbench/tracer.py rebinds names the library lacks: {missing}"


def test_every_name_the_workloads_import_resolves():
    found = netalloc_names(PERFBENCH / "workloads.py")
    assert len(found) > 10
    missing = sorted({where for where, obj in found if obj is None})
    assert not missing, f"perfbench/workloads.py uses names the library lacks: {missing}"
