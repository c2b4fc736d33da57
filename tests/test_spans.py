"""The benchmark's tracer against the current package.

``perfbench/spans.py`` wraps each function named in its ``TRACED`` tuple,
by object identity, in every ``torikit`` namespace that holds it.  A
rename in ``src/`` that leaves a traced name unresolved would break the
traced benchmark, and a patch left behind would change the program it
measures.  The tracer is loaded by file, as ``conftest`` loads the fan
generator.
"""

import importlib
import importlib.util
import pathlib
import sys

import torikit.cli  # noqa: F401  (every layer is imported before the snapshot)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict:
    """Every attribute of the torikit modules and of the classes they
    define, keyed by (owner, attribute)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "torikit" and not name.startswith("torikit."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, v in vars(value).items():
                    out[(f"{name}.{attr}", member)] = v
    return out


def resolve(qualname: str):
    layer, *path = qualname.split(".")
    owner = importlib.import_module(f"torikit.{layer}")
    for part in path:
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_every_traced_name_and_restores_all():
    spans = load_spans()
    before = namespaces()
    originals = {q: resolve(q) for q in spans.TRACED}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for qualname, original in originals.items():
            wrapped = resolve(qualname)
            assert wrapped is not original, qualname
            assert wrapped.__wrapped__ is original, qualname
    finally:
        tracer.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, changed
