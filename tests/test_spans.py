"""The benchmark's tracer against the current package.

``perfbench/spans.py`` wraps each function named in its ``TRACED`` tuple,
by object identity, in every ``torikit`` namespace that holds it.  A
rename in ``src/`` that leaves a traced name unresolved would break the
traced benchmark, and a patch left behind would change the program it
measures.  The tracer is loaded by file, as ``conftest`` loads the fan
generator.

A traced pass of each workload must also yield every per-layer metric
that ``BENCHMARK.json`` declares: ``Tracer.metrics`` reports a size
metric only when its hook fired, so a change that takes a hooked
function off a workload's path would drop that metric from the result.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import pathlib
import random
import sys

import pytest

import torikit.cli  # every layer is imported before the snapshot

from conftest import fans, oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_perfbench(name):
    """A fresh copy of ``perfbench/<name>.py``, registered in
    ``sys.modules`` because ``dataclasses`` looks its module up there."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
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
    spans = load_perfbench("spans")
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


@pytest.mark.parametrize("workload", ["axioms", "cohomology", "lowdim"])
def test_a_traced_pass_reports_every_declared_layer_metric(workload, tmp_path, monkeypatch):
    # run.py imports the generator and the oracles by their own names
    monkeypatch.setitem(sys.modules, "fans", fans)
    monkeypatch.setitem(sys.modules, "oracles", oracles)
    run, spans = load_perfbench("run"), load_perfbench("spans")
    rng = random.Random(f"{workload}:7:0")
    argvs = []
    for k, spec in enumerate(run.workload_specs(workload)):
        if spec.fan is None:
            path = ROOT / "fans" / "overlap_invalid.fan"
        else:
            path = tmp_path / f"{k}.fan"
            path.write_text(fans.relabel(spec.fan, rng).text(), encoding="utf-8")
        argvs.append([spec.subcommand, str(path), *spec.options, "--format", "json"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = torikit.cli.main(argv)
            assert code in (0, 1), argv
            json.loads(out.getvalue())
    finally:
        tracer.uninstall()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    wanted = [m["name"] for m in declared if m["name"].startswith(tuple(f"{layer}." for layer in spans.LAYERS))]
    missing = [name for name in wanted if name not in tracer.metrics(1)]
    assert wanted and not missing, missing
