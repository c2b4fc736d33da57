"""Per-layer spans for a traced run, installed from outside the program.

Each traced function is replaced, by object identity, in every
``torikit.*`` module namespace and class that holds it.  Identity matters
because modules keep their own names for the same function: ``cli`` holds
``picard`` as ``compute_picard``, ``cone`` binds ``rank`` at import, and the
package re-exports ``torikit.picard`` as the function, which hides the
module of that name from attribute access.

A span's self time is its duration minus that of its child spans and of
the size hooks run after them, so the self times of all spans plus the
hook time add up exactly to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "fan", "cone", "lattice", "stratification", "rings", "picard")

TRACED = (
    "cli.main",
    "fan.parse_fan",
    "fan.validate_fan",
    "fan.orbit_table",
    "fan.simplicial_complex",
    "fan.incompleteness_reasons",
    "fan.is_smooth_fan",
    "fan.Fan.stabilizer_characters",
    "cone.double_description",
    "cone.Cone.same_cone",
    "cone.Cone.hilbert_basis",
    "cone.Cone.is_smooth",
    "lattice.rank",
    "lattice.smith_normal_form",
    "lattice.kernel_basis",
    "lattice.solve_integer",
    "lattice.quotient_by_sublattice",
    "lattice.invert_unimodular",
    "stratification.stratify",
    "stratification.certify_perfection",
    "stratification.equivariant_poincare_series",
    "stratification.ordinary_poincare_polynomial",
    "stratification.require_smooth",
    "stratification.dual_basis_character",
    "rings.face_monomials",
    "rings.ordinary_cohomology",
    "rings.restriction_map",
    "rings.check_restriction_injectivity",
    "rings.sr_presentation",
    "picard.picard",
)


def _entries(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


def _size_hooks(sizes: dict):
    """Hooks run after a span closes: (args, result) -> None."""

    def add(key, value):
        sizes[key] = sizes.get(key, 0) + value

    def validate_fan(args, result):
        k = len(args[0].cones)
        add("fan.validate_fan.pairs", k * (k - 1) // 2)

    def smith_normal_form(args, result):
        add("lattice.smith_normal_form.entries", _entries(args[0]))
        bits = _max_bits(result)
        if bits > sizes.get("lattice.smith_normal_form.max_bits", 0):
            sizes["lattice.smith_normal_form.max_bits"] = bits

    def restriction_map(args, result):
        add("rings.restriction_map.nonzero", int(bool(result)))

    return {
        "fan.validate_fan": validate_fan,
        "cone.double_description": lambda a, r: add("cone.double_description.inequalities", len(a[0])),
        "cone.Cone.hilbert_basis": lambda a, r: add("cone.Cone.hilbert_basis.elements", len(r)),
        "lattice.rank": lambda a, r: add("lattice.rank.entries", _entries(a[0])),
        "lattice.smith_normal_form": smith_normal_form,
        "rings.face_monomials": lambda a, r: add("rings.face_monomials.monomials", len(r)),
        "rings.restriction_map": restriction_map,
    }


class Tracer:
    """Wraps every function in ``TRACED`` while installed.

    Aggregates (calls, total, self time) per function for every traced
    call; the spans themselves (name, parent, call id, start, end) are kept
    only while ``record`` is true, in flat arrays, and written by ``dump``.
    Every root span starts a new call id, shared by the spans under it.
    """

    def __init__(self):
        self.calls = [0] * len(TRACED)
        self.total = [0.0] * len(TRACED)
        self.self_time = [0.0] * len(TRACED)
        self.hook_s = 0.0
        self.sizes: dict[str, int] = {}
        self.record = False
        self.call_id = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._active = [0] * len(TRACED)
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = _size_hooks(self.sizes)

    def _wrap(self, index: int, fn):
        stack, active = self._stack, self._active
        hook = self._hooks.get(TRACED[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.call_id += 1
            span = -1
            if self.record:
                span = len(self.span_name)
                self.span_name.append(index)
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_call.append(self.call_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [0.0, span]
            stack.append(frame)
            active[index] += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                active[index] -= 1
                duration = t1 - t0
                self.calls[index] += 1
                self.self_time[index] += duration - frame[0]
                if not active[index]:
                    self.total[index] += duration
                if span >= 0:
                    self.span_start[span] = t0
                    self.span_end[span] = t1
                if hook is not None and result is not None:
                    hook(args, result)
                    spent = perf_counter() - t1
                    self.hook_s += spent
                    duration += spent
                if stack:
                    stack[-1][0] += duration

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == "torikit" or name.startswith("torikit.")
        ]
        for index, qualname in enumerate(TRACED):
            layer, *path = qualname.split(".")
            owner = importlib.import_module(f"torikit.{layer}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(index, original)
            if len(path) > 1:
                self._patch(owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """(value, unit) per metric, as means per traced pass, so that the
        self times add up like the pass times."""
        out: dict[str, tuple[float, str]] = {}
        for index, name in enumerate(TRACED):
            out[f"{name}.calls"] = (self.calls[index] / passes, "count")
            out[f"{name}.total_s"] = (self.total[index] / passes, "s")
            out[f"{name}.self_s"] = (self.self_time[index] / passes, "s")
        sizes = dict(self.sizes)
        nonzero = sizes.pop("rings.restriction_map.nonzero", 0)
        max_bits = sizes.pop("lattice.smith_normal_form.max_bits", 0)
        for key, value in sizes.items():
            out[key] = (value / passes, "count")
        out["lattice.smith_normal_form.max_bits"] = (max_bits, "bits")
        pairs = sizes.get("fan.validate_fan.pairs", 0)
        dd = self.calls[TRACED.index("cone.double_description")]
        out["cone.double_description.calls_per_pair"] = (dd / pairs if pairs else 0.0, "ratio")
        restrictions = self.calls[TRACED.index("rings.restriction_map")]
        out["rings.restriction_map.nonzero_frac"] = (
            nonzero / restrictions if restrictions else 0.0, "ratio")
        out["tracing.hook_s"] = (self.hook_s / passes, "s")
        return out

    def self_sum(self) -> float:
        return sum(self.self_time) + self.hook_s

    def dump(self, path, argvs: list[list[str]]) -> None:
        """Write the recorded spans as columns; times are seconds from the
        first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": list(TRACED),
                    "calls": argvs,
                    "name": list(self.span_name),
                    "parent": list(self.span_parent),
                    "call": list(self.span_call),
                    "start": [round(t - origin, 9) for t in self.span_start],
                    "end": [round(t - origin, 9) for t in self.span_end],
                },
                fh,
            )
