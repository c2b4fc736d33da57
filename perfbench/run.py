"""Benchmark of the torikit CLI over generated fan ladders.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 40 --trace 0

One process, one thread, one caller in a closed loop: each call to
``torikit.cli.main([..., "--format", "json"])`` starts when the previous one
returns.  A pass runs the workload's call list once; passes repeat until
``--seconds`` have elapsed.  Every output is checked against an
independent oracle (``oracles.py``) outside the timed interval.

``--trace 0`` reports the end-to-end metrics, with times scaled by an
in-run calibration of the host's speed (``calibrate``).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of ``spans.py``; its spans are written to ``perfbench/out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import fans
import oracles
from fans import FanData

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SUBCOMMANDS = ("validate", "orbits", "hilbert", "picard", "betti", "ring", "certify")
SETUP_REPEATS = 15
LABELINGS = 64
# Ten times the slowest call seen at any seed; a call past it fails.
CALL_DEADLINE_S = 10.0
# Stop starting calls this long after the process began, so that a run
# always exits well inside three minutes.
RUN_DEADLINE_S = 150.0
CLI_DEFAULT_DEGREE = 20


@dataclass(frozen=True)
class CallSpec:
    """One CLI call of a workload, before labelling."""

    subcommand: str
    fan: FanData | None  # None: the shipped fans/overlap_invalid.fan
    options: tuple[str, ...] = ()

    @property
    def degree(self) -> int:
        if "--max-degree" in self.options:
            return int(self.options[self.options.index("--max-degree") + 1])
        return CLI_DEFAULT_DEGREE

    @property
    def check(self):
        if self.fan is None:
            return oracles.check_invalid
        if self.subcommand == "betti" and "--ordinary" in self.options:
            return oracles.check_betti_ordinary
        return getattr(oracles, f"check_{self.subcommand}")


@dataclass(frozen=True)
class Call:
    spec: CallSpec
    fan: FanData | None
    argv: list[str]


def _deg(d: int) -> tuple[str, ...]:
    return ("--max-degree", str(d))


def workload_specs(name: str) -> list[CallSpec]:
    P, Q = fans.projective_space, fans.p1_power
    if name == "axioms":
        calls = [
            CallSpec("validate", P(4)),
            CallSpec("orbits", fans.blow_up_points(P(3), 2)),
            CallSpec("hilbert", Q(3)),
            CallSpec("validate", None),
        ]
    elif name == "cohomology":
        calls = [
            CallSpec("ring", P(3), _deg(10)),
            CallSpec("certify", P(3), _deg(10)),
            CallSpec("certify", Q(3), _deg(6)),
            CallSpec("betti", P(3), ("--ordinary",)),
        ]
    elif name == "lowdim":
        W = fans.weighted_projective_space
        calls = [CallSpec("picard", fans.iterated_blowup_p2(k)) for k in (19, 22)]
        calls += [
            CallSpec("hilbert", W((1, 1, 250))),
            CallSpec("hilbert", W((1, 3, 5, 31))),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    # Each subcommand the list above leaves out is called once on a small
    # surface, so that every metric is measured on every workload.
    f2 = fans.hirzebruch(2)
    extra = {
        "validate": CallSpec("validate", f2), "orbits": CallSpec("orbits", f2),
        "hilbert": CallSpec("hilbert", f2), "picard": CallSpec("picard", f2),
        "betti": CallSpec("betti", f2, ("--ordinary",)),
        "ring": CallSpec("ring", f2, _deg(6)), "certify": CallSpec("certify", f2, _deg(6)),
    }
    used = {c.subcommand for c in calls}
    return calls + [spec for s, spec in extra.items() if s not in used]


Labelled = list[tuple[CallSpec, FanData | None, str]]


def label_fans(workload: str, seed: int) -> list[Labelled]:
    """LABELINGS relabelled copies of the workload's fans, each with the
    text of its fan file; pass i runs copy i mod LABELINGS."""
    specs = workload_specs(workload)
    out = []
    for j in range(LABELINGS):
        rng = random.Random(f"{workload}:{seed}:{j}")
        copy = []
        for spec in specs:
            fan = None if spec.fan is None else fans.relabel(spec.fan, rng)
            copy.append((spec, fan, "" if fan is None else fan.text()))
        out.append(copy)
    return out


def write_labelings(workload: str, labelled: list[Labelled]) -> list[list[Call]]:
    """Write the fan files of every copy and return each copy's calls."""
    out = []
    for j, copy in enumerate(labelled):
        folder = OUT / "fans" / workload / str(j)
        folder.mkdir(parents=True, exist_ok=True)
        calls = []
        for k, (spec, fan, text) in enumerate(copy):
            if fan is None:
                path = ROOT / "fans" / "overlap_invalid.fan"
            else:
                path = folder / f"{k}.fan"
                path.write_text(text, encoding="utf-8")
            argv = [spec.subcommand, str(path), *spec.options, "--format", "json"]
            calls.append(Call(spec, fan, argv))
        out.append(calls)
    return out


def import_torikit():
    """Import torikit from this checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "torikit" or m.startswith("torikit.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    cli = importlib.import_module("torikit.cli")
    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"torikit imported from {cli.__file__}, not {src}")
    return cli


class CallDeadline(BaseException):
    """Raised by SIGALRM inside a call that ran past its deadline."""


def _alarm(signum, frame):
    raise CallDeadline


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    error: str | None


def run_call(main, argv: list[str], limit: float) -> Outcome:
    """Call ``main`` with a deadline; time only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    code, error, t1 = None, None, None
    signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
    t0 = perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            t1 = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallDeadline:
        error = f"ran past the {limit:.1f} s deadline"
    except (Exception, SystemExit) as exc:
        error = f"exception escaped main: {exc!r}"
    if t1 is None:
        t1 = perf_counter()
    return Outcome(t1 - t0, code, out.getvalue(), error)


class Runner:
    def __init__(self, cli, started: float):
        self.cli = cli
        self.run_deadline = started + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def out_of_time(self) -> bool:
        return perf_counter() >= self.run_deadline

    def call(self, argv: list[str]) -> Outcome:
        limit = min(CALL_DEADLINE_S, self.run_deadline - perf_counter())
        self.attempted += 1
        return run_call(self.cli.main, argv, limit)

    def fail(self, argv: list[str], reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{' '.join(argv)}: {reason}"[:300])

    def checked(self, call: Call) -> Outcome:
        result = self.call(call.argv)
        reason = result.error
        if reason is None:
            try:
                payload = json.loads(result.stdout)
            except ValueError:
                reason = f"exit {result.code}, output is not JSON"
            else:
                reason = call.spec.check(call.fan, call.spec.degree, result.code, payload)
        if reason:
            self.fail(call.argv, reason)
        return result

    def replay_goldens(self) -> int:
        """Run every shipped golden case; stdout must match byte for byte.

        The arguments are read back from each golden: the file name gives
        fan, subcommand and kind, and the payload gives --max-degree.
        """
        count = 0
        for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
            expected = path.read_text(encoding="utf-8")
            fan, variant = path.stem.split("__")
            subcommand, _, kind = variant.partition("_")
            argv = [subcommand, str(ROOT / "fans" / f"{fan}.fan")]
            payload = json.loads(expected)
            if kind == "ordinary":
                argv.append("--ordinary")
            elif subcommand == "betti":
                argv += ["--max-degree", str(len(payload["coefficients"]) - 1)]
            elif subcommand == "ring":
                argv += ["--max-degree", str(payload["cohomology"][-1]["degree"])]
            elif subcommand == "certify":
                degrees = payload["injectivity"]["degrees"]
                argv += ["--max-degree", str(degrees[-1]["degree"])]
            argv += ["--format", "json"]
            result = self.call(argv)
            if result.error or result.code != 0 or result.stdout != expected:
                self.fail(argv, result.error or f"exit {result.code}; differs from {path.name}")
            count += 1
        return count

    def run_pass(self, calls: list[Call]) -> dict[str, float] | None:
        """One pass; returns seconds per subcommand and in total, or None
        when the run deadline cut it short."""
        times = dict.fromkeys(SUBCOMMANDS, 0.0)
        for call in calls:
            if self.out_of_time():
                return None
            times[call.spec.subcommand] += self.checked(call).seconds
        times["pass"] = sum(times[s] for s in SUBCOMMANDS)
        return times


CALIBRATION_FAN = fans.blow_up_points(fans.projective_space(3), 2)
CALIBRATION_CONE = [(1, 0, 0), (0, 1, 0), (-3, -5, -11)]
CALIBRATION_MATRIX = [[(2 * i * i + 3 * j * j + 5 * i * j + i + 2 * j) % 19 - 9 for j in range(7)] for i in range(7)]
# End-to-end times are reported for a host on which calibrate() takes this
# long.  A shared host's speed drifts by 15-25% within a run and between
# runs, and moves every timing together; scaling each pass by the
# calibration taken just before it cut the spread between runs by 3-6x.
CALIBRATION_REF_S = 0.025


def calibrate() -> float:
    """Seconds for fixed exact arithmetic of the oracles, which share no
    code with torikit, so that the scale does not move with the program."""
    t0 = perf_counter()
    for _ in range(4):
        oracles.minimal_nonfaces(CALIBRATION_FAN)
        for k in (1, 2, 3):
            oracles.spans_quotient(CALIBRATION_FAN, k, [])
        oracles.hilbert_box(CALIBRATION_CONE)
        oracles.determinant(CALIBRATION_MATRIX)
    return perf_counter() - t0


def tail(values: list[float]) -> tuple[float, int]:
    """The 75th percentile (nearest rank) and how many samples lie above it.

    A run makes about 60 passes, so at least ten lie above it whenever the
    host allows 40.  The percentile is fixed so that a faster program, with
    more passes, is not measured at a higher percentile.
    """
    ordered = sorted(values)
    rank = math.ceil(0.75 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def setup(workload: str, seed: int):
    """Import torikit and generate the labelled fans, SETUP_REPEATS times,
    then write the last repeat's fan files.

    Each repeat is scaled by the calibration taken just before it, as each
    pass is.  Writing is not timed: it runs no torikit code, and rewriting
    the same files on an ext4 disk varied far more between runs than the
    rest of set-up.  Returns the module, the calls of every labelling, and
    the scaled and the wall-clock seconds of every repeat.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        scale = CALIBRATION_REF_S / calibrate()
        t0 = perf_counter()
        cli = import_torikit()
        labelled = label_fans(workload, seed)
        wall.append(perf_counter() - t0)
        scaled.append(wall[-1] * scale)
    return cli, write_labelings(workload, labelled), scaled, wall


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("axioms", "cohomology", "lowdim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, labelings, setup_times, setup_wall = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import torikit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(cli, started)
    goldens = runner.replay_goldens()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    passes: list[dict[str, float]] = []
    traced: list[float] = []
    t0 = perf_counter()
    i = 0
    calibration: list[float] = []
    wall: list[float] = []
    while perf_counter() - t0 < args.seconds and not runner.out_of_time():
        calibration.append(calibrate())
        scale = CALIBRATION_REF_S / calibration[-1]
        calls = labelings[i % LABELINGS]
        times = runner.run_pass(calls)
        if times is None:
            break
        wall.append(times["pass"])
        passes.append({k: v * scale for k, v in times.items()})
        if tracer is not None:
            tracer.record = not traced
            tracer.install()
            try:
                times = runner.run_pass(calls)
            finally:
                tracer.uninstall()
            if times is None:
                break
            traced.append(times["pass"])
            if tracer.record:
                argvs = [c.argv for c in calls]
        i += 1

    if not passes or (tracer is not None and not traced):
        print("error: no pass finished before the run deadline", file=sys.stderr)
        print("\n".join(runner.reasons), file=sys.stderr)
        return 1
    correct = runner.failed == 0
    pass_times = [p["pass"] for p in passes]
    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
        f"{runner.attempted} calls ({goldens} golden replays), {runner.failed} failed",
    ]
    if tracer is None:
        value, above = tail(pass_times)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(pass_times), "s"),
            "pass_s.tail": (value, "s"),
        }
        for s in SUBCOMMANDS:
            metrics[f"{s}_s"] = (statistics.median(p[s] for p in passes), "s")
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
        lines.append(f"pass_s.tail is the p75 of {len(pass_times)} pass times, {above} above it")
        lines.append(f"fail_frac {runner.failed / max(runner.attempted, 1):.4f}")
        lines.append(
            f"calibration median {statistics.median(calibration):.6f} s; each pass and set-up is "
            f"scaled by {CALIBRATION_REF_S} s over the calibration before it; on the wall clock "
            f"pass_s is {statistics.median(wall):.6f} s and setup_s {statistics.median(setup_wall):.6f} s")
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(span_file, argvs)
        metrics = tracer.metrics(len(traced))
        traced_wall = sum(traced) / len(traced)
        attributed = tracer.self_sum() / len(traced)
        # The self times must account for the traced wall time; what is
        # left is the wrapper's own cost outside the root span.
        if abs(traced_wall - attributed) > 0.01 * traced_wall:
            correct = False
            lines.append(f"self times add up to {attributed:.6f} s of {traced_wall:.6f} s traced")
        metrics["tracing.wall_s"] = (traced_wall, "s")
        metrics["tracing_overhead_s"] = (statistics.median(traced) - statistics.median(wall), "s")
        # The scale of the end-to-end times and what it is applied to, so a
        # comparison can tell a change of the scale from one of the program.
        metrics["calibration_s"] = (statistics.median(calibration), "s")
        metrics["untraced.pass_wall_s"] = (statistics.median(wall), "s")
        metrics["untraced.pass_s"] = (statistics.median(pass_times), "s")
        metrics["untraced.setup_wall_s"] = (statistics.median(setup_wall), "s")
        lines.append(f"{len(traced)} traced passes; spans of the first in {span_file.relative_to(ROOT)}")
        lines.append(f"self times plus size hooks: {attributed:.6f} s of {traced_wall:.6f} s traced wall per pass")
    for reason in runner.reasons:
        lines.append(f"FAILED {reason}")
    width = max(len(k) for k in metrics)
    for k, (v, unit) in metrics.items():
        lines.append(f"  {k:<{width}}  {v:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
