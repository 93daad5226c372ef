#!/usr/bin/env python3
"""fslat benchmark: run one named workload from a seed.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Single process, single thread, closed loop with one client: the next op
starts when the previous one returns.  fslat is imported from ``src/``
next to this directory; nothing is installed.

``--trace 0`` times whole passes over the workload's fixed op list until
``--seconds`` is used up (always at least one pass) and reports the
end-to-end metrics; ``setup_s`` is the median of setups spread over the
run.  Those times are scaled to a reference host speed sampled during the
run (``hostspeed.py``); the raw ones go to the detail line.  ``--trace 1`` makes one pass in which every op runs
untraced and then traced (order alternating per op; the untraced twin is
skipped once ``--seconds`` have passed) and reports per-layer metrics from
the spans.  Every op's output is checked by ``oracle.py``.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run environment and the tail percentile used.  Run artefacts go to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# An untraced run sets up SETUP_SAMPLES times and reports the median: once
# before measuring (that copy's ops are timed) and then at even intervals
# between ops, with the pass clock paused, so that the median spans the run
# rather than one moment of host speed.  Setups still due when measuring
# ends run after it.
SETUP_SAMPLES = 25
TAIL_BEYOND = 10
FSLAT_MODULES = ("groups", "algebras", "constructions", "quasivar", "irrationals", "cli")
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    pass


def import_fslat():
    """Fresh import of fslat from ``src/``, refusing any other copy."""
    for name in [m for m in sys.modules if m == "fslat" or m.startswith("fslat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fs = {name: importlib.import_module(f"fslat.{name}") for name in FSLAT_MODULES}
    origin = Path(fs["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"imported fslat from {origin}, not from {SRC}")
    return fs


def setup(workload, seed, smoke, workdir, clock):
    """Import, generate inputs and warm up; returns the ops and the
    ``clock`` readings around that."""
    make_ops, warm = WORKLOADS[workload]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = clock()
    fs = import_fslat()
    ops = make_ops(fs, random.Random(seed), smoke, str(workdir))
    warm(fs, str(workdir))
    return ops, (t0, clock())


def run_op(op):
    try:
        return op.call()
    except Exception as exc:  # an op that crashes counts as failed; the run goes on
        return exc


def check_op(op, out, failures):
    if isinstance(out, Exception):
        reason = f"raised {type(out).__name__}: {out}"
    else:
        try:
            reason = op.check(out)
        except Exception as exc:  # malformed output is a failed op, not a crashed benchmark
            reason = f"oracle could not read output: {type(exc).__name__}: {exc}"
    if reason is not None:
        failures.append(f"{op.kind}: {reason}")


def tail(latencies_ns, per_pass):
    """Latency at the highest percentile that leaves TAIL_BEYOND ops of one
    pass above it; with k passes pooled, 10*k samples lie above it."""
    ordered = sorted(latencies_ns)
    beyond = min(TAIL_BEYOND, per_pass // 4)
    share = (per_pass - beyond) / per_pass
    index = max(0, round(share * len(ordered)) - 1)
    return ordered[index], 100 * share, len(ordered) - index - 1


def timed_run(ops, seconds, failures, setup_again, setups, clock):
    """Whole passes over ``ops``, timed by ``clock``.  ``setup_again()``
    appends one more setup window to ``setups``; it runs between ops, spread
    over ``seconds``, with the pass clock paused.  Returns the op windows
    and the pass windows (start, end, length less pauses)."""
    op_windows, pass_windows = [], []
    attempted = 0
    start = time.perf_counter()
    interval = seconds / SETUP_SAMPLES
    next_setup = start + interval
    while True:
        gc.collect()
        outputs = []
        paused_ns = 0
        t_pass = clock()
        for op in ops:
            t0 = clock()
            out = run_op(op)
            t1 = clock()
            op_windows.append((t0, t1))
            outputs.append(out)
            if len(setups) < SETUP_SAMPLES and time.perf_counter() >= next_setup:
                setup_again()
                gc.collect()
                next_setup = max(next_setup + interval, time.perf_counter())
                paused_ns += clock() - t1
        t_end = clock()
        pass_windows.append((t_pass, t_end, t_end - t_pass - paused_ns))
        for op, out in zip(ops, outputs):
            check_op(op, out, failures)
        attempted += len(ops)
        walls = [length for _, _, length in pass_windows]
        if time.perf_counter() - start + statistics.median(walls) / 1e9 > seconds:
            break
    return attempted, op_windows, pass_windows


def end_to_end(op_windows, pass_windows, setups, per_pass, scaled_ns):
    """End-to-end times from clock windows, each scaled by ``scaled_ns``."""
    latencies = [scaled_ns(t0, t1) for t0, t1 in op_windows]
    value, pct, beyond = tail(latencies, per_pass)
    metrics = {
        "wall_s": statistics.median(scaled_ns(*w) for w in pass_windows) / 1e9,
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": value / 1e6,
        "setup_s": statistics.median(scaled_ns(t0, t1) for t0, t1 in setups) / 1e9,
    }
    detail = {"tail_percentile": pct, "tail_samples_beyond": beyond}
    return metrics, detail


def traced_run(ops, seconds, failures, span_path):
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    traced_s = untraced_paired = traced_paired = 0.0
    paired = 0
    attempted = 0
    gc.collect()
    for i, op in enumerate(ops):
        reference = time.perf_counter() < deadline
        legs = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        for leg in legs:
            if leg == "plain" and not reference:
                continue
            if leg == "traced":
                tracer.op = i
                tracer.install()
            t0 = time.perf_counter_ns()
            out = run_op(op)
            elapsed = (time.perf_counter_ns() - t0) / 1e9
            if leg == "traced":
                tracer.uninstall()
                traced_s += elapsed
                if reference:
                    traced_paired += elapsed
            else:
                untraced_paired += elapsed
            attempted += 1
            check_op(op, out, failures)
        paired += reference
    metrics = tracer.metrics(traced_s, untraced_paired, traced_paired)
    tracer.write(span_path)
    detail = {
        "spans": tracer.span_count(),
        "span_file": str(span_path.relative_to(ROOT)),
        "paired_ops": paired,
        "traced_wall_s": traced_s,
    }
    return attempted, metrics, detail


def _git_rev():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fslat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, ops):
    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops_per_pass": len(ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "fslat" / "__init__.py").is_file():
        print(f"error: fslat sources not found under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{tag}"
    with (hostspeed.RawClock() if args.trace else hostspeed.HostSpeed()) as speed:
        try:
            ops, window = setup(args.workload, args.seed, args.smoke, workdir, speed.clock_ns)
        except (SetupError, ImportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setups = [window]
        failures: list[str] = []
        if args.trace:
            attempted, values, detail = traced_run(ops, args.seconds, failures, OUT / f"spans-{tag}.csv")
            units = dict(spans.PER_LAYER)
        else:
            again_dir = workdir.with_name(workdir.name + "-again")

            def setup_again():
                setups.append(setup(args.workload, args.seed, args.smoke, again_dir, speed.clock_ns)[1])

            attempted, op_windows, pass_windows = timed_run(
                ops, args.seconds, failures, setup_again, setups, speed.clock_ns
            )
            while len(setups) < SETUP_SAMPLES:
                setup_again()
            shutil.rmtree(again_dir, ignore_errors=True)
            values, detail = end_to_end(op_windows, pass_windows, setups, len(ops), speed.scaled_ns)
            raw, _ = end_to_end(op_windows, pass_windows, setups, len(ops), hostspeed.RawClock.scaled_ns)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
            detail.update(
                passes=len(pass_windows),
                op_samples=len(op_windows),
                host_speed_samples=len(speed.samples),
                host_speed=statistics.fmean(hostspeed.REFERENCE_NS / k for k in speed.samples),
                raw=raw,
                pass_wall_s=[length / 1e9 for _, _, length in pass_windows],
                setup_s=[(t1 - t0) / 1e9 for t0, t1 in setups],
            )
    detail["failures"] = failures[:20]
    env = environment(args, ops)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh, indent=2)
    shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
