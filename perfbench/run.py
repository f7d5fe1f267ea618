"""Benchmark runner: the probe engine, probe cache, shards and server.

Run from the repository root::

    python3 perfbench/run.py --workload W --seed S --seconds T [--trace 0|1]
    python3 perfbench/run.py --workload W --seed S --scale X [--trace 0|1]
    python3 perfbench/run.py run --label L --seed S [--scale 1.0] \\
        [--workload W ...] [--sets N] [--trace]
    python3 perfbench/run.py compare BASE.json NEW.json [MORE.json ...]

The first two forms run one workload (see ``workloads.py``) for ``T``
seconds, or for a fixed number of ops (the scale-1 count times ``X``).
They print every metric as ``workload metric value unit`` and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run first repeats the workload
untraced, to measure the tracing overhead and to check that tracing
leaves every output byte-identical.  The exit code is nonzero when a
check fails.

``run`` runs each workload in its own subprocess at fixed work, ``N``
times, and writes ``perfbench/results/BENCH_<L>.json`` with the machine
it ran on.  ``compare`` reads such files and gives each end-to-end metric
a verdict against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

# One BLAS thread, set before numpy is imported and inherited by the
# server and import-timing subprocesses.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
)
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Pairs of sets ``compare`` needs before it calls a change an improvement.
MIN_PAIRS = 10

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "trials_per_s": "trials/s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}; run from a "
                 f"checkout of the repository")


def _timed_setup(workload: Any) -> float:
    """Set the workload up as a fresh session would: import its modules in
    a new interpreter, then build fixtures and warm up."""
    began = time.monotonic()
    if workload.modules:
        subprocess.run([sys.executable, "-c",
                        "import " + ", ".join(workload.modules)], check=True)
    workload.setup()
    return time.monotonic() - began


def _plain_run(workload: Any, ops: Optional[int],
               seconds: Optional[float]) -> Tuple[Any, List[str],
                                                  Dict[str, float]]:
    import numpy as np
    from workloads import run_pass

    setups: List[float] = []
    for repetition in range(SETUPS):
        setups.append(_timed_setup(workload))
        if repetition < SETUPS - 1:
            workload.teardown()
    try:
        result = run_pass(workload, ops, seconds)
        rss = workload.peak_rss_mb()
        failures = workload.verify()
    finally:
        workload.teardown()
    # Times are divided by the host factor (see workloads.host_factor):
    # round by round for the timed pass, and by the run's median for
    # set-up, which one short sample would make noisier, not steadier.
    # Memory is reported as measured.
    latencies = np.asarray(result.norm_latencies) * 1e3
    metrics = {
        "setup_s": statistics.median(setups)
        / statistics.median(result.factors),
        "peak_rss_mb": rss,
        "trials_per_s": result.trials / result.norm_wall,
        "ops_per_s": result.ops / result.norm_wall,
        "op_p50_ms": float(np.percentile(latencies, 50)),
        "op_p90_ms": float(np.percentile(latencies, 90)),
    }
    return result, failures, metrics


def _traced_pass(workload: Any, plain: Any,
                 label: str) -> Tuple[Any, List[str], Dict[str, float]]:
    """Repeat ``plain``'s ops with the timing wrappers installed."""
    from tracing import Tracer, read_trace, write_trace
    from workloads import run_pass

    server_trace = workload.workdir / "server-trace.json" \
        if workload.remote else None
    tracer = None if server_trace is not None else Tracer()
    workload.setup(server_trace)
    try:
        if tracer is not None:
            tracer.install()
        try:
            traced = run_pass(workload, plain.ops, None, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures = workload.verify()
    finally:
        workload.teardown()
    spans = tracer.spans() if tracer is not None else read_trace(server_trace)
    RESULTS.mkdir(exist_ok=True)
    write_trace(RESULTS / f"trace_{label}_{workload.name}.json", spans,
                traced.window)
    if traced.digest != plain.digest:
        failures.append("traced outputs differ from untraced outputs")
    if traced.counts != plain.counts:
        failures.append(f"exact counts differ between the untraced and "
                        f"traced pass: {plain.counts} vs {traced.counts}")
    return traced, failures, _layer_metrics(workload, plain, traced, spans)


def _layer_metrics(workload: Any, plain: Any, traced: Any,
                   spans: Dict[str, List[float]]) -> Dict[str, float]:
    from tracing import DRAW_LAYERS, LAYERS, SAMPLE_LAYERS, layer_totals

    totals = layer_totals(spans, traced.window)
    # Time the clients spent waiting on the system: the wall for one
    # client, the summed round trips for the server's two.
    busy = traced.wall if workload.clients == 1 else sum(traced.latencies)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = totals[layer]["calls"]
        metrics[f"{layer}.self_s"] = totals[layer]["self_s"]
        metrics[f"{layer}.share"] = totals[layer]["self_s"] / busy
    other = busy - sum(entry["self_s"] for entry in totals.values())
    sampled = sum(totals[layer]["cols"] for layer in SAMPLE_LAYERS)
    support = sum(totals[layer]["cols"] for layer in DRAW_LAYERS)
    hits = traced.delta.get("cache_hit", 0)
    lookups = hits + traced.delta.get("cache_miss", 0)
    metrics.update({
        "other.self_s": other,
        "other.share": other / busy,
        "trials": traced.delta.get("trials", 0),
        "sketch_samples": traced.delta.get("sketch_samples", 0),
        "sketch.sample_useful_frac": support / sampled if sampled else 0.0,
        "sketch.sample_bytes_computed": sum(totals[layer]["bytes"]
                                            for layer in SAMPLE_LAYERS),
        "cache.hit_frac": hits / lookups if lookups else 0.0,
        "trace.overhead_frac": traced.norm_wall / plain.norm_wall - 1,
    })
    metrics.update(workload.extras(plain, traced))
    return metrics


def layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    from tracing import LAYERS
    from workloads import EXTRA_UNITS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.share": "frac"})
    units.update({
        "other.self_s": "s",
        "other.share": "frac",
        "trials": "count",
        "sketch_samples": "count",
        "sketch.sample_useful_frac": "frac",
        "sketch.sample_bytes_computed": "bytes",
        "cache.hit_frac": "frac",
        "trace.overhead_frac": "frac",
        **EXTRA_UNITS,
    })
    return units


def run_workload(args: argparse.Namespace) -> int:
    """One workload, one seed: print metrics, then the JSON result line."""
    _require_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    ops = None if args.scale is None \
        else max(1, round(cls.ops_at_scale_1 * args.scale))
    # On SIGTERM, unwind through the finally blocks that stop the server
    # and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = cls(args.seed, workdir)
    # A traced run is an untraced run plus a traced pass over the same
    # ops; its untraced part gives the end-to-end section of the record.
    try:
        plain, failures, values = _plain_run(workload, ops, args.seconds)
        passes = {"e2e": (plain, values, E2E_UNITS)}
        if args.trace:
            traced, more, values = _traced_pass(workload, plain, args.label)
            failures += more
            passes["layers"] = (traced, values, layer_units())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sections = {
        key: {
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
            "counts": result.counts,
            "digest": result.digest,
            "host_factor": statistics.median(result.factors),
        }
        for key, (result, values, units) in passes.items()
    }
    failures = [error for result, _, _ in passes.values()
                for error in result.errors] + failures
    for message in failures:
        print(f"{args.workload}: FAILED {message}", file=sys.stderr)
    for section in sections.values():
        for name, entry in section["metrics"].items():
            print(f"{args.workload} {name} {entry['value']:.6g} "
                  f"{entry['unit']}")
    failed = min(plain.ops, len(failures) + sum(
        result.failed for result, _, _ in passes.values()))
    correct = failed == 0
    if args.out is not None:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace, "correct": correct,
            "attempted": plain.ops, "failed": failed, "failures": failures,
            **sections,
        }, indent=1))
    metrics = sections["layers" if args.trace else "e2e"]["metrics"]
    print(json.dumps({"correct": correct, "attempted": plain.ops,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def machine_info() -> Dict[str, Any]:
    """The machine a BENCH file was measured on."""
    import numpy
    import scipy
    from repro.utils.parallel import available_cpus

    model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        if (index / "type").read_text().strip() != "Instruction":
            level = (index / "level").read_text().strip()
            caches[f"L{level}"] = (index / "size").read_text().strip()

    def git(*command: str) -> Optional[str]:
        try:
            return subprocess.run(["git", *command], cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", ".", ":!perfbench/results")
    return {
        "available_cpus": available_cpus(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status) if status is not None else None,
    }


def _invoke(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    WORK.mkdir(exist_ok=True)
    out = WORK / f"record-{os.getpid()}-{name}.json"
    completed = subprocess.run([
        sys.executable, __file__, "--workload", name, "--seed",
        str(args.seed), "--scale", str(args.scale),
        "--trace", str(int(args.trace)), "--label", args.label,
        "--out", str(out),
    ])
    if not out.is_file():
        sys.exit(f"perfbench: {name} exited {completed.returncode} "
                 f"without a result")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def run_sets(args: argparse.Namespace) -> int:
    """``run``: every workload in its own subprocess, ``--sets`` times."""
    _require_source()
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    sets = [{name: _invoke(name, args) for name in names}
            for _ in range(args.sets)]
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({
        "label": args.label,
        "machine": machine_info(),
        "settings": {"seed": args.seed, "scale": args.scale,
                     "sets": args.sets, "trace": args.trace},
        "sets": sets,
    }, indent=1) + "\n")
    print(f"wrote {path}")
    correct = all(record["correct"] for entry in sets
                  for record in entry.values())
    return 0 if correct else 1


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: Sequence[float], new: Sequence[float], bound: float,
            better: str) -> Tuple[str, float]:
    """Verdict on ``new`` against ``base`` and the fraction of pairs
    ``new`` wins (ties count for neither side)."""
    sign = 1.0 if better == "lower" else -1.0
    a1, a2, a3 = _quartiles(base)
    b1, b2, b3 = _quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (b - a) < 0 for a, b in pairs) / len(pairs)
    worse = sign * (b2 - a2) / a2
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    always_better = all(sign * (b - a) < 0 for a in base for b in new)
    if spread > bound and not always_better:
        return "unresolved", wins
    if worse > bound:
        return "regression", wins
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 and abs(b2 - a2) > a3 - a1:
        return "improved", wins
    return "unchanged", wins


def _check_repeats(label: str, sets: List[Dict[str, Any]]) -> List[str]:
    """Exact counts and digests must agree between one file's sets."""
    problems = []
    for name in sets[0]:
        runs = [entry[name]["e2e"] for entry in sets if name in entry]
        for key in ("counts", "digest"):
            if any(run[key] != runs[0][key] for run in runs):
                problems.append(f"{label}: {name} {key} differ between sets")
    return problems


def compare(paths: Sequence[str]) -> int:
    """``compare``: each later BENCH file against the first."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    files = [json.loads(Path(path).read_text()) for path in paths]
    base = files[0]
    problems = _check_repeats(paths[0], base["sets"])
    for path, other in zip(paths[1:], files[1:]):
        problems += _check_repeats(path, other["sets"])
        print(f"\n{paths[0]} -> {path}")
        print(f"{'workload':14} {'metric':13} {'base median [q1, q3]':>30} "
              f"{'new median [q1, q3]':>30} {'wins':>5}  verdict")
        workloads = [name for name in base["sets"][0]
                     if name in other["sets"][0]]
        for name in workloads:
            for metric in spec["end_to_end"]:
                values = [
                    [entry[name]["e2e"]["metrics"][metric["name"]]["value"]
                     for entry in side["sets"]]
                    for side in (base, other)
                ]
                result, wins = verdict(values[0], values[1], metric["bound"],
                                       metric["better"])
                cells = []
                for side in values:
                    q1, q2, q3 = _quartiles(side)
                    cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
                print(f"{name:14} {metric['name']:13} {cells[0]:>30} "
                      f"{cells[1]:>30} {wins:5.2f}  {result}")
        same_inputs = all(base["settings"][key] == other["settings"][key]
                          for key in ("seed", "scale"))
        sha = base["machine"]["git_sha"]
        same_commit = sha is not None and sha == other["machine"]["git_sha"]
        if not same_inputs:
            continue
        for name in workloads:
            ours = base["sets"][0][name]["e2e"]
            theirs = other["sets"][0][name]["e2e"]
            if ours["counts"] != theirs["counts"] and same_commit:
                problems.append(f"{name}: exact counts differ at the same "
                                f"commit: {ours['counts']} vs "
                                f"{theirs['counts']}")
            if ours["digest"] != theirs["digest"]:
                message = f"{name}: output digest drifted"
                if same_commit:
                    problems.append(message + " at the same commit")
                else:
                    print(message)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload (see the module docstring "
                    "for the run and compare subcommands).",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long")
    parser.add_argument("--scale", type=float, default=None,
                        help="measure this multiple of the scale-1 op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run",
                        help="names the trace file of a traced run")
    parser.add_argument("--out", default=None,
                        help="also write the full record here")
    return parser


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py run")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    return parser


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) < 3:
            sys.exit("usage: perfbench/run.py compare BASE.json NEW.json ...")
        return compare(argv[1:])
    if argv[:1] == ["run"]:
        return run_sets(_run_parser().parse_args(argv[1:]))
    args = _parser().parse_args(argv)
    if args.seconds is None and args.scale is None:
        sys.exit("perfbench: give --seconds or --scale")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
