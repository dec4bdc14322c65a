"""degenskel benchmark: seeded workloads against the public API and the CLI.

    python3 bench/run.py --workload flow_rigid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # all workloads, traced and not

One workload per run, from the root of a source checkout (the library is
imported from ``src/``).  The run sets up several times and reports the
median set-up time, then sends requests in whole rounds until at least
``--seconds`` of request time have passed, checking every result exactly
between rounds.  A wrong result exits 1 and names the request; a missing
source tree exits 2.  The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``--trace 1`` first runs untraced, then again with every timed entry point
wrapped in a span; the spans go to ``.bench_out/`` and the per-layer
numbers are derived from them.  Without ``--workload`` every workload runs
in its own process, traced and untraced, and a table of all metrics is
printed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import spans
from oracles import Mismatch
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("field", "parsing", "monoval", "dualcomplex", "weight", "flow", "cli")
SETUPS = 7
TAIL_NOTE = "latency_tail_ms is "
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_library():
    """Import degenskel afresh from src/ and return its modules by name."""
    for name in [n for n in sys.modules if n == "degenskel" or n.startswith("degenskel.")]:
        del sys.modules[name]
    pkg = importlib.import_module("degenskel")
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"degenskel.{m}") for m in MODULES})
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "degenskel":
        raise ImportError(f"degenskel was imported from {pkg.__file__}, not from src/")
    return lib


def set_up(cls, seed, tmp):
    """Median of SETUPS timed set-ups (import plus input generation)."""
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        lib = load_library()
        workload = cls(seed, tmp)
        times.append(time.perf_counter() - start)
    return statistics.median(times), lib, workload


def tail(latencies, pct):
    """Latency at percentile `pct` (linear interpolation), and the samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    pos = pct / 100 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for x in ordered if x > value)
    return value, beyond


def measure(workload, lib, tracer, seconds):
    """Whole rounds until `seconds` of request time; results checked between rounds."""
    latencies, failures = [], []
    digest = hashlib.sha256()
    measured = 0.0
    r = 0
    while measured < seconds:
        requests = workload.round_requests(r)
        state: dict = {}
        tracer.counting = r == 0
        done = []
        start = time.perf_counter()
        for req in requests:
            rid = len(latencies)
            t0 = time.perf_counter()
            try:
                with tracer.request(rid, req.kind, req.label):
                    out = workload.execute(lib, tracer, req, state)
            except Exception as exc:  # a failed request is counted, not fatal
                out = exc
            latencies.append(time.perf_counter() - t0)
            done.append((req, out))
        measured += time.perf_counter() - start
        tracer.enabled = False
        for i, (req, out) in enumerate(done):
            label = (
                f"{workload.name} seed {workload.seed} round {r} request {i}"
                f" [{req.kind} {req.label}]"
            )
            if isinstance(out, Exception):
                failures.append(f"{label}: {type(out).__name__}: {out}")
                text = "failed"
            else:
                workload.check(lib, req, out, label)
                text = workload.digest(req, out)
            if r == 0:
                digest.update(f"{req.kind}|{req.label}|{text}\n".encode())
        tracer.enabled = True
        r += 1
    return {
        "latencies": latencies,
        "failures": failures,
        "measured_s": measured,
        "rounds": r,
        "digest": digest.hexdigest()[:16],
    }


def child_ms(args, repeats=5):
    """Median wall time of a fresh interpreter running `args`."""
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], check=True, env=env, capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run_workload(args) -> int:
    cls = WORKLOADS[args.workload]
    tmp = Path(".bench_tmp") / f"{args.workload}-{args.seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        setup_s, lib, workload = set_up(cls, args.seed, tmp)
        plain = measure(workload, lib, spans.NullTracer(), args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_process" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        traced = tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(lib)
            try:
                traced = measure(workload, lib, tracer, args.seconds)
            finally:
                tracer.uninstall()
    except Mismatch as exc:
        print(f"incorrect result: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lat = plain["latencies"]
    ops = len(lat) / plain["measured_s"]
    pct = cls.TAIL_PERCENTILE
    tail_s, beyond = tail(lat, pct)
    main_phase = traced or plain
    for line in main_phase["failures"][:5]:
        print(f"failed: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {plain['rounds']} rounds, {len(lat)} requests"
        f" in {plain['measured_s']:.2f} s, {len(plain['failures'])} failed, digest {plain['digest']}"
    )
    print(f"{TAIL_NOTE}p{pct:g} over {len(lat)} samples, {beyond} beyond it")

    if not args.trace:
        values = {
            "ops_per_s": ops,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        values = spans.layer_metrics(tracer)
        interp = child_ms(["-c", "pass"])
        values["cli.process.interpreter_ms"] = interp
        values["cli.process.import_ms"] = child_ms(["-c", "import degenskel.cli"]) - interp
        values["failed_ratio"] = len(traced["failures"]) / len(traced["latencies"])
        values["trace_overhead_ratio"] = ops / (len(traced["latencies"]) / traced["measured_s"])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_file)
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.per_layer_names()}

    result = {
        "correct": True,
        "attempted": len(main_phase["latencies"]),
        "failed": len(main_phase["failures"]),
        "metrics": metrics,
    }
    if args.record:
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            rounds=plain["rounds"],
            digest=plain["digest"],
            tail={"percentile": pct, "samples": len(lat), "beyond": beyond},
            recorded=time.time(),
        )
        Path(args.record).mkdir(parents=True, exist_ok=True)
        with open(Path(args.record) / "runs.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    record = Path(args.record or ROOT / ".bench_out" / f"all-seed{args.seed}")
    status = 0
    rows = []
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--record", str(record),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited {proc.returncode}")
                status = 1
                break
            lines = proc.stdout.strip().splitlines()
            results[trace] = json.loads(lines[-1])
            if trace == 0:
                tail_note = next(x for x in lines if x.startswith(TAIL_NOTE)).removeprefix(TAIL_NOTE)
        if len(results) < 2:
            continue
        plain, traced = results[0], results[1]
        for metric, unit in END_TO_END:
            note = tail_note if metric == "latency_tail_ms" else ""
            rows.append((name, metric, plain["metrics"][metric]["value"], unit, note))
        failed = f"{plain['failed']} of {plain['attempted']} requests"
        rows.append((name, "failed_ratio", plain["failed"] / plain["attempted"], "ratio", failed))
        overhead = traced["metrics"]["trace_overhead_ratio"]["value"]
        rows.append((name, "trace_overhead_ratio", overhead, "ratio", "reported, not gated"))
    print(f"{'workload':<15} {'metric':<21} {'value':>12}  unit")
    for name, metric, value, unit, note in rows:
        print(f"{name:<15} {metric:<21} {value:>12.6g}  {unit:<6} {note}")
    print(f"run records in {record}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each run's result to DIR/runs.jsonl")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/degenskel/__init__.py", "fixtures") if not (ROOT / p).exists()]
    if missing:
        print(f"not a degenskel checkout: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
