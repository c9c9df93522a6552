"""itemsim benchmark: three seeded workloads through `itemsim.cli.main`.

    python3 perfbench/run.py --workload edit-sample --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run sets the workload's inputs up
SETUPS times in fresh processes (setup_s is their median), then runs the
command script as a closed loop with one client for --seconds, in one more
process, at least MIN_PASSES times. Times of the passes are wall times
corrected for the host's speed meanwhile (see hostspeed.py); their wall
times are reported too. Every output is checked; with --trace 1
a traced pass and the kernel replays follow and the per-layer metrics are
reported. A readable report goes to stdout, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics. The
full result, spans included, is written to .perfbench/results/.
`--workload all` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

import check
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

SETUPS = 5
MIN_PASSES = 2
DEADLINE_S = 170.0

# BLAS and OpenMP pools are pinned to one thread: the program's matrices
# are small, and on a shared machine extra threads only add noise
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("success_rate", "ratio"))

COUNTS = ("corpus.items", "corpus.solutions", "corpus.records", "tree.nodes", "tree.actions",
          "editdist.pairs", "editdist.self_pairs", "editdist.duplicate_pairs",
          "editdist.ted.cells", "editdist.levenshtein.cells", "editdist.nw.cells")
SETUP_LAYERS = ("corpus.save_corpus_s", "corpus.save_performance_s",
                "synth.generate_corpus_s", "synth.generate_performance_s")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"cli.{sub}_s": "s" for sub in tracing.SUBCOMMANDS}
    units.update({f"{name}_s": "s" for name in tracing.SPAN_METRICS})
    units.update({name: "s" for name in SETUP_LAYERS})
    units["pass.wall_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    for kind in tracing.EDIT_KINDS:
        units[f"editdist.{kind}.cells"] = "computed_cells"
        units[f"editdist.{kind}.cells_per_us"] = "cells/us"
    units["serialize.bytes_written"] = "bytes"
    units["trace.overhead_share"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


def _child(args: list[str], result: Path, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ITEMSIM_LOG"}
    env.update(CHILD_ENV)
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=env,
                              cwd=ROOT, timeout=timeout, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Ledger:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def check_passes(w, outputs: Path, passes: list[dict], ref: dict | None,
                 ledger: Ledger) -> None:
    """Every command of every pass: exit status, and for each output either
    its invariants and, for a pinned seed, the reference (the first time the
    output is written) or equality with those first bytes."""
    first: dict[str, bytes] = {}
    for p in passes:
        for cmd in p["commands"]:
            if cmd["error"]:
                ledger.record(f"{p['out']} {cmd['sub']}", [cmd["error"]])
                continue
            problems = []
            for name in check.OUTPUTS[cmd["sub"]]:
                path = outputs / p["out"] / name
                if not path.is_file():
                    problems.append(f"{name} not written")
                    continue
                data = path.read_bytes()
                if name in first:
                    if data != first[name]:
                        problems.append(f"{name} differs from the first pass that wrote it")
                    continue
                first[name] = data
                text = data.decode("utf-8", errors="replace")
                problems += check.invariants(name, text, w.n_items)
                if ref is not None:
                    problems += check.against_reference(name, text, ref)
            ledger.record(f"{p['out']} {cmd['sub']}", problems)


def check_trace(trace: dict, ref: dict | None, ledger: Ledger) -> None:
    """Every patch target present; the traced edit matrices' invariants and
    references; the kernel replay's self pairs and checksums."""
    problems = [f"not traced: {m}" for m in trace["missing_patches"]]
    for kind, rep in trace.get("edit_matrices", {}).items():
        problems += [f"{kind} matrix {p}" for p in rep["problems"]]
        if ref is not None and rep["sha256"] != ref["edit_matrices"].get(kind):
            problems.append(f"{kind} similarity matrix differs from the reference")
    ledger.record("trace checks", problems)
    if "kernels" in trace:
        problems = []
        for kind, rep in trace["kernels"].items():
            if rep["nonzero_self_pairs"]:
                problems.append(f"{kind}: {rep['nonzero_self_pairs']} self pairs not at distance 0")
            if ref is not None and rep["checksum"] != ref["kernels"][kind]:
                problems.append(f"{kind} replay checksum {rep['checksum']} != {ref['kernels'][kind]}")
        ledger.record("kernel replay", problems)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float,
                 record=None) -> dict:
    """One benchmark run. `record`, when given, replaces the reference
    comparison: it receives the first pass's output directory, the
    passes worker's result and the work counts before they are deleted."""
    w = WORKLOADS[name]
    ref = None if record else check.load_reference(name, seed)
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": _cpu_model(), "python": platform.python_version(),
           "loadavg_before": os.getloadavg()[0]}
    ledger = Ledger()
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE / "tmp"))
    try:
        setups = []
        for k in range(SETUPS):
            dest = scratch / f"inputs{k}"
            res = _child(["setup", name, str(seed), str(ROOT), str(dest), str(scratch / "s.json")],
                         scratch / "s.json", deadline)
            problems = list(res["problems"])
            if setups and res["digest"] != setups[0]["digest"]:
                problems.append("inputs differ from the first set-up of this seed")
            ledger.record(f"set-up {k}", problems)
            setups.append(res)
            if k:
                shutil.rmtree(dest)
        inputs = scratch / "inputs0"
        res = _child(["passes", name, str(ROOT), str(inputs), str(scratch / "out"),
                      str(seconds), str(MIN_PASSES), "1" if trace else "0",
                      str(scratch / "p.json")], scratch / "p.json", deadline)
        all_passes = res["passes"] + ([res["trace"]["pass"]] if trace else [])
        check_passes(w, scratch / "out", all_passes, ref, ledger)
        counts = dict(res["counts"])
        counts["serialize.bytes_written"] = sum(
            f.stat().st_size for f in (scratch / "out" / "pass0").iterdir())
        ledger.record("work counts", [] if ref is None else [
            f"{k} = {v}, reference {ref['counts'].get(k)}"
            for k, v in counts.items() if ref["counts"].get(k) != v])
        if trace:
            check_trace(res["trace"], ref, ledger)
        if record:
            record(scratch / "out" / "pass0", res, counts)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env.update(res["env"], loadavg_after=os.getloadavg()[0])
    return summarize(w, seed, ref, env, setups, res, counts, ledger, trace)


def summarize(w, seed, ref, env, setups, res, counts, ledger, trace) -> dict:
    run_times = [p["seconds"] for p in res["passes"]]
    wall_times = [p["wall_s"] for p in res["passes"]]
    commands = {}
    for sub in tracing.SUBCOMMANDS:
        times = [c["seconds"] for p in res["passes"] for c in p["commands"] if c["sub"] == sub]
        commands[f"cli.{sub}_s"] = statistics.median(times) if times else 0.0
    failed = len(ledger.failures)
    end_to_end = {
        "run_s": statistics.median(run_times),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "success_rate": 1.0 - failed / ledger.attempted,
    }
    samples = {"run_s": len(run_times), "setup_s": len(setups), "peak_rss_mb": 1,
               "success_rate": ledger.attempted}
    layers = {}
    if trace:
        t = res["trace"]
        layers.update(commands)
        for span in tracing.SPAN_METRICS:
            layers[f"{span}_s"] = t["totals"].get(span, 0.0)
        for name in SETUP_LAYERS:
            times = [s["layers"][name] for s in setups if name in s["layers"]]
            layers[name] = statistics.median(times) if times else 0.0
        layers["pass.wall_s"] = statistics.median(wall_times)
        layers.update({name: counts.get(name, 0) for name in COUNTS})
        for kind in tracing.EDIT_KINDS:
            cells = counts.get(f"editdist.{kind}.cells", 0)
            busy = t["totals"].get(f"editdist.{kind}", 0.0)
            layers[f"editdist.{kind}.cells_per_us"] = cells / (busy * 1e6) if busy else 0.0
        layers["serialize.bytes_written"] = counts["serialize.bytes_written"]
        layers["trace.overhead_share"] = t["overhead_share"]
    return {
        "workload": w.name, "seed": seed, "pinned": ref is not None, "env": env,
        "attempted": ledger.attempted, "failed": failed, "failures": ledger.failures,
        "error_rate": failed / ledger.attempted,
        "end_to_end": end_to_end, "samples": samples, "pass_seconds": run_times,
        "pass_wall_seconds": wall_times, "pass_host_speed": [p["speed"] for p in res["passes"]],
        "command_seconds": commands, "setup_seconds": [x["setup_s"] for x in setups],
        "per_layer": layers, "counts": counts,
        "spans": res["trace"]["spans"] if trace else [],
    }


def report(summary: dict, units_e2e: dict, units_layer: dict) -> None:
    s = summary
    pinned = "pinned, checked against references" if s["pinned"] else "not pinned, invariants only"
    print(f"== {s['workload']}  seed {s['seed']} ({pinned})")
    env = s["env"]
    print(f"env: nproc={env['nproc']} cpu_count={env['cpu_count']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} blas_threads={env['blas_threads']} "
          f"loadavg={env['loadavg_before']:.2f}->{env['loadavg_after']:.2f}")
    print(f"operations: {s['attempted']} attempted, {s['failed']} failed, "
          f"error_rate={s['error_rate']:.4g}")
    for f in s["failures"]:
        print(f"  FAILED {f}")
    print("end-to-end (closed loop, one client; run_s corrected for host speed):")
    for name, value in s["end_to_end"].items():
        print(f"  {name:<40} {value:>14.6g} {units_e2e[name]:<14} n={s['samples'][name]}")
    walls = " ".join(f"{x:.4g}" for x in s["pass_wall_seconds"])
    speeds = " ".join(f"{x:.3f}" for x in s["pass_host_speed"])
    print(f"  pass wall seconds: {walls}; host speed: {speeds}")
    if s["per_layer"]:
        print("per-layer (traced pass; inclusive span totals; 0 = layer not called here):")
        for name, value in s["per_layer"].items():
            print(f"  {name:<40} {value:>14.6g} {units_layer[name]}")
        print("  wait time: none; one process, one client, nothing queues")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = monotonic() + DEADLINE_S * (3 if args.workload == "all" else 1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units_e2e = dict(END_TO_END)
    units_layer = per_layer_units()
    summaries = []
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            summary = run_workload(name, seed, args.seconds, bool(args.trace), deadline)
            report(summary, units_e2e, units_layer)
            results = STATE / "results"
            results.mkdir(parents=True, exist_ok=True)
            (results / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
                json.dumps(summary, indent=1), encoding="utf-8")
            summaries.append(summary)
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    section, units = ("per_layer", units_layer) if args.trace else ("end_to_end", units_e2e)
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}/" if len(summaries) > 1 else ""
        for name, value in s[section].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
