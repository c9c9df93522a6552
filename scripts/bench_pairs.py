"""Alternating parent/change runs of perfbench/run.py at each workload's default seed.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT_DIR TAG WORKLOAD:PAIRS ...

PARENT_DIR and CHANGE_DIR are checkouts; pair k runs the parent first when k
is even. Writes OUT_DIR/BENCH_<TAG>-parent.json and OUT_DIR/BENCH_<TAG>.json:
per workload, each run's env line, final JSON line and pass medians (below), the
runs' medians and their first and third quartiles, which need two runs or more
of each workload: a plan with PAIRS under 2 is refused before the first run.
A run that exits non-zero stops the runs, as does a run whose stdout lacks an
env: line or does not end in a JSON object of metrics. Both files are still
written, with the runs collected so far (quartiles only where a workload has
two runs or more) and a "failed" entry naming the run's side, workload, pair
and reason; the script then exits with status 1, naming the same and the last
lines of the run's stderr (and, for a malformed run, its stdout).

run_s is wall time corrected by a host-speed probe, so each run also keeps
what the probe read: pass_host_speed and pass_wall_seconds are the medians of
those lists in .perfbench/results/<workload>-seed<seed>-trace0.json, which
perfbench/run.py writes in the checkout, and are printed with the run's
metrics. Each is null where that file is missing, unreadable, or another
run's: its end_to_end differs from the run's final metrics."""
import json, re, statistics, subprocess, sys


def final_line(lines):
    """The run's closing JSON object of metrics, or None."""
    try:
        final = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return final if isinstance(final, dict) and "metrics" in final else None


def pass_medians(tree, w, lines, final):
    """The medians of pass_host_speed and pass_wall_seconds in the results file
    of the run whose stdout lines and final metrics are given; None each where
    that file is missing, unreadable or another run's."""
    seed = next((m[1] for m in (re.match(rf"== {re.escape(w)}  seed (\d+)", line)
                                for line in lines) if m), None)
    try:
        with open(f"{tree}/.perfbench/results/{w}-seed{seed}-trace0.json") as fh:
            doc = json.load(fh)
        if doc["end_to_end"] == {m: v["value"] for m, v in final["metrics"].items()}:
            return {k: statistics.median(doc[k]) for k in ("pass_host_speed", "pass_wall_seconds")}
    except (OSError, ValueError, KeyError, TypeError):  # ValueError: bad JSON or no passes
        pass
    return {"pass_host_speed": None, "pass_wall_seconds": None}


def failure(side, w, k, why, text):
    return {"side": side, "workload": w, "pair": k, "reason": why,
            "last_lines": text.splitlines()[-20:]}


def collect(plan, trees, runs):
    """Run the plan, appending each run to runs; the failure of the first run
    that fails or is malformed, or None."""
    for w, pairs in plan:
        for k in range(pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w],
                                      cwd=trees[side], capture_output=True, text=True)
                if done.returncode:  # name the run and show why, not only the exit status
                    return failure(side, w, k, f"exit code {done.returncode}", done.stderr)
                lines = done.stdout.splitlines()
                env = next((line for line in lines if line.startswith("env:")), None)
                final = final_line(lines)
                if env is None or final is None:
                    return failure(side, w, k, "no env: line or no final JSON line of metrics",
                                   f"{done.stdout}\n{done.stderr}")
                run = {"pair": k, "first": side == ("parent", "change")[k % 2], "env": env,
                       "final": final, **pass_medians(trees[side], w, lines, final)}
                runs[side].setdefault(w, []).append(run)
                print(side, w, k, {m: v["value"] for m, v in final["metrics"].items()},
                      {m: run[m] for m in ("pass_host_speed", "pass_wall_seconds")}, flush=True)
    return None


parent, change, out, tag, *plan = sys.argv[1:]
plan = [(w, int(pairs)) for w, pairs in (spec.split(":") for spec in plan)]
if any(pairs < 2 for _, pairs in plan):  # before any run, not after all of them
    sys.exit("each WORKLOAD:PAIRS needs PAIRS >= 2: the quartiles take two runs of each side")
runs = {"parent": {}, "change": {}}
failed = collect(plan, {"parent": parent, "change": change}, runs)
for side, name in (("parent", f"BENCH_{tag}-parent.json"), ("change", f"BENCH_{tag}.json")):
    doc = {"tree": side, "command": "python3 perfbench/run.py --workload <w>", "workloads": {}}
    if failed:
        doc["failed"] = failed
    for w, rs in runs[side].items():
        values = {m: [r["final"]["metrics"][m]["value"] for r in rs] for m in rs[0]["final"]["metrics"]}
        entry = doc["workloads"][w] = {"runs": rs, "medians": {m: statistics.median(v)
                                                               for m, v in values.items()}}
        if len(rs) >= 2:  # statistics.quantiles needs two values
            # first and third quartiles, inclusive of the extremes (numpy's linear rule)
            entry["quartiles"] = {m: statistics.quantiles(v, n=4, method="inclusive")[::2]
                                  for m, v in values.items()}
    with open(f"{out}/{name}", "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
if failed:
    tail = "\n".join(failed["last_lines"])
    sys.exit(f"{failed['side']} {failed['workload']} pair {failed['pair']}: {failed['reason']}; "
             f"BENCH files hold the runs before it; last lines of its output:\n{tail}")
