"""Alternating parent/change runs of perfbench/run.py at each workload's default seed.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT_DIR TAG WORKLOAD:PAIRS ...

PARENT_DIR and CHANGE_DIR are checkouts; pair k runs the parent first when k
is even. Writes OUT_DIR/BENCH_<TAG>-parent.json and OUT_DIR/BENCH_<TAG>.json:
per workload, each run's env line and final JSON line, their medians and their
first and third quartiles, which need two runs or more of each workload: a plan
with PAIRS under 2 is refused before the first run. A run that exits non-zero
stops the script with exit status 1, naming its side, workload and pair, its
exit code and the last lines of its stderr; so does a run whose stdout lacks an
env: line or does not end in a JSON object of metrics, with the last lines of
its stdout and stderr."""
import json, statistics, subprocess, sys


def final_line(lines):
    """The run's closing JSON object of metrics, or None."""
    try:
        final = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return final if isinstance(final, dict) and "metrics" in final else None


def fail(side, w, k, why, text):
    tail = "\n".join(text.splitlines()[-20:])
    sys.exit(f"{side} {w} pair {k}: {why}; last lines of its output:\n{tail}")


parent, change, out, tag, *plan = sys.argv[1:]
plan = [(w, int(pairs)) for w, pairs in (spec.split(":") for spec in plan)]
if any(pairs < 2 for _, pairs in plan):  # before any run, not after all of them
    sys.exit("each WORKLOAD:PAIRS needs PAIRS >= 2: the quartiles take two runs of each side")
trees, runs = {"parent": parent, "change": change}, {"parent": {}, "change": {}}
for w, pairs in plan:
    for k in range(pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w], cwd=trees[side],
                                  capture_output=True, text=True)
            if done.returncode:  # name the run and show why, not only the exit status
                fail(side, w, k, f"exit code {done.returncode}", done.stderr)
            lines = done.stdout.splitlines()
            env = next((line for line in lines if line.startswith("env:")), None)
            final = final_line(lines)
            if env is None or final is None:
                fail(side, w, k, "no env: line or no final JSON line of metrics",
                     f"{done.stdout}\n{done.stderr}")
            run = {"pair": k, "first": side == ("parent", "change")[k % 2], "env": env, "final": final}
            runs[side].setdefault(w, []).append(run)
            print(side, w, k, {m: v["value"] for m, v in run["final"]["metrics"].items()}, flush=True)
for side, name in (("parent", f"BENCH_{tag}-parent.json"), ("change", f"BENCH_{tag}.json")):
    doc = {"tree": side, "command": "python3 perfbench/run.py --workload <w>", "workloads": {}}
    for w, rs in runs[side].items():
        values = {m: [r["final"]["metrics"][m]["value"] for r in rs] for m in rs[0]["final"]["metrics"]}
        doc["workloads"][w] = {"runs": rs, "medians": {m: statistics.median(v) for m, v in values.items()},
                               # first and third quartiles, inclusive of the extremes (numpy's linear rule)
                               "quartiles": {m: statistics.quantiles(v, n=4, method="inclusive")[::2]
                                             for m, v in values.items()}}
    with open(f"{out}/{name}", "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
