"""Worker processes of the benchmark; run.py starts them, never a user.

    child.py setup  WORKLOAD SEED ROOT DEST RESULT
    child.py passes WORKLOAD ROOT INPUTS OUT SECONDS MIN_PASSES TRACE RESULT

`setup` builds one copy of a workload's inputs and times it, import of
itemsim included, so it runs in a fresh process each time. `passes` runs
the workload's command script through `itemsim.cli.main` as a closed loop
with one client, in a process that has done no set-up, so its peak RSS is
that of the timed passes; it times them under a hostspeed.Probe and reports
the wall time and the host speed beside each corrected time. Both write
one JSON object to RESULT.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Probe
from workloads import WORKLOADS, build_corpus, variant_problems


def _use_source_tree(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))


def _check_source_tree(root: Path) -> None:
    import itemsim

    where = Path(itemsim.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"itemsim was imported from {where}, not from {root / 'src'}")


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(name: str, seed: int, root: Path, dest: Path) -> dict:
    w = WORKLOADS[name]
    _use_source_tree(root)
    layers = {}
    start = perf_counter()
    from itemsim.corpus import load_corpus, save_corpus, save_performance
    from itemsim.synth import PerfSpec, generate_corpus, generate_performance

    layers["synth.generate_corpus_s"] = 0.0

    def generate(spec):
        t = perf_counter()
        corpus = generate_corpus(spec)
        layers["synth.generate_corpus_s"] += perf_counter() - t
        return corpus

    corpus = build_corpus(w, seed, generate)
    records = None
    if w.n_learners:
        t = perf_counter()
        records = generate_performance(
            corpus, PerfSpec(n_learners=w.n_learners, solve_prob=0.7, seed=seed + 1))
        layers["synth.generate_performance_s"] = perf_counter() - t
    t = perf_counter()
    save_corpus(corpus, dest)
    layers["corpus.save_corpus_s"] = perf_counter() - t
    if records is not None:
        t = perf_counter()
        save_performance(records, dest / "performance.csv")
        layers["corpus.save_performance_s"] = perf_counter() - t
    setup_s = perf_counter() - start

    _check_source_tree(root)
    problems = variant_problems(corpus, load_corpus(dest)) if w.multi else []
    return {"setup_s": setup_s, "layers": layers, "digest": tree_digest(dest),
            "problems": problems}


def _run_command(main, sub: str, config: Path, out: Path) -> tuple[float, str | None]:
    """Time one CLI call. Returns (seconds, error or None)."""
    t = perf_counter()
    try:
        rc = main([sub, "-c", str(config), "-o", str(out)])
        error = None if rc == 0 else f"exit code {rc}"
    except Exception as e:  # a raise is a failed command, never the end of the run
        error = f"raised {type(e).__name__}: {e}"
    return perf_counter() - t, error


def _write_configs(w, inputs: Path, out: Path) -> list[tuple[str, Path]]:
    cfg_dir = out.with_name(out.name + ".cfg")
    cfg_dir.mkdir(parents=True)
    script = []
    for k, (sub, cfg) in enumerate(w.script(str(inputs), str(out))):
        path = cfg_dir / f"{k}-{sub}.json"
        path.write_text(json.dumps({"schema": 1, **cfg}, sort_keys=True), encoding="utf-8")
        script.append((sub, path))
    return script


def passes(name: str, root: Path, inputs: Path, out: Path, seconds: float,
           min_passes: int, trace: bool) -> dict:
    w = WORKLOADS[name]
    _use_source_tree(root)
    from itemsim.cli import main

    _check_source_tree(root)
    runs = []
    start = perf_counter()
    while len(runs) < min_passes or perf_counter() - start < seconds:
        pass_out = out / f"pass{len(runs)}"
        script = _write_configs(w, inputs, pass_out)
        commands = []
        probe = Probe()
        with probe:
            t = perf_counter()
            for sub, config in script:
                own, first = probe.own_s, len(probe.samples)
                took, error = _run_command(main, sub, config, pass_out)
                took = (took - (probe.own_s - own)) * probe.speed(first)
                commands.append({"sub": sub, "seconds": took, "error": error})
            wall_s = perf_counter() - t - probe.own_s
        runs.append({"seconds": wall_s * probe.speed(), "wall_s": wall_s,
                     "speed": probe.speed(), "out": pass_out.name, "commands": commands})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"passes": runs, "peak_rss_mb": peak_rss_mb, "counts": work_counts(w, inputs),
              "env": runtime_env()}
    if trace:
        result["trace"] = traced_pass(w, inputs, out / "traced", main,
                                      statistics.median(r["seconds"] for r in runs))
    return result


def blas_threads() -> int | None:
    """Threads of the OpenBLAS pool numpy loaded, read from the library;
    None when it is not OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                func = getattr(handle, symbol)
                func.restype = ctypes.c_int
                return func()
    return None


def runtime_env() -> dict:
    import numpy

    return {"numpy": numpy.__version__, "blas_threads": blas_threads()}


def work_counts(w, inputs: Path) -> dict[str, int]:
    """Counts computed from the generated inputs, identical on every run of
    one seed."""
    import tracing
    from itemsim.corpus import load_corpus, load_performance

    corpus = load_corpus(inputs)
    perf = inputs / "performance.csv"
    counts = {
        "corpus.items": len(corpus),
        "corpus.solutions": sum(len(it.solutions) for it in corpus.items),
        "corpus.records": len(load_performance(perf, corpus)) if perf.is_file() else 0,
    }
    params = w.edit_params()
    if params:
        counts.update(tracing.edit_counts(tracing.chosen_solutions(corpus, params["selector"])))
    return counts


def traced_pass(w, inputs: Path, out: Path, main, run_s: float) -> dict:
    """One pass with every PATCHES target wrapped in a span under its
    command's span, then the kernel and heatmap replays as top-level spans.
    Span totals are corrected by the host speed over all of it; the spans
    themselves keep wall times, which include the probe's interruptions."""
    import tracing
    from itemsim.corpus import load_corpus

    tracer = tracing.Tracer()
    script = _write_configs(w, inputs, out)
    commands = []
    probe = Probe()
    with probe:
        with tracer.patched() as missing:
            for sub, config in script:
                with tracer.span(f"cli.{sub}"):
                    took, error = _run_command(main, sub, config, out)
                commands.append({"sub": sub, "seconds": took, "error": error})
        command_total = (sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
                         - probe.own_s) * probe.speed()

        report = {"pass": {"out": out.name, "commands": commands}, "missing_patches": missing}
        params = w.edit_params()
        if params:
            chosen = tracing.chosen_solutions(load_corpus(inputs), params["selector"])
            report["kernels"] = tracing.replay_kernels(tracer, chosen, params["nw_scoring"])
            report["edit_matrices"] = tracing.edit_matrix_report(tracer.edit_matrices)
        if (out / "sim.csv").is_file() and any(sub == "heatmap" for sub, _ in script):
            from itemsim.heatmap import heatmap_svg
            from itemsim.serialize import read_square_csv

            ids, values = read_square_csv((out / "sim.csv").read_text(encoding="utf-8"))
            with tracer.span("heatmap.render"):
                heatmap_svg(ids, values, ordering="none")
    speed = probe.speed()
    report["totals"] = {name: t * speed for name, t in tracer.totals().items()}
    report["overhead_share"] = (command_total - run_s) / run_s
    report["spans"] = tracer.spans
    return report


def _main(argv: list[str]) -> None:
    role, name, *rest, result_path = argv
    if role == "setup":
        seed, root, dest = rest
        result = setup(name, int(seed), Path(root), Path(dest))
    elif role == "passes":
        root, inputs, out, seconds, min_passes, trace = rest
        result = passes(name, Path(root), Path(inputs), Path(out), float(seconds),
                        int(min_passes), trace == "1")
    else:
        raise SystemExit(f"unknown role {role!r}")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    _main(sys.argv[1:])
