"""Record the reference outputs of every workload's pinned seeds (its
default and its held-out seed) into references/. The stored references were
recorded once, at the commit that added this benchmark; re-recording them
later would hide any change in output, so do it only when a change of
output bytes is intended and stated.

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import gzip
import json
import sys
from time import monotonic

import check
import run
from workloads import WORKLOADS

# outputs up to this size are stored inline in the manifest
INLINE_BYTES = 2048


def recorder(name: str, seed: int):
    def record(outputs, res, counts):
        if any(c["error"] for p in res["passes"] for c in p["commands"]):
            raise SystemExit(f"{name} seed {seed}: a command failed; nothing recorded")
        manifest = {"workload": name, "seed": seed, "outputs": {}, "counts": counts,
                    "edit_matrices": {k: v["sha256"]
                                      for k, v in res["trace"].get("edit_matrices", {}).items()},
                    "kernels": {k: v["checksum"]
                                for k, v in res["trace"].get("kernels", {}).items()}}
        for path in sorted(outputs.iterdir()):
            data = path.read_bytes()
            entry = {"sha256": check.sha256(data)}
            if path.name not in check.EXACT:
                if len(data) <= INLINE_BYTES:
                    entry["text"] = data.decode("utf-8")
                else:
                    rel = f"{name}-seed{seed}/{path.name}.gz"
                    (check.REFERENCES / rel).parent.mkdir(parents=True, exist_ok=True)
                    (check.REFERENCES / rel).write_bytes(gzip.compress(data, mtime=0))
                    entry["file"] = rel
            manifest["outputs"][path.name] = entry
        check.reference_path(name, seed).write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return record


def main() -> int:
    check.REFERENCES.mkdir(exist_ok=True)
    for name, w in WORKLOADS.items():
        for seed in (w.default_seed, w.heldout_seed):
            summary = run.run_workload(name, seed, 0.0, True, monotonic() + run.DEADLINE_S,
                                       record=recorder(name, seed))
            if summary["failed"]:
                check.reference_path(name, seed).unlink()
                print("\n".join(summary["failures"]), file=sys.stderr)
                return 1
            print(f"recorded {name} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
