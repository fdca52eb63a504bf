"""Toy-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload, shrunk to a few seconds, with and without tracing, and
checks that each run reports exactly the metrics BENCHMARK.json names, with
their units, and that every correctness check passes.  It also checks that
the generated inputs repeat for one seed and change with the seed.  Lists
every problem found and exits 1 if there is any.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import replace

import run

# Same knobs as the real workloads (PGE on/off, sequence longer than
# max_len or not), at a size that trains in about a second.
TOY = {
    "ring-small": replace(run.WORKLOADS["ring-small"], users=60, items=30,
                          events=12, max_len=10, batch_size=32),
    "catalog-large": replace(run.WORKLOADS["catalog-large"], users=80, items=120,
                             events=12, max_len=10, batch_size=32),
    "long-seq-nopge": replace(run.WORKLOADS["long-seq-nopge"], users=40, items=40,
                              events=30, max_len=20, batch_size=20),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    expect(sorted(TOY) == sorted(run.WORKLOADS), "a workload has no toy version")
    workdir = run.ROOT / ".bench_build" / "perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, toy in TOY.items():
            for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                label = f"{name} trace={int(trace)}"
                out = run.run(toy, seed=3, seconds=0, trace=trace, workdir=workdir)
                metrics = out["metrics"]
                expect(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                       f"{label}: correct={out['correct']} failed={out['failed']}")
                expect({m["name"]: m["unit"] for m in listed}
                       == {k: v["unit"] for k, v in metrics.items()},
                       f"{label}: metric names or units differ from BENCHMARK.json")
                expect(all(math.isfinite(v["value"]) for v in metrics.values()),
                       f"{label}: a metric is not finite")
                if not trace:
                    expect(all(v["value"] > 0 for v in metrics.values()),
                           f"{label}: an end-to-end metric is 0")
                else:
                    calls = metrics["graph.extract_subgraph_batch_calls"]["value"]
                    expect((calls > 0) == toy.enable_pge,
                           f"{label}: {calls} subgraph calls with enable_pge={toy.enable_pge}")
        for name, workload in run.WORKLOADS.items():
            logs = {}
            for key, seed in (("a", 1), ("b", 1), ("c", 2)):
                path = workdir / f"{name}-{key}.tsv"
                run.write_log(workload, seed, path)
                logs[key] = hashlib.sha256(path.read_bytes()).hexdigest()
            expect(logs["a"] == logs["b"], f"{name}: seed 1 gives two different logs")
            expect(logs["a"] != logs["c"], f"{name}: seeds 1 and 2 give the same log")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'FAILED' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
