#!/usr/bin/env python3
"""The driver's steadiness protocol, for the records in this directory.

  protocol.py run <first_seed> <out.jsonl>   ten driver runs per workload, seeds
                                             first_seed .. first_seed + 9, one
                                             JSON line per run
  protocol.py spread <file.jsonl> ...        per file, workload and metric: the
                                             median and (q3 - q1) / median over
                                             the file's runs, quartiles as
                                             statistics.quantiles(v, n=4)

Run from the repository root. A line holds "workload", "seed", "run_s" (wall
seconds of the whole run, build excluded after the first), "repetitions" and
"metrics" (name -> value); lines of the repetition-length record also hold
"config".
"""
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(first_seed, out_path):
    with open(out_path, "w") as out:
        for workload in (w["name"] for w in MANIFEST["workloads"]):
            for seed in range(first_seed, first_seed + 10):
                started = time.time()
                p = subprocess.run(
                    MANIFEST["command"]
                    + ["--workload", workload, "--seed", str(seed), "--trace", "0"]
                    + ["--seconds", str(MANIFEST["run_seconds"])],
                    cwd=ROOT, capture_output=True, text=True)
                result = json.loads(p.stdout.strip().splitlines()[-1])
                assert p.returncode == 0 and result["correct"] and result["failed"] == 0, p.stdout
                record = {
                    "workload": workload,
                    "seed": seed,
                    "run_s": round(time.time() - started, 2),
                    "repetitions": sum("  repetition " in l for l in p.stdout.splitlines()),
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                }
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(workload, seed, record["run_s"], flush=True)


def spread(paths):
    for path in paths:
        values = {}
        for line in open(path):
            r = json.loads(line)
            key = (r.get("config", ""), r["workload"])
            for name, value in r["metrics"].items():
                values.setdefault(key, {}).setdefault(name, []).append(value)
        print(path)
        for (config, workload), metrics in values.items():
            for name, v in metrics.items():
                q = statistics.quantiles(v, n=4)
                median = statistics.median(v)
                print("  %-6s %-13s %-17s n %2d  median %12.4f  spread %5.1f %%"
                      % (config, workload, name, len(v), median, 100 * (q[2] - q[0]) / median))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(int(sys.argv[2]), sys.argv[3])
    elif len(sys.argv) >= 3 and sys.argv[1] == "spread":
        spread(sys.argv[2:])
    else:
        sys.exit(__doc__)
