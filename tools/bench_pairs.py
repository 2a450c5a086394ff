"""Benchmark a change against its parent in alternating pairs.

Usage:
    python tools/bench_pairs.py --label LABEL [--parent REV] [--pairs N]
                                [--seconds S] [--workload NAME ...]

The parent is the committed tree of REV (HEAD by default), extracted
with ``git archive`` into a temporary directory; the change is the
working tree.  Pair i runs ``perfbench/run.py --seed i`` on both sides
for each workload of BENCHMARK.json (or those named), the parent first
in odd pairs and the change first in even ones, so drifts of the host
fall on both sides alike.  perfbench/ is run as it is, never edited.

The record goes to BENCH_<LABEL>.json at the root of the working tree:
for each workload and end-to-end metric, each side's values, median
and quartiles, and the pairs in which the change is better than the
parent in the direction BENCHMARK.json gives; the seeds, the operations
attempted and failed and the correct flag of every run; and the Python
and sympy versions.  Run it on an otherwise idle host.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev, directory):
    """The committed tree of rev, written into directory."""
    archive = Path(directory) / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(Path(directory) / "parent")
    archive.unlink()
    return Path(directory) / "parent"


def _run(checkout, workload, seed, seconds) -> dict:
    """One benchmark run: the JSON object of its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError("benchmark run failed in %s: %s" % (checkout, proc.stderr[-500:]))
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def _summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _workload_record(runs, spec) -> dict:
    """The per-metric summary of one workload's pairs."""
    metrics = {}
    for entry in spec["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs
                 if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        metrics[name] = {
            "unit": entry["unit"], "better": entry["better"],
            "parent": _summary(parent), "change": _summary(change),
            "change_wins": sum((c < p) if lower else (c > p) for p, c in pairs),
            "pairs": len(pairs),
        }
    return {
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")},
        "correct": {side: all(r[side]["correct"] for r in runs) for side in ("parent", "change")},
        "metrics": metrics,
        "runs": runs,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent_rev = _git("rev-parse", args.parent)
    seeds = list(range(1, args.pairs + 1))
    record = {
        "label": args.label,
        "parent": parent_rev,
        "change": "working tree on %s" % _git("rev-parse", "HEAD"),
        "seeds": seeds,
        "seconds": args.seconds,
        "order": "parent first in odd pairs, change first in even pairs",
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        sides = {"parent": _extract(parent_rev, scratch), "change": ROOT}
        for workload in workloads:
            runs = []
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _run(sides[side], workload, seed, args.seconds)
                    print("%s seed %d %s: %s" % (workload, seed, side, json.dumps(run[side])),
                          flush=True)
                runs.append(run)
            record["workloads"][workload] = _workload_record(runs, spec)
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for workload, summary in record["workloads"].items():
        for name, m in summary["metrics"].items():
            print("%s %s: parent %.4g [%.4g, %.4g] | change %.4g [%.4g, %.4g]; change better "
                  "in %d of %d" % (workload, name, m["parent"]["median"], m["parent"]["q1"],
                                   m["parent"]["q3"], m["change"]["median"], m["change"]["q1"],
                                   m["change"]["q3"], m["change_wins"], m["pairs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
