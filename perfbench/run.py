"""flatcheck benchmark: time to a verdict, to verified artifacts and to a candidate check.

Usage:
    python3 perfbench/run.py --workload {flat4,corpus} --seed N
                             --seconds S --trace {0,1}

Every operation is one flatcheck command line in a fresh interpreter,
run one at a time from this process, because a CLI user pays a cold
start and cold sympy caches on every run.  A run repeats whole passes
over the workload while the next pass is expected to end within
--seconds; it makes at least one.  With --trace 1 it makes exactly two
passes over the distinct operations with the outside-in tracer
installed, under different hash seeds, and reports per-layer metrics
instead of end-to-end ones.

The host is shared, and the speed of its CPU drifts by up to half while
a run is measured.  Untraced runs therefore pin themselves to one CPU
and run hostspeed.py on it, and every end-to-end time is scaled to the
CPU's uncontended speed over the time it was measured in; the unscaled
times are printed and kept in the run record too.

Every output is checked against an answer that does not come from
flatcheck (see oracle.py and generate.py); a wrong exit code, verdict,
kbar or sfl, a parametrization that fails the replay, a JSON document
that is not byte-identical to an earlier one, or a timeout fails the
operation.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  Run artifacts and a run record
go to .bench_runs/ at the root of the checkout.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import generate
import hostspeed
import oracle

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
PROBE = Path(__file__).resolve().parent / "hostspeed.py"
RUNS = ROOT / ".bench_runs"
FLAT4_OUTPUT = "x1*x3 + x1; x2 + 3*x4"
# (model, candidate, is a flat output): true and non-outputs of small models.
CORPUS_CANDIDATES = (
    ("chain2", "x1", True),
    ("chain2", "x2", False),
    ("sfl_quadratic", "x2 - x1^2", True),
    ("sfl_quadratic", "x1", False),
)
# Operations left out of every workload, with the evidence or the reason.
NOT_RUN = (
    "verify models/flat4.sys --output 'x1; x2': still in function_field_rref (via generic_rank in "
    "verify_flat_output_symbolic) after 14 min",
    "verify models/flat4.sys --output 'x1*x3 + x1; x2': not finished after 85 s",
    "verify models/flat4.sys --output 'x1*x3 + x1; x4': INCONCLUSIVE after about 21 s; left out "
    "so that all runs fit the time budget of 3420 s",
    "extract quad_integrator: fails in the analysis with the same exit-2 error as analyze; left "
    "out for the time budget",
)
# Bundled models whose extract adds no path that their analyze does not cover.
EXTRACT_SKIPPED = ("quad_integrator",)

OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 165.0
# Set-up samples per run; workloads with fewer operations add import-only probes.
MIN_SETUP_SAMPLES = 7


class Op:
    """One flatcheck command line and the outcome the oracle expects from it."""

    def __init__(self, kind, model_path, expected, candidate=None):
        self.kind = kind
        self.model_path = Path(model_path)
        self.model = self.model_path.stem
        self.expected = expected
        self.candidate = candidate

    def label(self):
        return "%s-%s" % (self.kind, self.model)

    def argv(self, json_path):
        path = os.path.relpath(self.model_path, ROOT)
        if self.kind == "verify":
            return ["verify", path, "--output", self.candidate]
        return [self.kind, path, "--json", str(json_path)]


def operations(workload, seed, run_dir):
    """The ordered operations of one pass, and the generated model texts."""
    models = ROOT / "models"
    if workload == "flat4":
        path, expected = models / "flat4.sys", oracle.BUNDLED["flat4"]
        verify = Op("verify", path, {"flat_output": True}, FLAT4_OUTPUT)
        # verify is flat4's shortest operation and the one most shaken by
        # bursts of host slowness; three copies spread over the pass average them.
        return [verify, Op("analyze", path, expected), verify, Op("extract", path, expected), verify], {}
    ops, generated = [], {}
    for name in sorted(n for n in oracle.BUNDLED if n != "flat4"):
        ops.append(Op("analyze", models / (name + ".sys"), oracle.BUNDLED[name]))
        if name not in EXTRACT_SKIPPED:
            ops.append(Op("extract", models / (name + ".sys"), oracle.BUNDLED[name]))
    for name, text, is_output in CORPUS_CANDIDATES:
        ops.append(Op("verify", models / (name + ".sys"), {"flat_output": is_output}, text))
    model_dir = run_dir / "models"
    model_dir.mkdir(parents=True)
    members = generate.corpus(seed)
    for member in members:
        path = model_dir / (member["name"] + ".sys")
        path.write_text(member["text"], encoding="utf-8")
        generated[member["name"]] = member["text"]
        for kind in ("analyze", "extract"):
            ops.append(Op(kind, path, member["expected"]))
    for member in members:
        if member["expected"]["verdict"] == "FLAT":
            # x1 = z1 is a flat output by construction.
            path = model_dir / (member["name"] + ".sys")
            ops.append(Op("verify", path, {"flat_output": True}, "x1"))
    return ops, generated


def run_worker(op_id, argv, hash_seed, run_dir, spans_path, timeout):
    """Run worker.py once; returns the measurements and the captured output."""
    result_path = run_dir / ("%s.result.json" % op_id)
    out_path, err_path = run_dir / ("%s.out" % op_id), run_dir / ("%s.err" % op_id)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    # An installed flatcheck runs from bytecode caches; set-up never
    # includes compiling its sources, whatever the caller's environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(WORKER), op_id, str(result_path), str(spans_path or "-")] + argv
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        # A blocking wait sees the exit at once; Popen.wait(timeout) polls
        # every 50 ms, which would blur sub-second operations.
        expired = threading.Event()

        def expire():
            expired.set()
            proc.kill()

        killer = threading.Timer(timeout, expire)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        exited = time.monotonic()
    timed_out = expired.is_set()
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (cpu_after.ru_utime - cpu_before.ru_utime) + (cpu_after.ru_stime - cpu_before.ru_stime)
    m = {
        "op": op_id,
        "hash_seed": hash_seed,
        "spawned": spawned,
        "exited": exited,
        "wall_s": exited - spawned,
        "cpu_s": cpu,
        "rc": proc.returncode,
        "timed_out": timed_out,
        "stdout": out_path.read_text(encoding="utf-8"),
        "stderr": err_path.read_text(encoding="utf-8"),
    }
    if not timed_out and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        m["rc"] = result["rc"]
        m.update((key, result[key]) for key in ("imported", "started", "ended"))
        m["setup_s"] = result["imported"] - spawned
        m["op_s"] = result["ended"] - result["started"]
        m["rss_mb"] = result["maxrss_kb"] / 1024.0
        m["trace_overhead_s"] = result.get("trace_overhead_s", 0.0)
        m["exit_s"] = exited - result["finished"]
    return m


class Checker:
    """Compares each operation's outcome with the oracle and earlier documents."""

    def __init__(self, seed):
        self.seed = seed
        self.documents = {}
        self.texts = {}

    def _model(self, op):
        key = str(op.model_path)
        if key not in self.texts:
            self.texts[key] = oracle.Model(op.model_path.read_text(encoding="utf-8"))
        return self.texts[key]

    def check(self, op, m, json_path):
        """None when the operation is correct, else a one-line reason."""
        if m["timed_out"]:
            return "timed out after %.1f s" % m["wall_s"]
        if "op_s" not in m:
            return "worker ended without a result (rc %s): %s" % (m["rc"], m["stderr"][-300:])
        if op.kind == "verify":
            return self._check_verify(op, m)
        want = op.expected
        if m["rc"] != want[op.kind]:
            return "exit code %s, expected %s" % (m["rc"], want[op.kind])
        if want["verdict"] is None:
            return None
        if m["rc"] == 3:
            line = "verdict: %s (kbar = %d)" % (want["verdict"], want["kbar"])
            return None if line in m["stdout"] else "stdout lacks %r" % line
        raw = json_path.read_bytes()
        doc = json.loads(raw)
        got = doc["algorithm1"]
        for key in ("verdict", "kbar", "sfl"):
            if got[key] != want[key]:
                return "%s = %r, expected %r" % (key, got[key], want[key])
        problem = self._same_bytes((op.kind, op.model), raw)
        if op.kind == "extract":
            problem = problem or self._same_bytes(("analyze", op.model), _as_analysis(doc))
        if problem:
            return problem
        if op.kind == "extract" and want["verdict"] == "FLAT":
            rng = oracle.new_rng(self.seed, op.model)
            return oracle.replay_parametrization(self._model(op), doc, want, rng)
        return None

    def _same_bytes(self, key, raw):
        first = self.documents.setdefault(key, raw)
        if first != raw:
            return "%s document of %s differs from an earlier one" % key
        return None

    def _check_verify(self, op, m):
        lines = m["stdout"].splitlines()
        status = lines[0].split()[1] if lines and lines[0].startswith("symbolic:") else None
        if not op.expected["flat_output"]:
            if m["rc"] == 1 and status in ("FAIL", "INCONCLUSIVE"):
                return None
            return "non-output: exit code %s, symbolic %s" % (m["rc"], status)
        if m["rc"] != 0 or status != "PASS":
            return "flat output: exit code %s, symbolic %s" % (m["rc"], status)
        fu = dict(re.findall(r"^  (\w+) = (.+)$", m["stdout"], flags=re.M))
        components = [c.strip() for c in op.candidate.split(";")]
        rng = oracle.new_rng(self.seed, "%s:%s" % (op.model, op.candidate))
        return oracle.replay_candidate(self._model(op), components, fu, rng)


def _as_analysis(doc):
    """The bytes `analyze --json` must write, given the `extract --json` document."""
    doc = dict(doc)
    doc.update(flat_output=None, triangular=None, parametrization=None)
    doc["verification"] = {"symbolic": None, "numeric": None}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def run_pass(ops, index, ctx, traced):
    """One pass over the workload; returns the per-operation measurements."""
    records = []
    for i, op in enumerate(ops):
        op_id = "p%d-%02d-%s" % (index, i, op.label())
        json_path = ctx["dir"] / (op_id + ".json")
        spans_path = ctx["dir"] / (op_id + ".spans.jsonl") if traced else None
        remaining = RUN_LIMIT_S - (time.monotonic() - ctx["start"])
        if remaining <= 1.0:
            records.append({"op": op_id, "kind": op.kind, "error": "not run: run time limit"})
            continue
        hash_seed = (ctx["seed"] * 1009 + index * 101 + i) % 4294967295
        m = run_worker(
            op_id, op.argv(json_path), hash_seed, ctx["dir"], spans_path, min(OP_TIMEOUT_S, remaining)
        )
        m["kind"] = op.kind
        try:
            m["error"] = ctx["checker"].check(op, m, json_path)
        except (OSError, ValueError, KeyError, TypeError, ArithmeticError, SyntaxError) as exc:
            m["error"] = "output could not be checked: %r" % exc
        if m["error"]:
            print("FAILED %s: %s" % (op_id, m["error"]), file=sys.stderr)
        m["spans_path"] = spans_path
        records.append(m)
    return records


def setup_probes(ctx, count):
    probes = []
    for i in range(count):
        op_id = "setup-%02d" % i
        m = run_worker(op_id, [], ctx["seed"] + i, ctx["dir"], None, OP_TIMEOUT_S)
        if "setup_s" not in m:
            raise RuntimeError("set-up probe failed: %s" % m["stderr"][-300:])
        probes.append(m)
    return probes


def measure(args, ctx, ops):
    """The untraced passes and set-up probes, made while the host-speed probe runs."""
    samples_path = ctx["dir"] / "hostspeed.txt"
    probe = subprocess.Popen([sys.executable, str(PROBE), str(samples_path)], cwd=ROOT)
    try:
        # Let the probe take a few samples before the first operation.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and probe.poll() is None:
            if samples_path.exists() and samples_path.read_text(encoding="utf-8").count("\n") >= 4:
                break
            time.sleep(0.05)
        ctx["start"] = time.monotonic()
        passes = []
        while True:
            began = time.monotonic()
            passes.append(run_pass(ops, len(passes), ctx, traced=False))
            took = time.monotonic() - began
            if time.monotonic() - ctx["start"] + took > min(args.seconds, RUN_LIMIT_S):
                break
        probes = setup_probes(ctx, max(0, MIN_SETUP_SAMPLES - len(ops)))
    finally:
        probe.kill()
        probe.wait()
    return passes, probes, hostspeed.Speed(samples_path)


def summary(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = "median %.4f" % statistics.median(ordered)
    if n >= 11:
        text += ", p%.0f %.4f" % (100.0 * (n - 10) / n, ordered[n - 11])
    else:
        text += ", no percentile with 10 samples beyond it"
    return text + " (n=%d)" % n


# Operation times are averaged: a workload mixes models whose times differ
# several-fold, and its median would jump from one model to the next.
# Set-up and pass times are alike from sample to sample and take the median.
AGGREGATE = {
    "setup_s": statistics.median,
    "analyze_s": statistics.fmean,
    "extract_s": statistics.fmean,
    "verify_s": statistics.fmean,
    "wall_s": statistics.median,
    "peak_rss_mb": max,
}


def scale_times(records, speed):
    """Add each time scaled to the CPU's uncontended speed over its own window."""
    for m in records:
        if "wall_s" in m:
            m["scaled_wall_s"] = m["wall_s"] * speed.scale(m["spawned"], m["exited"])
        if "op_s" in m:
            m["scaled_setup_s"] = m["setup_s"] * speed.scale(m["spawned"], m["imported"])
            m["scaled_op_s"] = m["op_s"] * speed.scale(m["started"], m["ended"])


def end_to_end_metrics(passes, probes, prefix):
    """Samples of every end-to-end metric in this run; prefix "scaled_" or ""."""
    ops = [m for records in passes for m in records if "op_s" in m]
    rss = [m["rss_mb"] for m in ops + probes]
    samples = {
        "setup_s": [m[prefix + "setup_s"] for m in ops + probes],
        "wall_s": [sum(m.get(prefix + "wall_s", 0.0) for m in records) for records in passes],
        "peak_rss_mb": [max(rss)] if rss else [],
    }
    for kind in ("analyze", "extract", "verify"):
        samples[kind + "_s"] = [m[prefix + "op_s"] for m in ops if m["kind"] == kind]
    return samples


def _ancestors(spans, index):
    parent = spans[index]["parent"]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent]["parent"]


def layer_metrics(records):
    """calls, total_s (outermost calls only), self_s and attributes per function."""
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    unattributed = 0.0
    for m in records:
        if "op_s" not in m:
            continue
        for name, duration in (("import", m["setup_s"]), ("exit", m["exit_s"])):
            add(name + ".calls", 1)
            add(name + ".total_s", duration)
            add(name + ".self_s", duration)
        spans = [json.loads(line) for line in m["spans_path"].read_text(encoding="utf-8").splitlines()]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self_total = m["setup_s"] + m["exit_s"]
        for index, span in enumerate(spans):
            name, duration = span["name"], span["end"] - span["start"]
            add(name + ".calls", 1)
            add(name + ".self_s", duration - child_time[index])
            self_total += duration - child_time[index]
            if all(a["name"] != name for a in _ancestors(spans, index)):
                add(name + ".total_s", duration)
            if "cells" in span:
                add(name + ".cells", span["cells"])
            if "hit" in span:
                add(name + ".hits", int(span["hit"]))
        unattributed += m["wall_s"] - self_total
    for key in [k for k in out if k.endswith(".hits")]:
        base = key[: -len(".hits")]
        out[base + ".hit_ratio"] = out.pop(key) / out[base + ".calls"]
    out["trace.overhead_s"] = sum(m.get("trace_overhead_s", 0.0) for m in records)
    out["trace.wall_s"] = sum(m["wall_s"] for m in records)
    out["trace.unattributed_s"] = unattributed
    return out


def per_layer_metrics(passes, names):
    """Counts from the first traced pass (checked equal in the second), times averaged."""
    tables = [layer_metrics(records) for records in passes]
    problems = []
    for key in sorted(set(tables[0]) | set(tables[1])):
        if key.endswith((".calls", ".cells")) and tables[0].get(key) != tables[1].get(key):
            problems.append("%s: %s vs %s" % (key, tables[0].get(key), tables[1].get(key)))
    metrics = {}
    for name in names:
        values = [t.get(name, 0) for t in tables]
        if name.endswith((".calls", ".cells", ".hit_ratio")):
            metrics[name] = values[0]
        else:
            metrics[name] = sum(values) / len(values)
    return metrics, tables, problems


def run_record(args, spec, ctx, generated, passes, extra):
    sympy_version = metadata.version("sympy")
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    ops = [m for records in passes for m in records if "wall_s" in m]
    wall = sum(m["wall_s"] for m in ops)
    cpu = sum(m["cpu_s"] for m in ops)
    record = {
        "workload": args.workload,
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cpu_over_wall": cpu / wall if wall else None,
        "generated_models": generated,
        "not_run": NOT_RUN,
        "operations": [
            {k: v for k, v in m.items() if k not in ("stdout", "stderr", "spans_path")}
            for records in passes
            for m in records
        ],
    }
    record.update(extra)
    (ctx["dir"] / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flatcheck" / "cli.py").is_file() or not spec_path.is_file():
        print("error: no flatcheck sources or BENCHMARK.json under %s" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its worker and probe on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run_dir = RUNS / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = {"dir": run_dir, "seed": args.seed, "checker": Checker(args.seed)}
    ops, generated = operations(args.workload, args.seed, run_dir)
    # The whole run, its workers and the probe share one CPU, so that the
    # probe sees the speed the operations get.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if not (ROOT / "src" / "flatcheck" / "__pycache__").is_dir():
        # The first run in a checkout writes the bytecode caches untimed.
        run_worker("warmup", [], args.seed, run_dir, None, OP_TIMEOUT_S)

    if args.trace:
        ctx["start"] = time.monotonic()
        # Repeats only steady the timings; a traced pass runs each operation once.
        distinct = list(dict.fromkeys(ops))
        passes = [run_pass(distinct, index, ctx, traced=True) for index in range(2)]
    else:
        passes, probes, speed = measure(args, ctx, ops)
    records = [m for p in passes for m in p]
    attempted = len(records)
    failed = sum(1 for m in records if m["error"])
    problems = []

    print("workload %s (seed %d, %d pass(es), %d operations): %s"
          % (args.workload, args.seed, len(passes), attempted, why[args.workload]))
    if args.trace:
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        values, tables, problems = per_layer_metrics(passes, list(units))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        for name, unit in units.items():
            print("%s: %s %s" % (name, values[name], unit))
        accounted = values["trace.unattributed_s"] <= values["trace.overhead_s"]
        print("self time accounts for the traced wall time within trace.overhead_s: %s"
              % ("yes" if accounted else "no"))
        extra = {"layers": tables}
    else:
        scale_times(records + probes, speed)
        samples = end_to_end_metrics(passes, probes, "scaled_")
        raw = end_to_end_metrics(passes, probes, "")
        metrics = {}
        for name, unit in ((e["name"], e["unit"]) for e in spec["end_to_end"]):
            if not samples[name]:
                problems.append("no samples for %s" % name)
                continue
            aggregate = AGGREGATE[name]
            metrics[name] = {"value": aggregate(samples[name]), "unit": unit}
            print("%s: %s %.4f %s; %s; unscaled %s %.4f" % (
                name, aggregate.__name__, metrics[name]["value"], unit, summary(samples[name]),
                aggregate.__name__, aggregate(raw[name])))
        print("host speed on cpu %d: %s of the uncontended speed" % (cpu, summary(
            [hostspeed.REFERENCE_S / d for d in speed.durations])))
        extra = {"samples": samples, "unscaled_samples": raw, "cpu": cpu}
    print("error_ratio: %.4f (%d of %d operations failed)" % (failed / attempted, failed, attempted))
    for problem in problems:
        print("FAILED %s" % problem, file=sys.stderr)
    extra["problems"] = problems
    run_record(args, spec, ctx, generated, passes, extra)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
