"""Benchmark runner: seeded workloads, one fresh worker process per pass.

Usage::

    python3 perfbench/run.py --workload {kummer6,ladder,crosscheck} \
        --seed N --seconds S --trace {0,1}

A closed loop with one client: passes run back to back, one job at a time,
each in a new ``perfbench/worker.py`` process, until another pass would
end after ``--seconds``.  The seed fixes the inputs (a basis change per
action), and every pass runs the same ones.  Every op's output is checked
against the expected values in ``workloads.py``: an op fails if it raises,
exits non-zero, hits the time limit or returns other values, and the run
is ``correct`` unless some op returned values that differ.

``--trace 0`` reports the end-to-end metrics (``pass_s``, ``setup_s``,
``peak_rss_mb``, ``ok_ratio``).  Times are in seconds at a nominal CPU
speed: each pass's wall times are multiplied by the speed the worker's
reference loop measured during that pass (see ``reference.py``).  ``--trace 1`` runs each pass twice on the
same inputs, untraced then traced, and reports the per-layer metrics of
the traced passes plus the tracing overhead (traced minus untraced
``pass_s``).  The last stdout line is the result object; the line before
it holds quartiles, sample counts, failures and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import UNITS  # noqa: E402
from reference import REF_NOMINAL_S  # noqa: E402
from workloads import LEDGERS, WORKLOADS, build_ops  # noqa: E402

PASS_LIMIT_S = 120.0  # wall-clock limit on one worker
RUN_DEADLINE_S = 170.0  # no worker outlives this, counted from the start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def missing_inputs():
    """Files of the checkout the benchmark needs and cannot find."""
    needed = [ROOT / "src" / "kummer" / "__init__.py"]
    needed += [ROOT / path for path, _ in LEDGERS.values()]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


class Pass:
    """One worker process: its timings, op records and failures."""

    def __init__(self, ops, jobs_path: Path, flags, limit: float):
        self.ops = ops
        self.limit = limit
        argv = [sys.executable, str(HERE / "worker.py"), str(jobs_path), *flags]
        spawned = time.monotonic()
        self.timed_out = False
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=limit)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                self.timed_out = True
            except BaseException:
                proc.kill()
                raise
        self.wall_s = time.monotonic() - spawned
        self.returncode = proc.returncode
        self.stderr_tail = err.strip().splitlines()[-1:] or [""]
        self.setup_s = None
        self.pass_s = None
        self.maxrss_kb = None
        self.layers = None
        self.speed = None  # mean of REF_NOMINAL_S over this pass's loop times
        self.op_records = {}
        for line in out.splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a line cut off when the worker was killed
            if "ready" in record:
                self.setup_s = record["ready"] - spawned
            elif "op" in record:
                self.op_records[record["op"]] = record
            elif "pass_s" in record:
                self.pass_s = record["pass_s"]
                self.speed = statistics.fmean(REF_NOMINAL_S / t
                                              for t in record["ref_s"])
                self.maxrss_kb = record["maxrss_kb"]
                self.layers = record["layers"]
        if self.pass_s is None and self.setup_s is not None:
            self.pass_s = self.wall_s - self.setup_s  # cut short: time it ran
        self.failures = []  # (op name, message)
        self.wrong = 0  # ops that returned values other than the expected

    def check(self):
        """Compare each op's summary with its expected values."""
        for i, op in enumerate(self.ops):
            record = self.op_records.get(i)
            if record is None:
                why = (f"pass exceeded its {self.limit:.0f} s limit" if self.timed_out
                       else f"worker exited {self.returncode}: {self.stderr_tail[0]}")
                self._fail(op, why)
            elif record["error"] is not None:
                self._fail(op, record["error"])
            elif record["summary"] != op["expect"]:
                got, want = record["summary"], op["expect"]
                diff = {k: [got.get(k), want[k]] for k in want if got.get(k) != want[k]}
                self._fail(op, f"got vs expected {json.dumps(diff)}",
                           wrong=set(diff) != {"exit"})
        return self

    def _fail(self, op, message, wrong=False):
        self.failures.append((op["name"], message))
        self.wrong += wrong


def write_inputs(workload, seed, workdir: Path):
    """Write the run's input documents and op list; every pass reuses them."""
    ops, docs = build_ops(workload, seed, str(workdir), str(ROOT))
    for path, doc in docs.items():
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
    jobs = workdir / "jobs.json"
    jobs.write_text(json.dumps(ops), encoding="utf-8")
    return ops, jobs


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def environment(args, overhead_s):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kummer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False)
        commit = done.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tracing_overhead_s": overhead_s,
    }


def measure(args, workdir: Path, started: float):
    """Run passes until another would end after ``--seconds``."""
    ops, jobs = write_inputs(args.workload, args.seed, workdir)
    pairs = []

    def spawn(flags):
        limit = min(PASS_LIMIT_S, RUN_DEADLINE_S - (time.monotonic() - started))
        return Pass(ops, jobs, flags, limit)

    loop_start = time.monotonic()
    while True:
        iteration_start = time.monotonic()
        pair = [spawn(flags).check()
                for flags in ([[], ["--trace"]] if args.trace else [[]])]
        pairs.append(pair)
        now = time.monotonic()
        if (any(p.timed_out for p in pair)
                or now - loop_start + (now - iteration_start) > args.seconds):
            return pairs


def scaled(passes, attr):
    """Each pass's ``attr`` in nominal-speed seconds (see ``reference.py``).

    Aligned with ``passes``: None where the pass has no such time.  A pass
    cut short measured no speed; it takes the median of the others.
    """
    speeds = [p.speed for p in passes if p.speed is not None]
    fallback = statistics.median(speeds) if speeds else 1.0
    return [None if getattr(p, attr) is None
            else getattr(p, attr) * (fallback if p.speed is None else p.speed)
            for p in passes]


def present(values):
    return [v for v in values if v is not None]


def summarize_run(args, pairs):
    passes = [p for pair in pairs for p in pair]
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    wrong = sum(p.wrong for p in passes)
    untraced = [pair[0] for pair in pairs]
    pass_times = present(scaled(untraced, "pass_s"))
    setup_samples = present(scaled(untraced, "setup_s"))
    wall_times = [p.pass_s for p in untraced if p.pass_s is not None]
    detail = {
        "pass_s": {"median": statistics.median(pass_times),
                   "quartiles": quartiles(pass_times), "n": len(pass_times),
                   "values": pass_times},
        "wall_pass_s": {"median": statistics.median(wall_times),
                        "values": wall_times},
        "speed": [p.speed for p in untraced],
        "failed_ratio": failed / attempted,
        "failures": sorted({f"{name}: {msg}" for p in passes
                            for name, msg in p.failures}),
    }
    overhead = None
    if args.trace:
        diffs = [t - u for u, t in zip(scaled(untraced, "pass_s"),
                                       scaled([t for _, t in pairs], "pass_s"))
                 if u is not None and t is not None]
        overhead = statistics.median(diffs) if diffs else None
        layers = [t.layers for _, t in pairs if t.layers]
        metrics = {
            name: {"value": statistics.median(l[name] for l in layers) if layers
                   else 0, "unit": unit}
            for name, unit in UNITS.items()
        }
        metrics["trace.overhead_s"] = {"value": overhead or 0.0, "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": (overhead or 0.0) / statistics.median(pass_times),
            "unit": "ratio"}
        detail["traced_passes"] = len(layers)
    else:
        rss = [p.maxrss_kb / 1024 for p in untraced if p.maxrss_kb is not None]
        # every pass was killed: the largest child any pass left behind
        rss = rss or [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]
        detail["setup_s"] = {"median": statistics.median(setup_samples),
                             "quartiles": quartiles(setup_samples),
                             "n": len(setup_samples)}
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted,
                         "unit": "ratio"},
        }
    detail["environment"] = environment(args, overhead)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    missing = missing_inputs()
    if missing:
        sys.stderr.write("error: not a kummer checkout; missing "
                         + ", ".join(missing) + "\n")
        return 2
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pairs = measure(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not any(pair[0].pass_s is not None for pair in pairs):
        sys.stderr.write("error: no pass produced a timing: "
                         + pairs[0][0].stderr_tail[0] + "\n")
        return 1
    detail, result = summarize_run(args, pairs)
    for failure in detail["failures"]:
        sys.stderr.write(f"failed: {failure}\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
