"""End-to-end benchmark of the gtrep CLI, with a separate traced run.

    python3 bench/run.py                    # every workload, every metric
    python3 bench/run.py --workload build-plain --seed 3 --seconds 36 \\
        --trace 0

Each request runs as a fresh `python -m gtrep` child, one at a time: a
closed loop with a single client. A pass runs every request of the
workload once, in an order drawn from --seed; passes repeat while the
next one still fits in --seconds (at least one runs). Every child's
stdout is checked against the sha256 recorded in workloads.json, and a
verify request must also report "pass".

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 alternates untraced passes with traced ones, in which each
request runs under trace_child.py, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table.
Exits 1 after printing the result if any request failed, and 2 without
a result when the checkout holds no gtrep source to run.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# interpreter start, `import gtrep` and argparse, with next to no work
SETUP_ARGV = ["dim", "--type", "A", "--rank", "1", "--weight", "0"]
SETUP_SAMPLES = 21
# a run kills any child still running this long after it began, so that
# a pathologically slow program still ends the run in bounded time
RUN_LIMIT_S = 170.0


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


class Child:
    __slots__ = ("code", "sha256", "stdout", "rss_mb", "wall", "stderr")


def child_env():
    # built from scratch: nothing inherited (GTREP_CORRUPT, a foreign
    # PYTHONPATH, ...) can change what the children compute
    return {"PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(SRC)}


def run_child(cmd, deadline, stderr_path, keep_stdout=False):
    """Run one child to completion; peak RSS comes from its own wait4."""
    res = Child()
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    h = hashlib.sha256()
    kept = []
    try:
        while True:
            chunk = proc.stdout.read(1 << 20)
            if not chunk:
                break
            h.update(chunk)
            if keep_stdout:
                kept.append(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    res.wall = time.perf_counter() - t0
    res.code = proc.returncode
    res.sha256 = h.hexdigest()
    res.stdout = b"".join(kept)
    res.rss_mb = usage.ru_maxrss / 1024.0
    with open(stderr_path, "rb") as f:
        res.stderr = f.read()[-2000:].decode(errors="replace")
    return res


def request_error(req, res):
    """Why a request failed, or None."""
    if res.code != 0:
        return "exit code %d: %s" % (res.code, res.stderr.strip())
    if res.sha256 != req["stdout_sha256"]:
        return "stdout sha256 %s, expected %s" % (res.sha256,
                                                  req["stdout_sha256"])
    if req["argv"][0] == "verify":
        summary = json.loads(res.stdout)["summary"]
        if summary != "pass":
            return "verify summary %r" % (summary,)
    return None


class Runner:
    def __init__(self, tmp, deadline):
        self.tmp = Path(tmp)
        self.deadline = deadline
        self.nchild = 0
        self.attempted = 0
        self.failures = []

    def _paths(self):
        self.nchild += 1
        return (self.tmp / ("stderr-%d" % self.nchild),
                self.tmp / ("spans-%d.json" % self.nchild))

    def setup_samples(self):
        """Wall time of SETUP_ARGV, after one untimed warm-up run; also
        the check that the checkout can run gtrep at all."""
        cmd = [sys.executable, "-m", "gtrep"] + SETUP_ARGV
        walls = []
        for _ in range(SETUP_SAMPLES + 1):
            err, _ = self._paths()
            res = run_child(cmd, self.deadline, err, keep_stdout=True)
            if res.code != 0 or res.stdout != b"1\n":
                raise Fatal("`gtrep %s` failed (exit %d): %s"
                            % (" ".join(SETUP_ARGV), res.code,
                               res.stderr.strip()))
            walls.append(res.wall)
        return walls[1:]

    def run_pass(self, requests, rng, traced):
        """One pass over the requests in seeded order: (wall, children,
        per-request layer metrics when traced)."""
        order = list(requests)
        rng.shuffle(order)
        layers = []
        children = []
        t0 = time.perf_counter()
        for req in order:
            err, spans = self._paths()
            if traced:
                cmd = [sys.executable, str(HERE / "trace_child.py"),
                       str(spans), "--"] + req["argv"]
            else:
                cmd = [sys.executable, "-m", "gtrep"] + req["argv"]
            res = run_child(cmd, self.deadline, err,
                            keep_stdout=req["argv"][0] == "verify")
            self.attempted += 1
            why = request_error(req, res)
            if why is not None:
                self.failures.append("%s: %s" % (" ".join(req["argv"]), why))
            elif traced:
                with open(spans) as f:
                    doc = json.load(f)
                layers.append(tracer.layer_metrics(doc))
            children.append(res)
        return time.perf_counter() - t0, children, layers


def measure(workload, seed, seconds, trace):
    """One run: (metrics, a note on how some were taken, requests
    attempted, failure messages)."""
    rng = random.Random(seed)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        run = Runner(tmp, start + RUN_LIMIT_S)
        setup = run.setup_samples()
        t0 = time.perf_counter()
        walls, traced_walls, rss, per_pass = [], [], [], []
        rounds = []
        while not rounds or (time.perf_counter() - t0
                             + statistics.mean(rounds) <= seconds):
            r0 = time.perf_counter()
            wall, children, _ = run.run_pass(workload["requests"], rng, False)
            walls.append(wall)
            rss.extend(c.rss_mb for c in children)
            if trace:
                wall, _, layers = run.run_pass(workload["requests"], rng,
                                               True)
                traced_walls.append(wall)
                if len(layers) == len(workload["requests"]):
                    per_pass.append(tracer.sum_metrics(layers))
            rounds.append(time.perf_counter() - r0)

    if not trace:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": max(rss)}
        notes = {"wall_s": "median of %d passes: %s" % (
                     len(walls), ", ".join("%.3f" % w for w in walls)),
                 "setup_s": "median of %d samples" % len(setup)}
    else:
        # a traced pass with a failed request yields no layer metrics
        metrics = {}
        if per_pass:
            for key in per_pass[0]:
                metrics[key] = statistics.median(p[key] for p in per_pass)
            metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                           - statistics.median(walls))
        notes = {"trace.overhead_s": "median traced pass minus median "
                                     "untraced pass, %d each" % len(walls)}
    return metrics, notes, run.attempted, run.failures


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise Fatal("cannot read %s: %s" % (path, e))


def run_workload(name, workloads, declared, seed, seconds, trace):
    workload = workloads[name]
    metrics, notes, attempted, failures = measure(workload, seed, seconds,
                                                  trace)
    for f in failures:
        sys.stderr.write("FAILED %s\n" % f)
    print("workload %s, seed %d, trace %d: %d requests, %d failed, "
          "failed_frac %s ratio" % (name, seed, trace, attempted,
                                    len(failures),
                                    len(failures) / attempted))
    out = {}
    for m in declared["per_layer" if trace else "end_to_end"]:
        if m["name"] not in metrics:
            if failures:
                continue
            raise Fatal("metric %s was not measured" % m["name"])
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"])
        shown = ("%16d" if isinstance(value, int) else "%16.6f") % value
        print("  %-30s %s %-6s%s" % (m["name"], shown, m["unit"],
                                     "  (%s)" % note if note else ""))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": out}
    print(json.dumps(result), flush=True)
    return not failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="a workload name from workloads.json, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload (default: run_seconds "
                        "in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        if not (SRC / "gtrep" / "__init__.py").is_file():
            raise Fatal("no gtrep package under %s" % SRC)
        workloads = load_json(HERE / "workloads.json")["workloads"]
        declared = load_json(ROOT / "BENCHMARK.json")
        names = list(workloads) if args.workload == "all" else [args.workload]
        for name in names:
            if name not in workloads:
                raise Fatal("unknown workload %r; known: %s"
                            % (name, ", ".join(workloads)))
        seconds = args.seconds or declared["run_seconds"]
        ok = True
        for name in names:
            ok &= run_workload(name, workloads, declared, args.seed,
                               seconds, args.trace)
    except Fatal as e:
        sys.stderr.write("bench: %s\n" % e)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
