"""nestfill CLI benchmark.

    python3 bench/run.py --workload gf-construct --seed 1 --seconds 30 --trace 0

Runs one workload's job list (a *pass*) through the ``nestfill`` CLI as
child processes, one at a time (closed loop, one client), pinned to one
CPU: two whole passes, then more jobs in pass order while they fit in
``--seconds``.  Between jobs it times a fixed reference loop, and the gated
``*_norm`` metrics count each job's time in reference-loop times measured
around it, which cancels the drift of a shared host's CPU speed.  Every
output is checked: exit codes, the ``passed`` flag of every verification
report, the sha256 of every output file against the first pass, and a
seeded tampered copy that ``verify`` must reject with exit 3 and the same
counterexample.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then replays the job list in this process through
``nestfill.cli.main`` with the program's public functions wrapped
(see layers.py), and reports the per-layer split.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; a
human-readable summary goes to stderr and the full record (metadata,
per-job timings, digests, every metric) to ``bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import jobs
import layers
from jobs import Job, Tamper, Workload
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / "bench_results"
TAMPERED = "tampered.json"

MIN_PASSES = 2
SETUP_SAMPLES = 8  # taken both before and after the passes, so 16 in all
REF_ITERATIONS = 100_000  # one reference loop, the unit "ref" of the *_norm metrics
REF_SHARE = 0.1  # reference-loop time as a share of the timed jobs' time
NEAR_S = 3.0  # a job is scaled by the reference samples within this of it
HARD_LIMIT_S = 170.0  # the whole run, so a hung job cannot keep it past 180 s
COMMANDS = ("construct", "lift", "verify", "export")

# name -> unit; the last stdout line carries exactly these
END_TO_END = {"setup_s": "s", "pass_norm": "ref", "verify_norm": "ref", "peak_rss_mb": "MB"}
# Only layers every workload enters: a layer a workload never enters would
# report a time of exactly 0 on every run.  The record in bench_results/ and
# the stderr summary carry the full split (arrays, spacefill, each oracle).
PER_LAYER_TIMES = [
    "cli.self_s", "io.load_s", "io.save_s", "galois.field_init_s", "groups.chain_build_s",
    "groups.projection_s", "kronecker.self_s", "verify.oa_s", "verify.self_s",
    "trace.unattributed_s",
]

SETUP_SCRIPT = """
import json, sys
import nestfill.cli
from nestfill.groups import chain_from_descriptor
for d in json.loads(sys.argv[1]):
    chain = chain_from_descriptor(d)
    for j in range(1, chain.layers + 1):
        chain.projection_map(j)
"""


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop (integer arithmetic and dict
    stores): a sample of how fast this CPU runs the interpreter right now."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(REF_ITERATIONS):
        total += i * i % 7
        table[i % 1000] = total
    return time.perf_counter() - start


class Yardstick:
    """Reference-loop samples taken between the timed jobs, REF_SHARE of
    their time, so they see the same CPU over the same window.

    On a shared host the CPU's speed drifts by a third within minutes; a
    job's time over the mean reference-loop time around it does not."""

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # perf_counter() at the end of each sample
        self.ref_s = 0.0
        self.job_s = 0.0

    def keep_up(self, job_seconds: float) -> None:
        self.job_s += job_seconds
        while self.ref_s < REF_SHARE * self.job_s:
            self.samples.append(reference_loop())
            self.stamps.append(time.perf_counter())
            self.ref_s += self.samples[-1]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def near(self, start: float, end: float) -> float:
        """Mean reference-loop time within NEAR_S of the interval, or over
        the whole run where there is none."""
        near = [s for s, t in zip(self.samples, self.stamps)
                if start - NEAR_S <= t - s and t <= end + NEAR_S]
        return statistics.fmean(near) if near else self.mean


def pin_one_cpu() -> int:
    """Pin this process, and so every child, to one CPU, so that the
    reference loop and the jobs run on the same one."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a set-up job failed)."""


@dataclass
class JobResult:
    command: str
    argv: list[str]
    seconds: float
    cpu_s: float
    rss_kb: int
    exit: int
    failures: list[str] = field(default_factory=list)
    start: float = 0.0  # perf_counter() when the job was started


@dataclass
class Pass:
    jobs: list[JobResult]
    digests: dict[str, str]     # output file -> sha256
    owners: dict[str, int]      # output file -> index of the job that wrote it
    counterexample: dict | None
    complete: bool              # False when the window ended inside the pass

    @property
    def seconds(self) -> float:
        return sum(j.seconds for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.failures)


class Runner:
    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "NESTFILL_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.reference: Pass | None = None
        self.yardstick = Yardstick()

    # -- child processes ------------------------------------------------------

    def spawn(self, argv: list[str], cwd: Path) -> tuple[int, float, float, int, str]:
        """Run argv to completion; return exit code, wall seconds, CPU
        seconds and peak RSS (KiB) from the child's own rusage, and its stderr."""
        timeout = max(1.0, self.deadline - time.monotonic())
        log = self.work / "child.stderr"
        with open(log, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if child.returncode is None:
                    child.kill()
                    child.wait()
            seconds = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        return child.returncode, seconds, cpu, usage.ru_maxrss, log.read_text(errors="replace")

    def cli(self, job: Job, cwd: Path) -> JobResult:
        code, seconds, cpu, rss, err = self.spawn(
            [sys.executable, "-m", "nestfill.cli", job.command, *job.argv], cwd)
        res = JobResult(job.command, job.argv, seconds, cpu, rss, code)
        if code != job.expect_exit:
            res.failures.append(f"exit {code}, expected {job.expect_exit}: {err.strip()[-300:]}")
        return res

    def setup_seconds(self, warm_up: bool) -> list[float]:
        """Fresh interpreters that import the CLI and build every chain of
        the workload with its projection maps, with no design work."""
        argv = [sys.executable, "-c", SETUP_SCRIPT, json.dumps(self.workload.chains)]
        out = []
        for _ in range(SETUP_SAMPLES + warm_up):
            code, seconds, _, _, err = self.spawn(argv, self.work)
            if code != 0:
                raise BenchError(f"set-up interpreter failed: {err.strip()[-300:]}")
            out.append(seconds)
        return out[warm_up:]

    def build_bases(self) -> None:
        for job in self.workload.base_jobs:
            res = self.cli(job, self.work / "inputs")
            if res.failures:
                raise BenchError(f"base design {job.argv[-1]}: {res.failures[0]}")

    # -- passes ---------------------------------------------------------------

    def tamper_job(self, pass_dir: Path) -> Job:
        """Write the tampered copy and return the verify job that must reject it."""
        t: Tamper = self.workload.tamper
        data = json.loads((pass_dir / t.source).read_text())
        row, value = t.cell
        old = data["rows"][row][0]
        data["rows"][row][0] = value if value != old else (value + 1) % t.values
        (pass_dir / TAMPERED).write_text(json.dumps(data))
        return Job("verify", ["--design", TAMPERED, "--out", TAMPERED + ".check.json"], expect_exit=3)

    def run_pass(self, name: str, execute, fits=None) -> Pass:
        """Run the job list in order.  With `fits`, stop before the first job
        `i` for which `fits(i)` is false, leaving a partial pass."""
        pass_dir = self.work / name
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        results, owners = [], {}
        for job in [*self.workload.jobs, None]:
            if fits is not None and not fits(len(results)):
                break
            job = job or self.tamper_job(pass_dir)
            res = execute(job, pass_dir)
            if job.report and not res.failures:
                res.failures += report_failures(pass_dir / job.report)
            for f in os.listdir(pass_dir):
                owners.setdefault(f, len(results))
            results.append(res)
        digests = {f: sha256(pass_dir / f) for f in sorted(owners)}
        complete = len(results) == len(self.workload.jobs) + 1
        counterexample = first_failure(pass_dir / (TAMPERED + ".check.json")) if complete else None
        out = Pass(results, digests, owners, counterexample, complete)
        self.compare(out)
        return out

    def compare(self, p: Pass) -> None:
        """Mark jobs whose outputs differ from, or are missing against, the first pass."""
        ref = self.reference
        if ref is None:
            self.reference = p
            if p.counterexample is None:
                p.jobs[-1].failures.append("tampered copy produced no failing check")
            return
        ran = len(p.jobs)
        expected = {f for f, owner in ref.owners.items() if owner < ran}
        for f in expected | set(p.digests):
            if ref.digests.get(f) != p.digests.get(f):
                p.jobs[p.owners.get(f, ref.owners.get(f))].failures.append(
                    f"{f}: output differs from the first pass")
        if p.complete and p.counterexample != ref.counterexample:
            p.jobs[-1].failures.append("tampered copy: counterexample differs from the first pass")

    def timed_cli(self, job: Job, cwd: Path) -> JobResult:
        start = time.perf_counter()
        res = self.cli(job, cwd)
        res.start = start
        self.yardstick.keep_up(res.seconds)
        return res

    def untraced_pass(self, fits=None) -> Pass:
        return self.run_pass("pass", self.timed_cli, fits)

    def traced_pass(self, rec) -> Pass:
        """Replay the job list in this process through nestfill.cli.main."""
        import nestfill.cli

        job_ids = iter(range(len(self.workload.jobs) + 1))

        def execute(job: Job, cwd: Path) -> JobResult:
            here = os.getcwd()
            os.chdir(cwd)
            start = time.perf_counter()
            problem = None
            try:
                with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()), \
                        rec.job(next(job_ids)):
                    code = nestfill.cli.main([job.command, *job.argv])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the traced pass must survive a program crash and report it
                code, problem = 1, traceback.format_exc(limit=3)
            finally:
                os.chdir(here)
            res = JobResult(job.command, job.argv, time.perf_counter() - start, 0.0, 0, code)
            if code != job.expect_exit:
                res.failures.append(f"exit {code}, expected {job.expect_exit} {problem or ''}")
            return res

        return self.run_pass("traced", execute)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_failures(path: Path) -> list[str]:
    try:
        passed = json.loads(path.read_text())["passed"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable report ({exc})"]
    return [] if passed is True else [f"{path.name}: passed is {passed!r}"]


def first_failure(path: Path) -> dict | None:
    try:
        checks = json.loads(path.read_text())["checks"]
    except (OSError, ValueError, KeyError):
        return None
    return next((c for c in checks if not c.get("passed")), None)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of a few percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None


def read_proc(path: str) -> str:
    """Contents of a /proc file, or "" where there is none."""
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks: user nice system idle iowait irq softirq steal."""
    fields = read_proc("/proc/stat").split("\n", 1)[0].split()[1:9]
    return [int(v) for v in fields] if len(fields) == 8 else []


def busy_shares(before: list[int], after: list[int]) -> dict:
    """Shares of the machine's CPU ticks between two readings that were
    busy (not idle or iowait) and stolen by the hypervisor."""
    if not before or not after:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    return {"cpu_busy_share": 1 - (delta[3] + delta[4]) / total, "cpu_steal_share": delta[7] / total}


def metadata(workload: str, seed: int, trace: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in read_proc("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "loadavg_start": read_proc("/proc/loadavg").split()[:3],
    }


def job_medians(passes: list[Pass], cost=lambda job: job.seconds) -> list[float]:
    """Median cost of each job of the list, over every pass that ran it."""
    return [statistics.median(cost(p.jobs[i]) for p in passes if len(p.jobs) > i)
            for i in range(len(passes[0].jobs))]


def end_to_end(passes: list[Pass], setup: list[float], stick: Yardstick) -> dict[str, float | None]:
    """Every end-to-end figure; commands the workload never runs are None.

    A pass costs the sum of its jobs' median times, so the jobs of a partial
    last pass count too and the whole window is measured.  The *_norm
    figures do the same with each job's time over the mean reference-loop
    time around it."""
    commands = [j.command for j in passes[0].jobs]
    seconds = job_medians(passes)
    refs = job_medians(passes, lambda j: j.seconds / stick.near(j.start, j.start + j.seconds))
    out = {"setup_s": statistics.median(setup), "pass_s": sum(seconds)}
    for cmd in COMMANDS:
        out[f"{cmd}_s"] = (sum(m for m, c in zip(seconds, commands) if c == cmd)
                           if cmd in commands else None)
    out["ref_s"] = stick.mean
    out["pass_norm"] = sum(refs)
    out["verify_norm"] = sum(m for m, c in zip(refs, commands) if c == "verify")
    out["peak_rss_mb"] = max(j.rss_kb for p in passes for j in p.jobs) / 1024
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job lists that exercise the plumbing only")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    if not (SRC / "nestfill" / "cli.py").is_file():
        raise BenchError(f"no nestfill sources under {SRC}")
    os.environ.pop("NESTFILL_SEED", None)
    deadline = time.monotonic() + HARD_LIMIT_S
    meta = metadata(args.workload, args.seed, args.trace)
    meta["pinned_cpu"] = pin_one_cpu()
    ticks = cpu_ticks()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload = jobs.build(args.workload, work / "inputs", args.seed, args.smoke)
    runner = Runner(workload, work, deadline)
    runner.build_bases()
    setup = runner.setup_seconds(warm_up=True)

    start = time.monotonic()
    # a traced run times one pass only, as the base of trace.overhead_ratio
    window_end = start if args.trace else start + args.seconds
    passes = timed_passes(runner, window_end, 1 if args.trace else MIN_PASSES)
    setup += runner.setup_seconds(warm_up=False)
    e2e = end_to_end(passes, setup, runner.yardstick)
    traced, layer, missing = [], {}, []
    if args.trace:
        traced, layer, missing = traced_passes(runner, args, start)
    all_passes = passes + traced
    attempted = sum(len(p.jobs) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    correct = failed == 0  # a missing wrapped name is reported, not an error

    if args.trace:
        metrics = {k: {"value": layer[k], "unit": "s"} for k in PER_LAYER_TIMES}
        metrics.update({k: {"value": layer[k], "unit": "count"} for k in layers.COUNT_METRICS})
        metrics["trace.overhead_ratio"] = {"value": layer["trace.overhead_ratio"], "unit": "ratio"}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    record = {
        "meta": {**meta, **busy_shares(ticks, cpu_ticks()),
                 "loadavg_end": read_proc("/proc/loadavg").split()[:3],
                 "passes": sum(p.complete for p in passes),
                 "partial_passes": sum(not p.complete for p in passes),
                 "traced_passes": len(traced),
                 "tamper_cell": list(workload.tamper.cell), "smoke": args.smoke},
        "correct": correct, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "setup_samples": setup, "ref_samples": runner.yardstick.samples,
        "ref_stamps": runner.yardstick.stamps, "per_layer": layer, "missing": missing,
        "tail": tail_percentile([p.seconds for p in passes if p.complete]),
        "digests": passes[0].digests, "tamper_counterexample": passes[0].counterexample,
        "passes": [[vars(j) for j in p.jobs] for p in all_passes],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    summarize(record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def timed_passes(runner: Runner, window_end: float, minimum: int) -> list[Pass]:
    """`minimum` complete passes, then more until `window_end`.  The last one
    is partial when its next job would probably end after the window."""
    passes = [runner.untraced_pass() for _ in range(minimum)]
    while time.monotonic() < window_end:
        expected = job_medians(passes)
        p = runner.untraced_pass(
            lambda i: time.monotonic() + expected[i] * (1 + REF_SHARE) <= window_end)
        if p.jobs:
            passes.append(p)
        if not p.complete:
            break
    return passes


def another_pass(start: float, seconds: float, done: int) -> bool:
    """True while one more pass of the average length so far still ends
    within `seconds` of `start`."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / done <= seconds


def traced_passes(runner: Runner, args, start: float):
    """One or more in-process traced passes after the untraced one."""
    sys.path.insert(0, str(SRC))
    import nestfill.cli  # noqa: F401  (loads every module the wrappers patch)

    untraced = runner.reference.seconds
    passes, metrics = [], []
    while not passes or another_pass(start, args.seconds, len(passes) + 1):
        rec = Recorder()
        layers.install(rec)
        try:
            p = runner.traced_pass(rec)
        finally:
            rec.uninstall()
        passes.append(p)
        m = layers.layer_metrics(rec)
        m["trace.overhead_ratio"] = p.seconds / untraced
        if metrics and any(m[k] != metrics[0][k] for k in layers.COUNT_METRICS):
            p.jobs[-1].failures.append("per-layer counts differ between traced passes")
        metrics.append(m)
        RESULTS.mkdir(exist_ok=True)
        rec.write_jsonl(RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl")
    # times: median over traced passes; counts: equal in every pass (checked above)
    layer = {k: v if k in layers.COUNT_METRICS else statistics.median(m[k] for m in metrics)
             for k, v in metrics[0].items()}
    return passes, layer, rec.missing


def summarize(record: dict) -> None:
    meta, e2e = record["meta"], record["end_to_end"]
    err = sys.stderr
    print(f"workload {meta['workload']}  seed {meta['seed']}  passes {meta['passes']}"
          f" (+{meta['partial_passes']} partial)"
          f"  traced {meta['traced_passes']}  loadavg {' '.join(meta['loadavg_start'])}"
          f"  machine busy {meta.get('cpu_busy_share', 0):.0%}"
          f" steal {meta.get('cpu_steal_share', 0):.1%}", file=err)
    tail = record["tail"]
    print("  tail: " + (f"p{tail[0]} pass_s {tail[1]:.4f} s" if tail else
                        "no percentile has 10 passes beyond it"), file=err)
    for name, value in e2e.items():
        unit = END_TO_END.get(name, "s")
        text = f"{value:.4f} {unit}" if value is not None else "n/a (not run by this workload)"
        print(f"  {name:<14} {text}", file=err)
    ratio = record["failed"] / record["attempted"]
    print(f"  failed_ratio   {ratio:g} ({record['failed']}/{record['attempted']} jobs)", file=err)
    for p in record["passes"]:
        for j in p:
            for f in j["failures"]:
                print(f"  FAIL {j['command']} {' '.join(j['argv'])}: {f}", file=err)
    if record["per_layer"]:
        print("  per-layer split (traced pass):", file=err)
        for name, value in sorted(record["per_layer"].items()):
            print(f"    {name:<24} {value:.4f}" if isinstance(value, float) else
                  f"    {name:<24} {value}", file=err)
    for name in record["missing"]:
        print(f"  MISSING wrapped name {name}", file=err)


if __name__ == "__main__":
    sys.exit(main())
