"""Benchmark of conifold-spectra: three seeded workloads, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 35 --trace 0

Workloads (see ``gen.py`` for why each exists and how it is sized):

* ``cli-mix``       one fresh ``python -m conifold_spectra.cli`` process per
                    operation: builtin and ``--input`` reports, plot-data
                    sweeps, ``verify all`` and refused documents;
* ``report-deep``   in process: json.loads -> load_spectrum (or sphere_link)
                    -> build_report -> render_json/render_text/render_csv on
                    large links of four arithmetic kinds;
* ``verify-exact``  in process: the flat-cone verifier's cases, identities,
                    R^4 record and ODE grid.

Each is a closed loop with one client and no threads.  A *pass* is the
workload's fixed, seeded operation list; passes repeat until the next one
would end after ``--seconds`` (at least ``min_passes`` of them).  Every
output is checked by ``oracle.py``, which never imports the package.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics of the first
traced pass (spans recorded by ``tracing.py`` around the layers' public
functions) and the traced/untraced wall-time ratio.  There is no queue
anywhere in the program, so no wait-time metric exists.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, percentiles,
output digests, known defects, spans summary) goes to
``.perfbench/results/``.  Without ``src/conifold_spectra`` next to this
directory the benchmark exits with code 2 and prints no result.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402

CHILD_TIMEOUT_S = 120
SETUP_SAMPLES = 3           # the run's own set-up plus two fresh processes
FLOOR_SAMPLES = 5


class ChildTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise ChildTimeout()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CliMix:
    """One child process per operation, as a shell user runs the tool."""

    name = "cli-mix"
    min_passes = 3

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.plan = gen.cli_mix_plan(seed)
        for op in self.plan:
            for fname, text in op["files"].items():
                with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)
        self.env = child_env()
        self.peak_kb = 0
        self._spawn(["report", "--builtin", "sphere", "--n", "4"], None)

    def _spawn(self, argv: List[str], spans_file: Optional[str]):
        if spans_file is None:
            cmd = [sys.executable, "-m", "conifold_spectra.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), spans_file, *argv]
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            reaped = False
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
                if not reaped:
                    proc.kill()
                    proc.wait()
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return latency, {"exit": proc.returncode, "stdout": stdout, "stderr": stderr, "maxrss_kb": usage.ru_maxrss}

    def execute(self, op: Dict, recorder: Optional[tracing.Recorder]):
        if recorder is None:
            latency, out = self._spawn(op["argv"], None)
            self.peak_kb = max(self.peak_kb, out["maxrss_kb"])
            return latency, out
        spans_file = os.path.join(self.workdir, "spans.json")
        with recorder.span("op", op["id"]) as index:
            latency, out = self._spawn(op["argv"], spans_file)
        with open(spans_file, "r", encoding="utf-8") as fh:
            recorder.absorb(json.load(fh), index)
        os.remove(spans_file)
        return latency, out

    def check(self, op: Dict, out: Dict) -> List[str]:
        problems = []
        if out["exit"] != op["expect_exit"]:
            problems.append(
                f"{' '.join(op['argv'])}: exit {out['exit']}, expected {op['expect_exit']}: "
                f"{out['stderr'].decode(errors='replace').strip()[-300:]}"
            )
            return problems
        text = out["stdout"].decode("utf-8")
        check = op["check"]
        if check["kind"] == "refused":
            if text:
                problems.append(f"{' '.join(op['argv'])}: refused document still printed output")
        elif check["kind"] == "verify-all":
            problems += oracle.check_verify_all(text)
        elif check["kind"] == "plot":
            problems += oracle.check_plot(
                text, check["n"], Fraction(check["nu_min"]), Fraction(check["step"]), check["rows"]
            )
        else:
            fmt = op["argv"][op["argv"].index("--format") + 1]
            if "document" in check:
                spec = oracle.Spectrum.from_document(check["document"])
            else:
                spec = oracle.Spectrum.builtin(check["builtin"], check["n"])
            problems += oracle.check_report(fmt, text, spec)
        return problems

    @staticmethod
    def digest(out: Dict) -> bytes:
        return b"exit %d\n" % out["exit"] + out["stdout"]

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024


class InProcess:
    """Shared timing for the two in-process workloads."""

    def setup(self, seed: int, workdir: str) -> None:
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    def execute(self, op: Dict, recorder: Optional[tracing.Recorder]):
        # Start every operation from a collected heap, so that its time does
        # not depend on the garbage an earlier operation left behind.
        gc.collect()
        context = recorder.span("op", op["id"]) if recorder is not None else nullcontext()
        with context:
            start = time.perf_counter()
            out = self.call(op)
            latency = time.perf_counter() - start
        return latency, out

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ReportDeep(InProcess):
    name = "report-deep"
    min_passes = 2

    def setup(self, seed: int, workdir: str) -> None:
        super().setup(seed, workdir)
        import conifold_spectra

        self.pkg = conifold_spectra
        self.plan = gen.report_deep_plan(seed)
        for op in gen.report_deep_warmup():
            self.call(op)

    def call(self, op: Dict) -> Dict[str, str]:
        cs = self.pkg
        if op["kind"] == "sphere":
            link = cs.sphere_link(op["n"], count=op["count"])
        else:
            link = cs.load_spectrum(json.loads(op["text"]))
        report = cs.build_report(link)
        return {"json": cs.render_json(report), "table": cs.render_text(report), "csv": cs.render_csv(report)}

    def check(self, op: Dict, out: Dict[str, str]) -> List[str]:
        if op["kind"] == "sphere":
            spec = oracle.Spectrum.sphere(op["n"], op["count"])
        else:
            spec = oracle.Spectrum.from_document(json.loads(op["text"]))
        problems = []
        for fmt, text in out.items():
            problems += oracle.check_report(fmt, text, spec)
        return problems

    @staticmethod
    def digest(out: Dict[str, str]) -> bytes:
        return "".join(out[k] for k in ("json", "table", "csv")).encode("utf-8")


class VerifyExact(InProcess):
    name = "verify-exact"
    min_passes = 3

    def setup(self, seed: int, workdir: str) -> None:
        super().setup(seed, workdir)
        import conifold_spectra.flatcone

        self.flatcone = conifold_spectra.flatcone
        self.plan = gen.verify_exact_plan(seed)
        self.call({"kind": "case", "case": "vii", "n": 4, "degree": 2, "seed": 0})

    def call(self, op: Dict):
        fc = self.flatcone
        kind = op["kind"]
        if kind == "case":
            return fc.verify_case(op["case"], op["n"], op["degree"], op["seed"])
        if kind == "identity":
            return getattr(fc, op["name"])(op["n"])
        if kind == "cheeger-tian":
            return fc.cheeger_tian_example(4)
        return [fc.ode_residual(n, nu, branch) for (n, nu, branch) in fc.default_grid()]

    def check(self, op: Dict, out) -> List[str]:
        kind = op["kind"]
        if kind == "case":
            return oracle.check_case(out, op["case"], op["n"], op["degree"])
        if kind == "identity":
            return oracle.check_identity(out, op["name"], op["n"])
        if kind == "cheeger-tian":
            return oracle.check_cheeger_tian(out)
        return oracle.check_ode_grid(out)

    @staticmethod
    def digest(out) -> bytes:
        return repr(out).encode("utf-8")


WORKLOADS = {w.name: w for w in (CliMix, ReportDeep, VerifyExact)}


# ---------------------------------------------------------------------------
# passes and statistics
# ---------------------------------------------------------------------------


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies: List[float] = []
        self.problems: Dict[int, List[str]] = {}
        self.digests: Dict[int, str] = {}
        self.recorder: Optional[tracing.Recorder] = None

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(workload, traced: bool) -> Pass:
    result = Pass(traced)
    recorder = tracing.Recorder() if traced else None
    in_process = isinstance(workload, InProcess)
    if recorder is not None and in_process:
        recorder.install()
    try:
        for op in workload.plan:
            try:
                latency, out = workload.execute(op, recorder)
            except Exception:
                result.problems[op["id"]] = ["exception: " + traceback.format_exc(limit=4)]
                continue
            result.latencies.append(latency)
            problems = workload.check(op, out)
            if problems:
                result.problems[op["id"]] = problems
            result.digests[op["id"]] = hashlib.sha256(workload.digest(out)).hexdigest()
            del out
    finally:
        if recorder is not None and in_process:
            recorder.uninstall()
    result.recorder = recorder
    return result


def measure(workload, seconds: float, traced: bool) -> List[Pass]:
    """Repeat passes (untraced, or untraced+traced pairs) until time is up."""
    passes: List[Pass] = []
    rounds: List[float] = []
    minimum = 1 if traced else workload.min_passes
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, traced=False))
        if traced:
            passes.append(run_pass(workload, traced=True))
        rounds.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(rounds) >= minimum and elapsed + statistics.median(rounds) > seconds:
            return passes


def tail_percentile(workload) -> int:
    """Highest whole percentile with at least ten operations beyond it.

    Fixed per workload from its guaranteed sample count (min_passes times
    the operations in a pass), so every run reports the same percentile.
    """
    guaranteed = workload.min_passes * len(workload.plan)
    return max(50, math.floor(100 * (1 - 10 / guaranteed)))


def nearest_rank(values: List[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# environment, floors, set-up samples
# ---------------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def _git_commit() -> Optional[str]:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "conifold_spectra")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args) -> Dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _timed_child(cmd: List[str]) -> Tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} failed: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def cli_floors() -> Dict[str, float]:
    """Bare interpreter start, and the import of the CLI on top of it."""
    bare = [_timed_child([sys.executable, "-c", "pass"])[0] for _ in range(FLOOR_SAMPLES)]
    script = (
        "import sys, conifold_spectra.cli; "
        "print(sum(1 for m in sys.modules if m.split('.')[0] in ('conifold_spectra', 'mpmath')))"
    )
    runs = [_timed_child([sys.executable, "-c", script]) for _ in range(FLOOR_SAMPLES)]
    floor = statistics.median(bare)
    return {
        "cli.interpreter_s": floor,
        "cli.import_s": statistics.median(t for t, _ in runs) - floor,
        "cli.modules_loaded": int(runs[0][1].strip()),
    }


def setup_samples(args, own: float) -> List[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        _t, out = _timed_child(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--setup-only",
            ]
        )
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def counters_repeat(args, exact: Dict[str, float]) -> Optional[bool]:
    """Compare the exact counters with an earlier traced run of the same inputs."""
    folder = os.path.join(WORK, "counters")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{args.workload}-seed{args.seed}-{src_digest()[:16]}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh) == exact
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(exact, fh, indent=1, sort_keys=True)
    return None


def _metric(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conifold_spectra", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        own_setup = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        passes = measure(workload, args.seconds, traced=bool(args.trace))
        peak_rss = workload.peak_rss_mb()
        defects = probe.run_probe(sys.executable, child_env(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, workload, passes, peak_rss, defects, own_setup)


def report(args, workload, passes: List[Pass], peak_rss: float, defects, own_setup: float) -> int:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = len(workload.plan) * len(passes)
    failed = sum(len(p.problems) for p in passes)
    problems = sorted({msg for p in passes for msgs in p.problems.values() for msg in msgs})
    reference = plain[0].digests
    drift = sorted({i for p in passes for i, d in p.digests.items() if reference.get(i, d) != d})
    if drift:
        problems.append(f"outputs of operations {drift} differ between passes")
    outputs_sha256 = hashlib.sha256("".join(reference[i] for i in sorted(reference)).encode()).hexdigest()
    known = sum(1 for d in defects if d["present"])

    latencies = [t for p in plain for t in p.latencies]
    percentile = tail_percentile(workload)
    record = {
        "environment": environment(args),
        "passes": len(plain),
        "operations_per_pass": len(workload.plan),
        "operations_measured": len(latencies),
        "tail_percentile": percentile,
        "fail_ratio": failed / attempted,
        "outputs_sha256": outputs_sha256,
        "operation_sha256": reference,
        "pass_wall_s": [p.wall_s for p in plain],
        "operation_latency_s": [p.latencies for p in plain],
        "known_defects": defects,
        "problems": problems,
    }
    if args.trace:
        recorder = traced[0].recorder
        layers = tracing.summarize(recorder)
        layers.update(cli_floors())
        exact = {k: layers[k] for k in tracing.EXACT_COUNTERS + ("cli.modules_loaded",)}
        repeat = counters_repeat(args, exact)
        if repeat is False:
            problems.append("exact counters differ from an earlier traced run of the same inputs")
        overhead = statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
        metrics = {name: _metric(value, _layer_unit(name)) for name, value in sorted(layers.items())}
        metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
        metrics["known_defects"] = _metric(known, "count")
        record["spans"] = len(recorder.spans)
        record["counters_repeat"] = repeat
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_samples(args, own_setup)), "s"),
            "wall_s": _metric(statistics.median(p.wall_s for p in plain), "s"),
            "op_p50_s": _metric(statistics.median(latencies), "s"),
            "op_tail_s": _metric(nearest_rank(latencies, percentile), "s"),
            "peak_rss_mb": _metric(peak_rss, "MB"),
        }
    record["metrics"] = metrics
    correct = failed == 0 and not problems

    folder = os.path.join(WORK, "results")
    os.makedirs(folder, exist_ok=True)
    stem = os.path.join(folder, f"{args.workload}-seed{args.seed}")
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "status"], "spans": recorder.spans}, fh)

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} python={env['python']} mpmath={env['mpmath']} "
        f"nproc={env['nproc']} cpu={env['cpu_model']!r} commit={env['git_commit']} src={env['src_sha256'][:12]}"
    )
    print(
        f"# passes={len(plain)} ops/pass={len(workload.plan)} ops measured={len(latencies)} "
        f"fail_ratio={failed / attempted:g} ({failed}/{attempted}) outputs_sha256={outputs_sha256[:16]}"
    )
    print("# known defects: " + ", ".join(f"{d['defect']}={'present' if d['present'] else 'fixed'}(exit {d['exit']})" for d in defects))
    if args.trace:
        print(f"# counters repeat an earlier traced run: {record['counters_repeat']}")
    for problem in problems[:20]:
        print(f"# PROBLEM {problem}")
    for name, m in metrics.items():
        note = f"  (p{percentile} of {len(latencies)} operations)" if name == "op_tail_s" else ""
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
