"""Closed-loop benchmark of the q8sculpt command line.

    python3 bench/run.py --workload demo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client starts `python -m q8sculpt`
subprocesses one after another, each only after the previous one exited,
cycling through `check-seed`, `generate --format obj`,
`generate --format stl` and `verify` on the workload's input, with one
`--version` start per cycle.  Every output is checked.  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` a separate in-process pass records
spans around the program's public functions (see spans.py) and the object
carries the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer, instrumented

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COMMANDS = ("check_seed", "generate_obj", "generate_stl", "verify")
SETUP_STARTS = 5  # `--version` starts before the first cycle
# On a shared host each CPU switches on its own between a fast and a slower
# phase, and whole minutes can run 2-3 times slower.  Every timed invocation
# is therefore pinned to one CPU (taking the CPUs in turn) and its wall time
# is rescaled to the speed at which probe() takes PROBE_REF_S on that CPU,
# using the mean of a probe just before and one just after it.
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.010
SMOKE_SETUP_STARTS = 2
INVOCATION_TIMEOUT_S = 150.0
DIAG = re.compile(r"q8sculpt: error: verification-failure: \S.*")
VERSION = re.compile(r"q8sculpt \d+\.\d+\.\d+\n")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Invocation:
    seconds: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str


class Checker:
    """Counts invocations and the ones whose outputs are not as expected."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self._digests: dict[str, str] = {}

    def record(self, label: str, problems: list[str], digest: str) -> None:
        self.attempted += 1
        first = self._digests.setdefault(label, digest)
        if digest != first:
            problems = problems + ["outputs differ from the first invocation"]
        if problems:
            self.problems.append(f"{label} #{self.attempted}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.problems)


def argv_for(command: str, wl: workloads.Workload, inv_dir: Path, cloud: Path) -> list[str]:
    if command == "version":
        return ["--version"]
    if command == "check_seed":
        return ["check-seed", "--seed", wl.seed_path, "--out", str(inv_dir / "report.json")]
    if command == "verify":
        return ["verify", "--cloud", str(cloud), "--out", str(inv_dir / "report.json")]
    fmt = command.rpartition("_")[2]
    return ["generate", "--seed", wl.seed_path, "--out", str(inv_dir / "out"), "--format", fmt]


def fresh(inv_dir: Path) -> Path:
    shutil.rmtree(inv_dir, ignore_errors=True)
    inv_dir.mkdir(parents=True)
    return inv_dir


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_subprocess(argv: list[str], inv_dir: Path) -> Invocation:
    """Wall time, exit code and this child's own peak RSS (from wait4)."""
    with open(inv_dir / "stdout", "wb") as out, open(inv_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "q8sculpt", *argv], cwd=ROOT, env=child_env(), stdout=out, stderr=err
        )
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        elapsed,
        proc.returncode,
        usage.ru_maxrss / 1024.0,
        (inv_dir / "stdout").read_text(),
        (inv_dir / "stderr").read_text(),
    )


def run_in_process(argv: list[str]) -> Invocation:
    from q8sculpt.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return Invocation(elapsed, code, 0.0, out.getvalue(), err.getvalue())


def check(command: str, wl: workloads.Workload, inv: Invocation, inv_dir: Path) -> tuple[list[str], str]:
    """Problems with one invocation's outputs, and a digest of all of them."""
    exp = wl.expected
    problems: list[str] = []
    want_exit = {"check_seed": exp.check_seed_exit, "verify": exp.verify_exit}.get(command, 0)
    if inv.exit_code != want_exit:
        problems.append(f"exit {inv.exit_code}, expected {want_exit}")
    if want_exit == 0 and inv.stderr:
        problems.append(f"unexpected stderr {inv.stderr[:200]!r}")
    if want_exit != 0 and (inv.stderr.count("\n") != 1 or not DIAG.fullmatch(inv.stderr.rstrip("\n"))):
        problems.append(f"stderr is not one diagnostic line: {inv.stderr[:200]!r}")
    try:
        if command == "version":
            if not VERSION.fullmatch(inv.stdout):
                problems.append(f"version output {inv.stdout!r}")
        elif command == "check_seed":
            report = json.loads((inv_dir / "report.json").read_text())
            if report["asymmetric"] != exp.check_seed_asymmetric or report["passed"] != (want_exit == 0):
                problems.append(f"check-seed report {report['asymmetric']=} {report['passed']=}")
        elif command == "verify":
            report = json.loads((inv_dir / "report.json").read_text())
            got = (report["candidates_tested"], report["symmetry_count"], report["chirality"], report["is_exactly_q8"])
            want = (384, exp.symmetry_count, exp.chirality, exp.verify_exit == 0)
            if got != want:
                problems.append(f"verify report {got}, expected {want}")
        else:
            problems += check_generate(command.rpartition("_")[2], wl, inv, inv_dir / "out")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    digest = hashlib.sha256(f"{inv.exit_code}\0{inv.stdout}\0{inv.stderr}".encode())
    for path in sorted(p for p in inv_dir.rglob("*") if p.is_file() and p.name not in ("stdout", "stderr")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return problems, digest.hexdigest()


def check_generate(fmt: str, wl: workloads.Workload, inv: Invocation, out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    files = sorted(p.name for p in out.iterdir())
    want_files = sorted([f"part_{p['element']}.{fmt}" for p in manifest["parts"]] + [f"merged.{fmt}", "cloud.json", "manifest.json"])
    if files != want_files or len(manifest["parts"]) != 8:
        problems.append(f"output files {files}")
    if inv.stdout != f"wrote {len(files)} files to {out}\n":
        problems.append(f"stdout {inv.stdout!r}")
    merged = manifest["merged"]
    got = (manifest["format"], manifest["cloud_points"], merged["vertices"], merged["triangles"])
    want = (fmt, wl.expected.cloud_points, 8 * wl.vertices, 8 * wl.triangles)
    if got != want:
        problems.append(f"manifest {got}, expected {want}")
    if fmt == "stl" and (out / "merged.stl").stat().st_size != 84 + 50 * merged["triangles"]:
        problems.append("merged.stl size does not match its triangle count")
    return problems


def summarize(scaled: list[float], wall: list[float]) -> dict:
    """Median of the speed-scaled samples (as "value"), the median wall
    time, the sample count, and the highest listed percentile that has at
    least ten samples beyond it (None when the run has too few)."""
    ordered = sorted(scaled)
    n = len(ordered)
    summary = {
        "value": statistics.median(ordered),
        "wall_median": statistics.median(wall),
        "samples": n,
        "percentile": None,
        "scaled": scaled,
        "wall": wall,
    }
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            summary["percentile"] = {"p": p, "value": ordered[min(n - 1, int(n * p / 100))]}
            break
    return summary


def probe() -> float:
    """Best of three timings of a fixed pure-Python loop: the current speed
    of the CPU this process runs on."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i
        best = min(best, time.perf_counter() - start)
    return best


def closed_loop(seconds: float, body) -> None:
    """Run ``body`` (one cycle over COMMANDS) until the next cycle would end
    after the deadline; always at least one cycle."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        body()
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.fmean(durations) > deadline:
            return


def end_to_end(wl, work: Path, cloud: Path, seconds: float, smoke: bool, checker: Checker) -> dict:
    wall: dict[str, list[float]] = {"version": [], **{c: [] for c in COMMANDS}}
    scaled: dict[str, list[float]] = {c: [] for c in wall}
    peak_rss = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    next_cpu = itertools.cycle(cpus)

    def invoke(command: str) -> None:
        nonlocal peak_rss
        # The child inherits this pinning, so the probes time the CPU it runs on.
        os.sched_setaffinity(0, {next(next_cpu)})
        inv_dir = fresh(work / command)
        before = probe()
        inv = run_subprocess(argv_for(command, wl, inv_dir, cloud), inv_dir)
        after = probe()
        checker.record(command, *check(command, wl, inv, inv_dir))
        wall[command].append(inv.seconds)
        scaled[command].append(inv.seconds * PROBE_REF_S / ((before + after) / 2))
        peak_rss = max(peak_rss, inv.rss_mb)

    try:
        for _ in range(SMOKE_SETUP_STARTS if smoke else SETUP_STARTS):
            invoke("version")

        def cycle() -> None:
            for command in ("version", *COMMANDS):
                invoke(command)

        closed_loop(seconds, cycle)
    finally:
        os.sched_setaffinity(0, cpus)
    stats = {f"{c}_s": summarize(scaled[c], wall[c]) for c in COMMANDS}
    stats["setup_s"] = summarize(scaled["version"], wall["version"])
    stats["peak_rss_mb"] = {"value": peak_rss, "samples": sum(map(len, wall.values())), "percentile": None}
    return stats


def check_generate_decomposition(last_call: dict) -> list[str]:
    """generate_sculpture == eight transform_mesh legs, scaled, then merged."""
    from q8sculpt.mesh_pipeline import merge_meshes, transform_mesh
    from q8sculpt.quat import Q8_ELEMENTS

    (seed, pole, scale), bundle = last_call["mesh_pipeline.generate_sculpture"]
    parts = [transform_mesh(seed, g, pole).scaled(scale) for g in Q8_ELEMENTS]
    merged = merge_meshes(parts)
    same = all(
        np.array_equal(a.vertices, b.vertices) and np.array_equal(a.triangles, b.triangles)
        for a, b in zip([*parts, merged], [*bundle.parts.values(), bundle.merged])
    )
    return [] if same else ["generate_sculpture differs from its decomposition"]


def check_verify_decomposition(last_call: dict) -> list[str]:
    """symmetry_group == surviving_candidates, then classify_chirality on them."""
    from q8sculpt.symmetry import classify_chirality, surviving_candidates

    (cloud, tol), report = last_call["symmetry.symmetry_group"]
    survivors = surviving_candidates(cloud, tol)
    chirality = classify_chirality(cloud, tol, survivors=survivors)
    same = [s.key() for s in survivors] == [s.key() for s in report.symmetries] and chirality == report.chirality
    return [] if same else ["symmetry_group differs from its decomposition"]


def traced(wl, work: Path, cloud: Path, seconds: float, checker: Checker) -> tuple[dict, Tracer]:
    """Per command: a subprocess, an untraced in-process ``cli.main`` and a
    traced one.  The first cycle also checks the composite calls against
    their decompositions."""
    tracer = Tracer()
    times: dict[tuple[str, str], list[float]] = {}
    invocations: dict[int, tuple[int, str]] = {}  # invocation id -> (cycle, command)
    cycle_no = 0

    def cycle() -> None:
        nonlocal cycle_no
        for command in COMMANDS:
            inv_dir = work / command
            argv = argv_for(command, wl, inv_dir, cloud)
            # Alternate which in-process run goes first, so that neither
            # always pays for the caches the subprocess left cold.
            modes = ("in_process", "traced") if cycle_no % 2 == 0 else ("traced", "in_process")
            for mode in ("subprocess", *modes):
                fresh(inv_dir)
                if mode == "subprocess":
                    inv = run_subprocess(argv, inv_dir)
                elif mode == "in_process":
                    inv = run_in_process(argv)
                else:
                    tracer.invocation += 1
                    invocations[tracer.invocation] = (cycle_no, command)
                    with instrumented(tracer):
                        with tracer.span(f"cli.{'generate' if command.startswith('generate') else command}"):
                            inv = run_in_process(argv)
                problems, digest = check(command, wl, inv, inv_dir)
                if mode == "traced" and cycle_no == 0 and command in ("generate_obj", "verify"):
                    decompose = check_generate_decomposition if command == "generate_obj" else check_verify_decomposition
                    problems += decompose(tracer.last_call)
                checker.record(command, problems, digest)
                times.setdefault((mode, command), []).append(inv.seconds)
        cycle_no += 1

    closed_loop(seconds, cycle)
    return layer_metrics(tracer, invocations, times), tracer


def layer_metrics(tracer: Tracer, invocations: dict, times: dict) -> dict:
    """Per-cycle totals of every span name, then the median over cycles."""
    self_s = tracer.self_seconds()
    cycles: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        cycle, command = invocations[span.invocation]
        acc = cycles.setdefault(cycle, {})
        name = span.name

        def add(key: str, value: float) -> None:
            acc[key] = acc.get(key, 0.0) + value

        add(f"{name}.s", span.seconds)
        add(f"{name}.self_s", self_s[span.id])
        add(f"{name}.calls", 1)
        for key, value in span.counts.items():
            add(f"{name}.{key}", value)
        if name == "symmetry.min_pairwise_distance" and command == "verify":
            add("guard.s", span.seconds)
            add("guard.calls", 1)
    for acc in cycles.values():
        # The eight products lifted @ q8_right_matrix_int(g): what remains of
        # unprojected_part_points once its radial_to_s3 child is taken out.
        acc["quat.right_mul.s"] = acc["mesh_pipeline.unprojected_part_points.self_s"]
        acc["symmetry.min_pairwise_distance.s"] = acc["guard.s"] / acc["guard.calls"]
        tested = acc["symmetry.candidates_tested"] = acc["symmetry.symmetry_group.candidates_tested"]
        survivors = acc["symmetry.survivors"] = acc["symmetry.symmetry_group.survivors"]
        acc["symmetry.survivor_ratio"] = survivors / tested
    # A name that a cycle never reached counts 0 there; one that no cycle
    # reached is missing and fails the run.
    names = set().union(*cycles.values())
    metrics = {key: statistics.median(acc.get(key, 0.0) for acc in cycles.values()) for key in names}

    def median_of(mode: str, command: str) -> float:
        return statistics.median(times[(mode, command)])

    metrics["cli.process_overhead_s"] = statistics.median(
        median_of("subprocess", c) - median_of("in_process", c) for c in COMMANDS
    )
    metrics["trace.overhead_s"] = sum(median_of("traced", c) - median_of("in_process", c) for c in COMMANDS)
    return metrics


def environment(seed: int) -> dict:
    """Enough to tell results from different machines apart."""
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "workload_seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "q8sculpt" / "__init__.py").is_file():
        print(f"bench: no q8sculpt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
    work = fresh(ROOT / ".bench_work" / tag)
    wl = workloads.build(args.workload, args.seed, work, "smoke" if args.smoke else "full")

    # Set-up, untimed: the program's own generate makes the cloud to verify.
    checker = Checker()
    setup_dir = fresh(work / "setup")
    argv = argv_for("generate_obj", wl, setup_dir, Path())
    setup = run_subprocess(argv, setup_dir)
    checker.record("setup_generate", *check("generate_obj", wl, setup, setup_dir))
    cloud = work / "cloud.json"
    shutil.copyfile(setup_dir / "out" / "cloud.json", cloud)

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in listed]
    units = {m["name"]: m["unit"] for m in listed}
    if args.trace:
        metrics, tracer = traced(wl, work, cloud, args.seconds, checker)
        tracer.write(work / "spans.jsonl")
        summary = {name: {"value": metrics[name]} for name in names}
    else:
        summary = end_to_end(wl, work, cloud, args.seconds, args.smoke, checker)

    error_rate = checker.failed / checker.attempted
    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    print("sizes: " + ", ".join(f"{k}={v}" for k, v in wl.sizes().items()))
    print(f"{'metric':48} {'value':>14} {'unit':7} {'n':>4}  {'wall median':>12}  highest percentile")
    for name in names:
        s = summary[name]
        pct = s.get("percentile")
        tail = f"p{pct['p']:g}={pct['value']:.6g}" if pct else "-"
        wall_median = f"{s['wall_median']:12.6g}" if "wall_median" in s else f"{'-':>12}"
        print(f"{name:48} {s['value']:14.6g} {units[name]:7} {s.get('samples', ''):>4}  {wall_median}  {tail}")
    print(f"{'error_rate':48} {error_rate:14.6g} {'ratio':7} {checker.attempted:>4}")
    for problem in checker.problems:
        print(f"FAILED {problem}")

    result = {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": summary[name]["value"], "unit": units[name]} for name in names},
    }
    record = {
        "workload": wl.name,
        "why": wl.why,
        "sizes": wl.sizes(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "error_rate": error_rate,
        "problems": checker.problems,
        "summary": summary,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
