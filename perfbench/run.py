"""Benchmark pccorrupt end to end through its CLI, in one process.

    python3 perfbench/run.py --workload gen_mesh --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory and nowhere else.  The run sets up its inputs from
`--seed` several times, then runs closed-loop rounds of the workload's
commands until `--seconds` have passed, checking every round's output.
Untraced rounds run the speed probe (probe.py); the time metrics are
medians of wall times scaled by the probe's median, so that the host's
drift in speed cancels.  With `--trace 1` untraced and traced rounds
alternate; traced rounds record spans around each layer's entry points
and yield the per-layer metrics.

Standard output ends with two JSON lines: a report (the workload's own
metrics with units, output fingerprints, the refusal base and the
context) and the result, whose metrics are the `end_to_end` ones of
BENCHMARK.json, or the `per_layer` ones with `--trace 1`.  Scratch files
go to `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
from statistics import median
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats: at least SETUPS_MIN and SETUP_SECONDS in total, at most SETUPS_MAX
SETUPS_MIN, SETUPS_MAX, SETUP_SECONDS = 5, 25, 1.0
SETUP_PROBES = 3  # speed probes before each set-up


def load_program():
    """Import pccorrupt from this checkout's src/ or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pccorrupt

    if not Path(pccorrupt.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"pccorrupt was imported from {pccorrupt.__file__}, not {src}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + name)), None)


def context() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "src_lines": src_lines,
        "git_commit": git_commit(),
    }


def blas_peak_gflops(reps: int = 5) -> float:
    """Best-of-reps rate of one matmul shaped like the widest network layer
    on a 32-cloud x 1024-point batch."""
    import numpy as np
    from spans import point_layer_shapes

    k, n = max(point_layer_shapes(), key=lambda kn: kn[0] * kn[1])
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((32 * 1024, k)), rng.standard_normal((k, n))
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * a.shape[0] * k * n / best / 1e9


def main_thread_cpu() -> tuple[float, float]:
    """User and system CPU seconds of the calling thread so far."""
    fields = Path("/proc/thread-self/stat").read_text().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick


def guarded_round(workload, work, out, tracer=None, probe=None):
    from workloads import Round

    out.mkdir(exist_ok=True)
    user, system = main_thread_cpu()
    try:
        rnd = workload.round(work, out, tracer, probe)
    except Exception:  # noqa: BLE001 - a crash is a failed check, reported
        return Round(problems=[traceback.format_exc()])
    after = main_thread_cpu()
    rnd.main_cpu = (after[0] - user, after[1] - system)
    return rnd


def measure(workload, work: Path, out: Path, seconds: float, trace: bool):
    """Closed-loop rounds until `seconds` pass; with trace, every other
    round is traced (at least one of each).  Untraced rounds run the
    speed probe; traced rounds do not.

    Every round writes to `out`, over the files of the round before, as
    a user re-running a command into the same directory does.  Nothing is
    deleted between rounds: on the ext4 disk the benchmark was tuned on,
    creating a file cost 6-30 times the kernel time of rewriting one, and
    that cost swung up to 10-fold from minute to minute, so after the
    first round the rounds measure the program more than the file system."""
    from probe import Probe
    from spans import Tracer, instrument

    tracer = Tracer() if trace else None
    probe = Probe()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            tracer.run = f"{workload.name}/round{len(plain) + len(traced)}"
            with instrument(tracer):
                traced.append(guarded_round(workload, work, out, tracer))
        else:
            plain.append(guarded_round(workload, work, out, probe=probe))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            return plain, traced, tracer, probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        load_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    from probe import REF_S, Probe
    from spans import layer_metrics
    from workloads import WORKLOADS, fresh_dir

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work"
    root = fresh_dir(scratch / workload.name)
    os.sync()  # settle the deletion of any leftovers before timing
    problems: list[str] = []

    # every set-up writes to the same directory, over the one before
    work = root / "setup"
    setup_times, setup_prints, setup_probe = [], [], Probe()
    while len(setup_times) < SETUPS_MIN or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUPS_MAX
    ):
        for _ in range(SETUP_PROBES):
            setup_probe.run()
        start = time.perf_counter()
        commands = workload.setup(work, args.seed)
        setup_times.append(time.perf_counter() - start)
        problems += [f"setup {c.label} exit code {c.rc}" for c in commands if c.rc != 0]
        setup_prints.append(workload.check_setup(work, problems))
    if any(p != setup_prints[0] for p in setup_prints):
        problems.append(f"set-up outputs differ between repeats: {setup_prints}")

    plain, traced, tracer, probe = measure(workload, work, root / "out",
                                           args.seconds, bool(args.trace))
    rounds = plain + traced
    for i, rnd in enumerate(rounds):
        problems += [f"round {i}: {p}" for p in rnd.problems]
    prints = rounds[0].fingerprints
    if any(r.fingerprints != prints for r in rounds):
        problems.append("output fingerprints differ between rounds: "
                        f"{[r.fingerprints for r in rounds]}")

    correct = not problems
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refused, per_round = rounds[0].refusals, rounds[0].ops
    # a round that crashed before its first command returned counts as one op
    attempted = max(1, sum(r.ops for r in rounds))
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops_failed_frac": {"value": refused / max(per_round, 1), "failed": refused,
                            "attempted": per_round, "per": "round"},
        "fingerprints": {**setup_prints[0], **prints},
        "probe": {"ref_s": REF_S,
                  "setup": {"median_s": setup_probe.median(), "count": len(setup_probe.times)},
                  "rounds": {"median_s": probe.median(), "count": len(probe.times)}},
        "context": context(),
    }
    metrics = {}
    if correct:
        own = {
            "round_wall_s": ([r.wall for r in plain], "s"),
            # CPU time of the main thread in a round, checks included
            "round_main_user_s": ([r.main_cpu[0] for r in plain], "s"),
            "round_main_sys_s": ([r.main_cpu[1] for r in plain], "s"),
            **workload.report(plain),
        }
        report["metrics"] = {
            name: {"value": median(samples), "unit": unit, "samples": samples}
            for name, (samples, unit) in own.items()
        }
        round_wall_s = report["metrics"]["round_wall_s"]["value"]
        setup_wall_s = median(setup_times)
        report["metrics"]["setup_wall_s"] = {"value": setup_wall_s, "unit": "s",
                                             "samples": setup_times}
        report["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        # wall times scaled to a machine on which the probe takes REF_S
        values = {
            "round_ref_s": round_wall_s * REF_S / probe.median(),
            "setup_s": setup_wall_s * REF_S / setup_probe.median(),
            "peak_rss_mb": peak_rss_mb,
        }
        if args.trace:
            untraced_round_s = round_wall_s
            values = layer_metrics(tracer.spans, len(traced))
            values["pipeline.bytes_written"] = prints.get("bytes_written", 0)
            values["pipeline.cells_failed"] = refused
            values["blas.peak_gflops"] = blas_peak_gflops()
            values["trace_overhead_frac"] = (
                median(r.wall for r in traced) / untraced_round_s - 1.0
            )
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = {m["name"] for m in wanted} - set(values)
        if missing:
            raise KeyError(f"metrics not computed: {sorted(missing)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    if tracer is not None:
        tracer.dump(scratch / f"{workload.name}.spans.jsonl")
    shutil.rmtree(root, ignore_errors=True)
    os.sync()  # so the next run does not pay for this deletion
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
