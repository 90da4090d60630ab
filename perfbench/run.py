"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload train-1hop --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``.  One process, one thread, one BLAS thread.  With ``--trace 0`` the
result carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it carries the per-layer metrics of a traced run.  Earlier stdout lines
record the environment and details; see perfbench/NOTES.md.
"""

from __future__ import annotations

import os

# must precede the first numpy import, which fixes the BLAS thread pool
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per run; setup_s is their median

# the openblas symbol names of the numpy wheels, newest first
_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                "openblas_get_config64_", "openblas_get_config")


def blas_info() -> tuple[int | None, str]:
    """(threads in effect, OpenBLAS config string) of the OpenBLAS that
    numpy loaded, or (None, reason) when it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREADS:
            if hasattr(lib, sym):
                threads = getattr(lib, sym)
                threads.restype = ctypes.c_int
                config = next((getattr(lib, c) for c in _BLAS_CONFIG if hasattr(lib, c)), None)
                text = ""
                if config is not None:
                    config.restype = ctypes.c_char_p
                    text = config().decode()
                return threads(), text
    return None, f"no OpenBLAS thread query in {libs or 'the loaded libraries'}"


def environment() -> dict:
    import numpy

    threads, blas = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas,
        "blas_threads": threads,
    }


class Harness:
    """Runs CLI commands and keeps the run's operation and check tallies."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def cli(self, *argv) -> bool:
        """``qrewrite <argv>`` in process; False (and counted as failed) on
        a non-zero exit or an exception."""
        from qrewrite import cli

        argv = [str(a) for a in argv]
        self.attempted += 1
        span = (self.tracer.span("cli." + argv[0].replace("-", "_"))
                if self.tracer else contextlib.nullcontext())
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:  # a crash is an operation failure, not a benchmark crash
            traceback.print_exc()
            rc = -1
        if rc != 0:
            self.failed += 1
            self.check(False, f"qrewrite {' '.join(argv)} exited {rc}")
        return rc == 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)
            print(f"check failed: {message}", file=sys.stderr)


def timed_ops(h: Harness, workload, seconds: float, min_ops: int, start_index: int = 0):
    """Operations until ``seconds`` have passed, each with the mean of the
    reference kernel times just before and just after it."""
    from perfbench.hostspeed import reference_s

    ops = []
    deadline = time.perf_counter() + seconds
    before = reference_s()
    while len(ops) < min_ops or time.perf_counter() < deadline:
        op = workload.op(h, start_index + len(ops))
        after = reference_s()
        op.ref_s = (before + after) / 2
        before = after
        ops.append(op)
    return ops


def at_ref(wall: float, ref: float) -> float:
    """``wall`` seconds scaled to the host speed at which the reference
    kernel takes its nominal time."""
    from perfbench.hostspeed import NOMINAL_S

    return wall * NOMINAL_S / ref


def median_rate(ops, count, wall) -> float:
    good = [count(o) / wall(o) for o in ops if o.ok and wall(o) > 0]
    return statistics.median(good) if good else 0.0


def run(args, env: dict) -> dict:
    from perfbench.hostspeed import reference_s
    from perfbench.workloads import make_workloads

    workload = make_workloads()[args.workload]
    work = ROOT / "perfbench" / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    h = Harness(args.seed)
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
    info: dict = {"workload": args.workload, "seed": args.seed, "environment": env}
    setups, setup_refs, base, ops = [], [], [], []
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            h.tracer = tracer
            before = reference_s()
            for i in range(SETUPS):
                t0 = time.perf_counter()
                ok = workload.setup(h, work / f"setup{i}")
                setups.append(time.perf_counter() - t0)
                after = reference_s()
                setup_refs.append((before + after) / 2)
                before = after
                if not ok:
                    break
            h.tracer = None
        if ok and not tracer:
            ops = timed_ops(h, workload, args.seconds, min_ops=3)
        elif ok:
            # untraced operations first, as the base of the overhead figure
            base = timed_ops(h, workload, args.seconds / 3, min_ops=2)
            tracer.phase = "run"
            with tracer.installed():
                h.tracer = tracer
                ops = timed_ops(h, workload, 2 * args.seconds / 3, min_ops=2,
                                start_index=len(base))
                h.tracer = None
        quality, details = workload.finish(h)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update(details)
    info.update({
        "operations": len(ops),
        "items_per_op": ops[0].items if ops else 0,
        "tokens_per_op": ops[0].tokens if ops else 0,
        "tokens_per_s": median_rate(ops, lambda o: o.tokens, lambda o: o.model_wall_s),
        "op_wall_s": [o.wall_s for o in ops if o.ok],
        "op_ref_s": [o.ref_s for o in ops if o.ok],
        "examples_per_s": median_rate(ops, lambda o: o.items, lambda o: o.wall_s),
        "setup_s_all": setups,
        "setup_s_raw": statistics.median(setups) if setups else 0.0,
        "setup_ref_s": setup_refs,
        "errors": h.errors[:20],
    })
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(map(at_ref, setups, setup_refs)), "s"),
            "examples_per_s_at_ref": (median_rate(ops, lambda o: o.items,
                                                  lambda o: at_ref(o.wall_s, o.ref_s)), "1/s"),
            "quality": (quality, "score"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((h.attempted - h.failed) / max(h.attempted, 1), "frac"),
        }
    else:
        traced = [at_ref(o.wall_s, o.ref_s) for o in ops if o.ok]
        untraced = [at_ref(o.wall_s, o.ref_s) for o in base if o.ok]
        metrics = tracer.layer_metrics(len(setups), len(ops), ops[0].items if ops else 0)
        overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0
                    if traced and untraced else 0.0)
        metrics["trace.overhead_frac"] = (overhead, "frac")
        info["self_time"] = tracer.self_times()
        info["untraced_op_wall_s"] = [o.wall_s for o in base if o.ok]
        info["untraced_op_ref_s"] = [o.ref_s for o in base if o.ok]
        out = ROOT / "perfbench" / "work" / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(out)
        info["trace_file"] = str(out.relative_to(ROOT))
    print(json.dumps({"info": info}, sort_keys=True))
    return {
        "correct": not h.errors and h.failed == 0,
        "attempted": max(h.attempted, 1),
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-1hop", "train-multihop", "generate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qrewrite" / "__init__.py").is_file():
        print(f"no qrewrite sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    env = environment()
    if env["blas_threads"] != 1:
        print(f"refusing to run: BLAS threads in effect {env['blas_threads']!r} "
              f"({env['openblas']}), need 1", file=sys.stderr)
        return 2
    result = run(args, env)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
