"""perfbench: the camloc benchmark.

    python3 perfbench/run.py --workload {train,eval_grid,cli_pipeline} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a camloc checkout; the program is imported from its
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The environment, the workload's own metric names and every
digest also go to ``.perfbench_out/`` in the checkout. See README.md.
"""

import os

# Fixed before numpy loads: one BLAS thread on every machine, so a run does
# not compete with itself for the cores, and the count is the same everywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("train", "eval_grid", "cli_pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# environment


def blas_threads_in_effect():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout read from ``.git``, or None outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256():
    """Digest of the program's source, which identifies it without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "camloc").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def environment(load_at_start):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "loadavg_at_start": list(load_at_start),
        # A second busy process slows a run by up to 10x (ROADMAP). Back-to-back
        # runs keep the 1-minute load near 1 by themselves, hence the margin.
        "loaded_at_start": load_at_start[0] > nproc - 0.5,
    }


# ---------------------------------------------------------------------------
# machine speed reference
#
# The host this benchmark was sized on is a 2-vCPU KVM guest whose speed
# drifts by up to 2x over tens of seconds while other guests run: identical
# calls take 380 ms in one stretch and 750 ms in the next. A fixed loop that
# does not touch camloc, of the same kind of work (a 64x576 @ 576x64 float32
# GEMM, small elementwise and argmax ops, Python dict churn), runs before
# and after every set-up and every round. The end-to-end times of each are
# scaled by REFERENCE_S over the mean of those two reference times, so they
# read as wall time on a machine where the loop takes REFERENCE_S. A change
# to the program cannot move the reference; a slow stretch of the host
# moves both. The unscaled wall times are printed and recorded beside them.

REFERENCE_S = 0.05
REFERENCE_ITERATIONS = 200


def reference_seconds():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 576)).astype(np.float32)
    b = rng.standard_normal((576, 64)).astype(np.float32)
    x = rng.standard_normal((16, 32, 32)).astype(np.float32)
    start = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        c = a @ b
        y = np.maximum(x, 0.0).reshape(16, 16, 2, 16, 2).transpose(0, 1, 3, 2, 4).reshape(16, 16, 16, 4)
        index = y.argmax(axis=-1)
        total += float(np.take_along_axis(y, index[..., None], axis=-1).sum() + c[0, 0])
        total += sum({j: j * i for j in range(20)}.values())
    elapsed = time.perf_counter() - start
    if not np.isfinite(total):
        raise RuntimeError("reference loop produced a non-finite value")
    return elapsed


# ---------------------------------------------------------------------------
# measurement


def round_ms_per_sample(calls, scales, samples_per_round):
    """Median time of each kind of call, summed over a round, per sample.

    ``scales[call.unit]`` multiplies each call's time (see the reference)."""
    by_key = {}
    for call in calls:
        by_key.setdefault(call.key, []).append(call.seconds * scales[call.unit])
    return sum(statistics.median(v) for v in by_key.values()) / samples_per_round * 1e3


def check_digests(calls, prefix):
    """Fail every call whose output digest differs from the first one recorded
    under ``prefix`` and its call kind in this checkout, earlier runs
    included. Returns the digests under ``prefix``."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    for call in calls:
        if call.error:
            continue
        key = f"{prefix}:{call.key}"
        expected = known.setdefault(key, call.digest)
        if call.digest != expected:
            call.error = f"output digest {call.digest[:12]} differs from {expected[:12]} (same code and seed)"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return {k: v for k, v in known.items() if k.startswith(f"{prefix}:")}


def run(args):
    load_at_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import camloc

    if Path(camloc.__file__).resolve().parent != SRC / "camloc":
        raise RuntimeError(f"imported camloc from {camloc.__file__}, not from {SRC}")
    from tracer import Tracer, layer_metrics, write_spans
    from workloads import WORKLOADS

    env = environment(load_at_start)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["loaded_at_start"]:
        print(f"warning: machine loaded at start (loadavg {load_at_start[0]:.2f} on {env['nproc']} cpus)")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK)
    tracer = Tracer() if args.trace else None
    problems = []

    # Set-ups, then rounds until the time is up; with tracing, odd rounds are
    # traced. Each set-up or round is a unit, bracketed by reference timings.
    references = []
    setup_times, setup_digests = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        gc.collect()
        references.append(reference_seconds())
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            setup_digests.append(workload.setup())
            setup_times.append(time.perf_counter() - start)
    if len(set(setup_digests)) != 1:
        problems.append(f"set-up repeats differ: {setup_digests}")
    setup_trace = tracer.take() if tracer else None

    calls, traced_calls = [], []
    rounds = traced_rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and rounds % 2 == 1
        gc.collect()
        references.append(reference_seconds())
        with tracer.installed() if traced else contextlib.nullcontext():
            done = workload.run_round()
        for call in done:
            call.unit = len(references) - 1
        (traced_calls if traced else calls).extend(done)
        traced_rounds += traced
        rounds += 1
    references.append(reference_seconds())
    # scale of each unit: REFERENCE_S over the mean of its two references
    scales = [2 * REFERENCE_S / (before + after) for before, after in zip(references, references[1:])]
    unscaled = [1.0] * len(scales)

    everything = calls + traced_calls
    # one source, workload and seed must always give the same outputs
    digests = check_digests(everything, f"{env['src_sha256'][:16]}:{args.workload}:{args.seed}")
    failed = [c for c in everything if c.error]
    for call in failed[:5]:
        print(f"failed: {call.key}: {call.error}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    ok_calls = [c for c in calls if not c.error] or calls
    wall_ms_per_sample = round_ms_per_sample(ok_calls, unscaled, workload.samples_per_round)
    end_to_end = {
        "ms_per_sample": (round_ms_per_sample(ok_calls, scales, workload.samples_per_round), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(t * k for t, k in zip(setup_times, scales)), "s"),
    }
    # the workload's own names, on the same scale, then the unscaled times
    named = {"failed_frac": (len(failed) / len(everything), "ratio")}
    if args.workload == "cli_pipeline":
        for key in ("gen_data", "train", "eval", "visualize"):
            kind = [c.seconds * scales[c.unit] for c in ok_calls if c.key == key]
            named[f"cli.{key}_s"] = (statistics.median(kind) if kind else float("nan"), "s")
    else:
        named[f"{args.workload.split('_')[0]}.ms_per_sample"] = end_to_end["ms_per_sample"]
    named["wall.ms_per_sample"] = (wall_ms_per_sample, "ms")
    named["wall.setup_s"] = (statistics.median(setup_times), "s")
    named["reference_ms"] = (statistics.median(references) * 1e3, "ms")

    if tracer:
        ops_trace = tracer.take()
        metrics = layer_metrics(setup_trace, ops_trace, traced_rounds)
        traced_ms = round_ms_per_sample(
            [c for c in traced_calls if not c.error] or traced_calls, scales, workload.samples_per_round
        )
        metrics["trace.overhead_pct"] = ((traced_ms / end_to_end["ms_per_sample"][0] - 1) * 100, "%")
        write_spans(ops_trace, OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        shown = {"failed_frac": named["failed_frac"], **metrics}
    else:
        metrics = end_to_end
        shown = {**named, **metrics}

    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"rounds={rounds} traced_rounds={traced_rounds} calls={len(everything)} failed={len(failed)}")

    result = {
        "correct": not failed and not problems,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "args": vars(args),
        "env": env,
        "rounds": rounds,
        "traced_rounds": traced_rounds,
        "setup_times_s": setup_times,
        "reference_s": references,
        "calls": [[c.key, c.seconds, c.unit, c.error] for c in everything],
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        "digests": digests,
        "result": result,
    }
    out_name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / out_name).write_text(json.dumps(record, indent=1))
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "camloc" / "__init__.py").is_file():
        print(f"perfbench: no camloc sources at {SRC / 'camloc'}; run from a camloc checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
