"""rte-tomo benchmark: seeded CLI workloads timed in-process.

    python3 perfbench/run.py --workload forward-scatter --seed 0 \
        --seconds 35 --trace 0

One client runs a closed loop: the workload's commands run one after the
other through ``rte_tomo.cli.main`` in this process, pass after pass, until
the next pass would overrun ``--seconds``.  Every command's output goes
through the gate in gate.py.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics from the traced ones.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
from workloads import (HELD_OUT_VARIANT, SHORT_COMMANDS, WORKLOADS,  # noqa: E402
                       variant_of, write_config)


def pin_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def import_cli():
    """Import rte_tomo.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "rte_tomo" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no rte_tomo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rte_tomo.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "rte_tomo":
        raise SystemExit(f"perfbench: imported rte_tomo from {cli.__file__}")
    return cli


# ---------------------------------------------------------------------------
# environment record (read only)
# ---------------------------------------------------------------------------


def live_blas_threads():
    """OpenBLAS threads in effect, read from numpy's bundled library."""
    import ctypes
    import glob
    import numpy
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def steal_ticks():
    """Cumulative CPU-steal ticks of the machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            parts = fh.readline().split()
    except OSError:
        return -1
    return int(parts[8]) if parts[0] == "cpu" and len(parts) > 8 else -1


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed, variant):
    import numpy
    import scipy
    import platform
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": live_blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "variant": variant,
        "held_out_variant": HELD_OUT_VARIANT,
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def measure_setup(workload, seed, out_dir):
    """Median time from spawning a fresh process until it has imported the
    package and written the config, as the probe reports it.

    The probe prints its own wall-clock time when ready, so neither its exit
    nor the parent's polling of it is counted.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload,
                               "--seed", str(seed), "--probe-dir", str(out_dir / "probe")],
                              check=True, timeout=120, capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs passes over a workload's commands and gates every output."""

    def __init__(self, cli, workload, cfg_path, out_dir, reference, tracer=None):
        self.cli = cli
        self.commands = WORKLOADS[workload].commands
        self.cfg_path = cfg_path
        self.out_dir = out_dir
        self.reference = reference
        self.tracer = tracer
        self.samples = {False: {c: [] for c in self.commands},
                        True: {c: [] for c in self.commands}}
        self.pass_s = {False: [], True: []}
        self.traced_passes = []
        self.artifacts = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = None

    def check(self, problems):
        """Count one gated operation; problems is a list of strings."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def run_pass(self, pass_id, traced):
        tracer = self.tracer
        if traced:
            tracer.pass_id = pass_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            for cmd in self.commands:
                self._command(cmd, traced)
        finally:
            if traced:
                tracer.uninstall()
        self.pass_s[traced].append(time.perf_counter() - t0)
        if traced:
            self.traced_passes.append(pass_id)
        if self.peak_rss_mb is None:
            # Users run one command per process, so the peak of the first pass
            # is theirs; later passes only add heap fragmentation.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _command(self, cmd, traced):
        out = self.out_dir / cmd
        report = out / "report.txt"
        if report.exists():
            report.unlink()
        argv = [cmd, "--config", str(self.cfg_path), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            if traced:
                status = self.tracer.call(layers.COMMAND_SPAN, self.cli.main, argv)
            else:
                status = self.cli.main(argv)
        except Exception as exc:  # a crash fails the command, not the run
            status = f"{type(exc).__name__}: {exc}"
        self.samples[traced][cmd].append(time.perf_counter() - t0)
        ref = None
        if self.reference is not None:
            ref = self.reference["values"].get(cmd, {})
        problems, artifacts = gate.check_command(
            status, report, self.artifacts.get(cmd), ref)
        if artifacts is not None and cmd not in self.artifacts:
            self.artifacts[cmd] = artifacts
        self.check([f"{cmd}: {p}" for p in problems])

    def run(self, seconds, trace):
        """Whole passes until the next would overrun; at least one of each kind."""
        t_start = time.perf_counter()
        pass_id = 0
        while True:
            traced = trace and pass_id % 2 == 1
            self.run_pass(pass_id, traced)
            pass_id += 1
            done = self.pass_s[False] + self.pass_s[True]
            elapsed = time.perf_counter() - t_start
            if (not trace or pass_id >= 2) and elapsed + statistics.median(done) > seconds:
                return


def command_medians(loop, traced):
    return {c: statistics.median(v) for c, v in loop.samples[traced].items() if v}


def end_to_end_metrics(loop, setup_s):
    meds = command_medians(loop, False)
    geomean = math.exp(statistics.fmean(
        math.log(v) for c, v in meds.items() if c not in SHORT_COMMANDS))
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(loop.pass_s[False]), "s"),
        "cmd_geomean_s": (geomean, "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MiB"),
    }


def xv_pairing_relerr(cli, cfg_path, variant):
    """Relative gap of <X f, g> and <f, X^T g> at the workload's config."""
    import numpy as np
    from rte_tomo.tomography import series_length
    from rte_tomo.transport import TransportSolver
    cfg = cli.parse_config(Path(cfg_path).read_text(encoding="utf-8"))
    geom, grid = cli.build_geometry(cfg), cli.build_grid(cfg)
    solver = TransportSolver(
        geom=geom, grid=grid, sigma=cli.build_absorption(cfg, grid, geom),
        kernel=cli.build_scattering(cfg, grid, geom), n_theta=cfg.n_theta,
        n_bdry=cfg.n_bdry, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    spec = cli.build_cutoff(cfg)
    m = series_length(solver)
    rng = np.random.default_rng(variant)
    f = rng.standard_normal((grid.n_pixels, 1))
    cot = rng.standard_normal((cfg.n_bdry, cfg.n_theta, 1))
    lhs = float(np.sum(solver.xv_apply(f, spec, m) * cot))
    rhs = float(np.sum(f * solver.xv_transpose(cot, spec, m)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


XV_PAIRING_RTOL = 1e-12


def work_facts(agg):
    """Facts of one traced pass that set the amount of work."""
    return {
        "iterations": int(agg["info"]["transport.solve.iterations"]),
        "series_length": int(agg["series_length"]),
        "assembled_cols": int(agg["info"]["tomography.assemble_xv_matrix.cols"]),
    }


def traced_pass_facts(tracer, pass_id):
    return work_facts(layers.pass_aggregates(
        [s for s in tracer.spans if s.pass_id == pass_id]))


def layer_run_metrics(loop, pairing, env):
    metrics = layers.layer_metrics(loop.tracer, loop.traced_passes)
    untraced = command_medians(loop, False)
    for name in sorted({c for w in WORKLOADS.values() for c in w.commands}):
        metrics[f"command.{name}.s"] = (untraced.get(name, 0.0), "s")
    metrics["trace.overhead_s"] = (statistics.median(loop.pass_s[True])
                                   - statistics.median(loop.pass_s[False]), "s")
    metrics["check.xv_pairing_relerr"] = (pairing, "ratio")
    metrics["env.blas_threads"] = (env["blas_threads"], "count")
    metrics["env.cpu_steal_ticks"] = (env["cpu_steal_ticks"], "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="rte-tomo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    variant = variant_of(args.seed)
    if args.setup_probe:
        import_cli()
        import scipy.ndimage  # noqa: F401
        import scipy.sparse  # noqa: F401
        write_config(args.probe_dir, args.workload, variant)
        print(repr(time.time()))
        return 0

    cli = import_cli()
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    try:
        return _run(cli, args, variant, out_dir, records)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run(cli, args, variant, out_dir, records):
    env = environment(args.seed, variant)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, out_dir)
    cfg_path = write_config(out_dir, args.workload, variant)
    reference = gate.load_references().get(args.workload, {}).get(str(variant))
    tracer = layers.Tracer() if args.trace else None
    loop = Loop(cli, args.workload, cfg_path, out_dir, reference, tracer)
    if reference is None:
        loop.check([f"no recorded reference for variant {variant}"])
    if args.trace:
        pairing = xv_pairing_relerr(cli, cfg_path, variant)
        loop.check([] if pairing <= XV_PAIRING_RTOL
                   else [f"xv pairing relative gap {pairing:.3e}"])

    steal0 = steal_ticks()
    loop.run(args.seconds, args.trace)
    env["cpu_steal_ticks"] = steal_ticks() - steal0

    if args.trace:
        for p in loop.traced_passes:
            facts = traced_pass_facts(tracer, p)
            want = reference["work"] if reference is not None else facts
            loop.check([] if facts == want
                       else [f"work facts {facts}, recorded {want}"])
        metrics = layer_run_metrics(loop, pairing, env)
    else:
        metrics = end_to_end_metrics(loop, setup_s)

    attempted, failed = loop.attempted, loop.failed
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if args.trace:
        layers.dump_spans(tracer, records / f"{stem}.spans.jsonl")
    record = {"env": env, "metrics": {k: v[0] for k, v in metrics.items()},
              "pass_s": loop.pass_s, "samples": loop.samples,
              "problems": loop.problems}
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} variant={variant} "
          f"trace={args.trace} untraced_passes={len(loop.pass_s[False])} "
          f"traced_passes={len(loop.pass_s[True])}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        for cmd, med in command_medians(loop, False).items():
            print(f"  {cmd}_s = {med:.4f} s (median of {len(loop.samples[False][cmd])})")
    print(f"  ops_failed_frac = {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in loop.problems:
        print(f"  FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
