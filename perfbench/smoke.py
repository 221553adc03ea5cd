"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs each workload's command list once untraced and once traced at a tiny
config that keeps the workload's normal-operator route, and asserts that:

- the workloads and every end-to-end and per-layer metric named in
  BENCHMARK.json are produced, with the units given there;
- the output gate passes, including sha256 agreement between the two
  passes and the xv_apply/xv_transpose pairing;
- each layer predicted idle on a workload records zero calls, and each
  layer predicted to work records at least one, which shows the wrappers
  caught the call sites;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.

Reference values are recorded only at the real sizes, so that comparison
is skipped here.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import layers
import run
from workloads import WORKLOADS, write_config

# Tiny sizes: more than 1024 pixels keeps the iterative normal route.
TINY = {"forward-scatter": (33, 8), "assemble-small": (16, 8),
        "image-ballistic": (33, 8)}

# Layers that must record calls (busy) or none (idle) on each workload.
BUSY = {
    "forward-scatter": (
        "transport.spectral_radius", "transport.t1_apply", "transport.t1_transpose",
        "transport.k_apply", "transport.k_transpose", "transport.solve",
        "transport.measurement", "transport.trace_phase", "transport.xv_apply",
        "transport.trace_transpose", "transport.xv_transpose",
        "tomography.normal_operator_full", "tomography.wavefront_image",
        "tomography.smoothing_diagnostic", "geometry.microvisible",
        "coefficients.sample", "phantoms.rasterize", "formats.write",
        "formats.sha256_file", "cli.parse_config"),
    "assemble-small": (
        "transport.spectral_radius", "transport.t1_apply", "transport.k_apply",
        "transport.trace_phase", "transport.xv_apply", "interp.apply",
        "interp.at_points", "tomography.assemble_xv_matrix",
        "tomography.normal_operator_full", "tomography.singular_values",
        "tomography.svd_injectivity", "geometry.visible_mask", "formats.write"),
    "image-ballistic": (
        "transport.trace_phase", "transport.trace_transpose", "transport.xv_apply",
        "transport.xv_transpose", "interp.apply_transpose",
        "tomography.attenuation_stack", "tomography.cutoff_stack",
        "tomography.symbol_field", "tomography.normal_operator_full",
        "tomography.wavefront_image", "geometry.visible_mask",
        "geometry.microvisible", "coefficients.sample"),
}
IDLE = {
    "forward-scatter": (
        "tomography.assemble_xv_matrix", "tomography.singular_values",
        "tomography.attenuation_stack", "tomography.symbol_field",
        "tomography.svd_injectivity", "geometry.visible_mask"),
    "assemble-small": (
        "transport.trace_transpose", "transport.xv_transpose",
        "transport.t1_transpose", "transport.k_transpose", "transport.solve",
        "interp.apply_transpose", "tomography.attenuation_stack",
        "tomography.wavefront_image", "tomography.smoothing_diagnostic"),
    "image-ballistic": (
        "transport.spectral_radius", "transport.t1_apply", "transport.t1_transpose",
        "transport.k_apply", "transport.k_transpose", "transport.solve",
        "tomography.assemble_xv_matrix", "tomography.singular_values",
        "tomography.svd_injectivity", "tomography.smoothing_diagnostic"),
}


def _check_units(metrics, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: unit for name, (_, unit) in metrics.items()}
    assert have == want, f"{what} metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(want) - set(have))}, extra {sorted(set(have) - set(want))}, " \
        f"units {[(k, have[k], want[k]) for k in want if k in have and have[k] != want[k]]}"


def smoke_workload(cli, bench, workload, out_dir):
    nx, n_theta = TINY[workload]
    cfg = write_config(out_dir, workload, 0, nx=nx, n_theta=n_theta)
    loop = run.Loop(cli, workload, cfg, out_dir, None, layers.Tracer())
    env = run.environment(0, 0)
    steal0 = run.steal_ticks()
    loop.run_pass(0, traced=False)
    loop.run_pass(1, traced=True)
    env["cpu_steal_ticks"] = run.steal_ticks() - steal0
    assert not loop.problems, f"{workload}: gate failed: {loop.problems}"
    assert loop.attempted == 2 * len(WORKLOADS[workload].commands)
    pairing = run.xv_pairing_relerr(cli, cfg, 0)
    assert pairing <= run.XV_PAIRING_RTOL, f"{workload}: pairing gap {pairing}"

    _check_units(run.end_to_end_metrics(loop, setup_s=1.0), bench["end_to_end"],
                 f"{workload} end-to-end")
    layer = run.layer_run_metrics(loop, pairing, env)
    _check_units(layer, bench["per_layer"], f"{workload} per-layer")

    calls = {name[:-len(".calls")]: value for name, (value, _) in layer.items()
             if name.endswith(".calls")}
    for name in BUSY[workload]:
        assert calls[name] >= 1, f"{workload}: {name} recorded no calls"
    for name in IDLE[workload]:
        assert calls[name] == 0, f"{workload}: {name} recorded {calls[name]} calls"
    return loop


def bare_directory_fails(out_dir):
    """run.py in a copy holding only BENCHMARK.json and the benchmark."""
    bare = out_dir / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "image-ballistic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0, "bare directory run exited 0"
    assert "{" not in proc.stdout, f"bare directory run printed {proc.stdout!r}"


def main():
    run.pin_blas_threads()
    cli = run.import_cli()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    out_dir = run.OUT / f"smoke-{os.getpid()}"
    try:
        for workload in WORKLOADS:
            smoke_workload(cli, bench, workload, out_dir / workload)
            print(f"smoke {workload}: ok")
        bare_directory_fails(out_dir)
        print("smoke bare directory: ok")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
