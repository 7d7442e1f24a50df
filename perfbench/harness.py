"""Workloads, reduction jobs, their checks and the metrics of one run.

A workload is a fixed list of jobs; a job is one (model, algorithm, r, init)
tuple.  One pass runs every job of the workload once, sequentially, in this
process (a closed loop with one client).  For each job the algorithm call is
timed as reduce time, then the checks a ``h2mor reduce`` user gets by
default (``verify_h2_optimality``, plus ``estimate_error`` for CIRKA) are
timed as verify time.  Every exception is caught at the job boundary, so one
bad job cannot abort a pass.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import resource
import statistics
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.sparse as sps

import h2mor
import models
from h2mor import CirkaOptions, InterpolationData, IrkaOptions, mmio
from h2mor.errors import ModelReductionError, UnstableRom
from reference import NOMINAL_S, Reference
from tracer import Tracer

#: A converged job's optimality residual must stay below this.
RESIDUAL_BOUND = 1e-2
#: Set-up is repeated this often per run; its median is reported.
SETUP_REPS = 9
#: Reference kernel samples taken before each set-up repetition.
SETUP_REF_REPS = 3
#: Grid size of the sparse models (n = N^2).
SPARSE_N = 60
#: The true H2 error needs two dense Lyapunov solves; above this order they
#: cost seconds per job, so only smaller models (dense-batch's random ones)
#: get it.
ORACLE_MAX_N = 200
#: The checks of a ROM of such a small model take milliseconds, too short to
#: time once; untraced runs repeat them and keep the fastest.
SMALL_CHECK_REPS = 5

OPTIONS = {
    # library defaults, with CIRKA's built-in checks off: they are timed as
    # verify time instead
    "default": (IrkaOptions(),
                CirkaOptions(verify_optimality=False, compute_error_estimate=False)),
    # the lightly damped spring chain: at the default tolerance a converged
    # ROM can miss RESIDUAL_BOUND
    "tight": (IrkaOptions(tol=1e-6),
              CirkaOptions(inner=IrkaOptions(tol=1e-6), outer_tol=1e-6,
                           verify_optimality=False, compute_error_estimate=False)),
}

#: Random initial shifts per model family: (lowest, highest magnitude,
#: imaginary/real ratio), placed around the smallest poles of each family.
INIT_BANDS = {"heat2d": (0.2, 3.0, 1.0), "cd2d": (20.0, 200.0, 1.0),
              "spring": (0.005, 0.1, 20.0)}


@dataclass(frozen=True)
class Job:
    model: str
    algorithm: str          # "irka" or "cirka"
    r: int
    init: str               # "zero" or "random"
    options: str = "default"
    probe: bool = False     # known-defect probe: run once, outside the metrics


@dataclass(frozen=True)
class Workload:
    name: str
    build: object           # seed -> {key: (model, generator parameters)}
    jobs: tuple


#: (m, p, generator seed) of the acceptance suite's 20 random order-50 models.
ACCEPTANCE_CASES = tuple((m, p, 500 + i) for i, (m, p) in
                         enumerate([(1, 1)] * 7 + [(2, 2)] * 7 + [(2, 1)] * 3 + [(1, 2)] * 3))


def _sparse_models(seed):
    return {"heat2d": models.heat2d(SPARSE_N, seed), "cd2d": models.cd2d(SPARSE_N, seed)}


def _dense_models(seed):
    out = {f"rs{seed_i}": models.random_stable(50, m, p, seed_i)
           for m, p, seed_i in ACCEPTANCE_CASES}
    out["spring"] = models.spring_chain(500, seed)
    return out


#: (model, r, init): zero init mixed with seeded random conjugate-closed init.
#: Kept to jobs whose IRKA iteration count barely moves with the seed, so the
#: pass length measures the code rather than the seed: odd r and r <= 6 on
#: cd2d and r >= 8 on heat2d cycle or wander for many seeds.
SPARSE_CASES = (("heat2d", 4, "zero"), ("heat2d", 6, "zero"), ("heat2d", 7, "zero"),
                ("heat2d", 5, "random"), ("heat2d", 6, "random"),
                ("cd2d", 8, "zero"), ("cd2d", 10, "zero"),
                ("cd2d", 8, "random"), ("cd2d", 10, "random"))


def _sparse_jobs(algorithm):
    # CIRKA's default path (zero init, I.2 doubling) loses rank at r >= 6 and
    # raises a bare ValueError on some models: those jobs are probes.
    return tuple(Job(m, algorithm, r, init,
                     probe=algorithm == "cirka" and init == "zero" and r >= 6)
                 for m, r, init in SPARSE_CASES)


def _dense_jobs():
    jobs = [Job(f"rs{s}", algo, 4, "zero")
            for _, _, s in ACCEPTANCE_CASES for algo in ("irka", "cirka")]
    jobs += [Job("spring", "irka", 8, "zero", "tight"),
             # CIRKA on the spring chain reports convergence for ROMs that
             # fail the optimality check (zero init) or lost order (random
             # init, some seeds): probes until that is fixed.
             Job("spring", "cirka", 4, "zero", "tight", probe=True),
             Job("spring", "cirka", 8, "random", "tight", probe=True)]
    return tuple(jobs)


WORKLOADS = {w.name: w for w in (
    Workload("sparse-irka", _sparse_models, _sparse_jobs("irka")),
    Workload("sparse-cirka", _sparse_models, _sparse_jobs("cirka")),
    Workload("dense-batch", _dense_models, _dense_jobs()),
)}


# -- set-up ---------------------------------------------------------------------


def _write_model(model, key, directory):
    """Write a model as Matrix Market files plus a manifest; return the manifest path."""
    files = {}
    for name, matrix in (("E", model.E), ("A", model.A), ("B", model.B), ("C", model.C)):
        files[name] = f"{key}_{name}.mtx"
        mmio.write_matrix_market(sps.csr_matrix(matrix), directory / files[name])
    manifest = directory / f"{key}.json"
    manifest.write_text(json.dumps({"name": key, "n": model.n, "m": model.m, "p": model.p,
                                    **files}))
    return manifest


def _same_model(a, b):
    return ((a.E != b.E).nnz == 0 and (a.A != b.A).nnz == 0 and np.array_equal(a.B, b.B)
            and np.array_equal(a.C, b.C) and np.array_equal(a.D, b.D))


def setup(workload, seed, scratch_dir, tracer, reference):
    """Generate, write and load back the models ``SETUP_REPS`` times.

    Returns the loaded models, generator parameters, the set-up times, the
    reference scale of each repetition (the kernel is sampled before it), the
    span range of each repetition (when traced) and any round-trip problems.
    """
    times, scales, ranges = [], [], []
    for _ in range(SETUP_REPS):
        ref_lo = len(reference.samples)
        reference.sample(SETUP_REF_REPS)
        scales.append(reference.scale(ref_lo))
        lo = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        generated = workload.build(seed)
        with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
            manifests = {key: _write_model(model, key, Path(tmp))
                         for key, (model, _) in generated.items()}
            loaded = {key: mmio.load_model(mmio.load_manifest(path), data_dir=tmp)
                      for key, path in manifests.items()}
        times.append(perf_counter() - t0)
        ranges.append((lo, len(tracer.spans) if tracer else 0))
    problems = [f"model {key} changed in the Matrix Market round trip"
                for key, (model, _) in generated.items() if not _same_model(model, loaded[key])]
    params = {key: p for key, (_, p) in generated.items()}
    return loaded, params, times, scales, ranges, problems


def initial_data(job, index, model, seed):
    if job.init == "zero":
        return InterpolationData.zero_init(job.r, model.m, model.p)
    lo, hi, ratio = INIT_BANDS[job.model]
    return models.random_init(job.r, model.m, model.p, [seed, index], lo, hi, ratio)


# -- one job --------------------------------------------------------------------


@dataclass
class Outcome:
    """What one job did; the fields named in ``SIGNATURE`` must repeat exactly."""

    ok: bool = False
    error: str | None = None
    converged: bool = False
    rom_order: int | None = None
    full_lu: int = 0
    full_lu_norecycle: int = 0
    surrogate_lu: int = 0
    surrogate_lu_norecycle: int = 0
    irka_steps: int = 0
    outer_steps: int = 0
    model_function_order: int = 0
    fallback: bool = False
    residual: float | None = None
    estimate: float | None = None
    rel_h2_error: float | None = None
    reduce_s: float = 0.0
    verify_s: float = 0.0
    oracle_s: float = 0.0
    traced_lu: dict = field(default_factory=dict)


SIGNATURE = ("ok", "converged", "rom_order", "full_lu", "surrogate_lu", "irka_steps",
             "outer_steps", "model_function_order", "fallback")


def _rom_problem(job, rom, report, converged):
    """Why a ROM fails the correctness check, or None."""
    arrays = (rom.E.data, rom.A.data, rom.B, rom.C, rom.D)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return "ROM has non-finite entries"
    if rom.n != job.r:
        return f"ROM has order {rom.n}, not {job.r}"
    if converged and report is None:
        return "converged ROM has no stable pole to check"
    if converged and not report.max_residual < RESIDUAL_BOUND:
        return f"converged ROM has optimality residual {report.max_residual:.2e}"
    return None


def _check(job, model, res):
    """The checks `h2mor reduce` runs: optimality report and CIRKA's estimate."""
    try:
        report = h2mor.verify_h2_optimality(model, res.rom)
    except ModelReductionError:     # no stable pole to check
        report = None
    estimate = None
    if job.algorithm == "cirka" and res.model_function and not res.fallback_direct:
        try:
            estimate = float(h2mor.estimate_error(res.model_function, res.rom)[0])
        except UnstableRom:
            pass
    return report, estimate


def _oracle(model, rom):
    """True relative H2 error, or None for an unstable ROM."""
    try:
        return float(h2mor.h2_error(model, rom)[1])
    except ModelReductionError:      # unstable ROM: the H2 error is infinite
        return None


def run_job(job, model, init, tracer, check_reps=1):
    out = Outcome()
    phase = tracer.span if tracer else (lambda name: nullcontext())
    if tracer:
        tracer.full_n = model.n
        lu_before = tracer.counts["linalg.lu_full"], tracer.counts["linalg.lu_small"]
    irka_opts, cirka_opts = OPTIONS[job.options]
    try:
        with phase("job.reduce"):
            t0 = perf_counter()
            if job.algorithm == "irka":
                res = h2mor.irka(model, init, irka_opts)
            else:
                res = h2mor.cirka(model, init, cirka_opts)
            out.reduce_s = perf_counter() - t0
        c = res.counters
        out.converged = bool(res.converged)
        out.rom_order = res.rom.n
        out.full_lu, out.full_lu_norecycle = c.full_lu, c.full_lu_norecycle
        out.surrogate_lu, out.surrogate_lu_norecycle = c.surrogate_lu, c.surrogate_lu_norecycle
        out.irka_steps = c.irka_steps_total
        if tracer:
            out.traced_lu = {"full": tracer.counts["linalg.lu_full"] - lu_before[0],
                             "small": tracer.counts["linalg.lu_small"] - lu_before[1]}
        if job.algorithm == "cirka":
            out.outer_steps = res.outer_iterations
            out.fallback = bool(res.fallback_direct)
            out.model_function_order = res.model_function.order if res.model_function else 0

        check_times = []
        with phase("job.verify"):
            for _ in range(check_reps if model.n <= ORACLE_MAX_N else 1):
                t0 = perf_counter()
                report, out.estimate = _check(job, model, res)
                check_times.append(perf_counter() - t0)
        out.verify_s = min(check_times)
        out.residual = None if report is None else float(report.max_residual)
        out.error = _rom_problem(job, res.rom, report, out.converged)
        out.ok = out.error is None

        if model.n <= ORACLE_MAX_N:
            with phase("job.oracle"):
                t0 = perf_counter()
                out.rel_h2_error = _oracle(model, res.rom)
                out.oracle_s = perf_counter() - t0
    except Exception:
        out.ok = False
        out.error = traceback.format_exc(limit=-3)
    return out


# -- passes and metrics -----------------------------------------------------------


def run_pass(jobs, loaded, inits, tracer, check_reps=1, reference=None):
    """Run every job once; sample the reference kernel before each job."""
    outcomes = []
    for job, init in zip(jobs, inits):
        if reference:
            reference.sample()
        outcomes.append(run_job(job, loaded[job.model], init, tracer, check_reps))
    return outcomes


def pass_metrics(outcomes):
    """End-to-end metrics of one pass, plus the result-derived layer metrics."""
    n = len(outcomes)
    lu = sum(o.full_lu + o.surrogate_lu for o in outcomes)
    lu_req = sum(o.full_lu_norecycle + o.surrogate_lu_norecycle for o in outcomes)
    return {
        "reduce_s": sum(o.reduce_s for o in outcomes),
        "verify_s": sum(o.verify_s for o in outcomes),
        "full_lu": sum(o.full_lu for o in outcomes),
        "converged_share": sum(o.converged for o in outcomes) / n,
        "ok_share": sum(o.ok for o in outcomes) / n,
        "surrogate_lu": sum(o.surrogate_lu for o in outcomes),
        "linalg.lu_reuse": lu / lu_req if lu_req else 1.0,
        "irka.steps": sum(o.irka_steps for o in outcomes),
        "cirka.outer_steps": sum(o.outer_steps for o in outcomes),
        "cirka.nM_max": max(o.model_function_order for o in outcomes),
        "cirka.fallbacks": sum(o.fallback for o in outcomes),
        "oracle_s": sum(o.oracle_s for o in outcomes),
    }


#: Layer metrics taken from spans: name -> (span name, "self" | "incl" | "count").
SPAN_METRICS = {
    "linalg.lu_full_n": ("linalg.lu_full", "count"),
    "linalg.lu_full_s": ("linalg.lu_full", "self"),
    "linalg.lu_full_real_n": ("linalg.lu_full_real", "count"),
    "linalg.lu_small_n": ("linalg.lu_small", "count"),
    "linalg.lu_small_s": ("linalg.lu_small", "self"),
    "linalg.solve_full_n": ("linalg.solve_full", "count"),
    "linalg.solve_full_s": ("linalg.solve_full", "self"),
    "linalg.solve_small_n": ("linalg.solve_small", "count"),
    "linalg.solve_small_s": ("linalg.solve_small", "self"),
    "linalg.eig_n": ("linalg.eig", "count"),
    "linalg.eig_s": ("linalg.eig", "self"),
    "linalg.qr_n": ("linalg.qr", "count"),
    "linalg.qr_s": ("linalg.qr", "self"),
    "linalg.qr_cols_dropped": ("linalg.qr_cols_dropped", "count"),
    "linalg.lyap_s": ("linalg.lyap", "incl"),
    "linalg.stable_part_n": ("linalg.stable_part", "count"),
    "model.make_model_n": ("model.make_model", "count"),
    "model.make_model_s": ("model.make_model", "self"),
    "model.project_n": ("model.project", "count"),
    "model.project_s": ("model.project", "self"),
    "model.pole_residue_n": ("model.pole_residue", "count"),
    "model.pole_residue_s": ("model.pole_residue", "self"),
    "model.eval_lu_n": ("model.eval_lu", "count"),
    "model.eval_lu_s": ("model.eval_lu", "self"),
    "interpolation.hermite_reduce_n": ("interpolation.hermite_reduce", "count"),
    "interpolation.hermite_reduce_s": ("interpolation.hermite_reduce", "self"),
    "interpolation.primitive_basis_s": ("interpolation.primitive_basis", "self"),
    "interpolation.shift_retries": ("interpolation.shift_retry", "count"),
    "irka.update_s": ("irka.update", "self"),
    "irka.unconverged_runs": ("irka.unconverged_runs", "count"),
    "irka.reflected_n": ("irka.reflected_n", "count"),
    "cirka.mf_update_n": ("cirka.mf_update", "count"),
    "cirka.mf_update_s": ("cirka.mf_update", "incl"),
    "cirka.inner_s": ("cirka.inner", "incl"),
    "cirka.verify_s": ("cirka.verify", "incl"),
    "cirka.estimate_s": ("cirka.estimate", "incl"),
    "metrics.h2_error_s": ("metrics.h2_error", "incl"),
}
RESULT_METRICS = ("surrogate_lu", "linalg.lu_reuse", "irka.steps", "cirka.outer_steps",
                  "cirka.nM_max", "cirka.fallbacks")


def layer_metrics(tracer, lo, hi, counts):
    by_kind = dict(zip(("self", "incl"), tracer.times(lo, hi)), count=counts)
    return {name: by_kind[kind][span] for name, (span, kind) in SPAN_METRICS.items()}


# -- environment and the run -------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except Exception:    # older releases have no dict form of the build config
        return None


def environment(blas_threads):
    return {
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np),
        "openblas_scipy": _blas_version(scipy),
        "platform": platform.platform(),
    }


def rescaled_median(values, scales):
    """Median of the values, each rescaled to the reference host speed
    measured while it was taken (see reference.py)."""
    return statistics.median(v * s for v, s in zip(values, scales))


def pass_times(passes, field):
    return [sum(getattr(o, field) for o in outcomes) for outcomes in passes]


def check_passes(jobs, passes):
    """Failed jobs, passes that do not repeat pass 1, and traced LU counts
    that do not reconcile with ``CostCounters``."""
    problems = [f"{job}: {o.error}" for job, o in zip(jobs, passes[0]) if not o.ok]
    for k, outcomes in enumerate(passes, start=1):
        for job, a, b in zip(jobs, passes[0], outcomes):
            if any(getattr(a, f) != getattr(b, f) for f in SIGNATURE):
                problems.append(f"{job}: pass {k} differs from pass 1")
            if b.traced_lu and b.traced_lu != {"full": b.full_lu, "small": b.surrogate_lu}:
                problems.append(f"{job}: pass {k} traced splu counts {b.traced_lu} != "
                                f"CostCounters ({b.full_lu}, {b.surrogate_lu})")
    return problems


def run_workload(name, seed, seconds, traced, out_dir, blas_threads):
    """Run one workload for about ``seconds`` of passes; return the result line."""
    logging.getLogger("h2mor").addHandler(logging.NullHandler())
    logging.getLogger("h2mor").propagate = False

    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if traced else None
    reference = Reference()
    if tracer:
        tracer.install()
    loaded, params, setup_times, setup_scales, setup_ranges, problems = setup(
        workload, seed, out_dir, tracer, reference)
    if tracer:
        tracer.uninstall()
    inits = [initial_data(job, i, loaded[job.model], seed) for i, job in enumerate(workload.jobs)]
    regular = [(j, x) for j, x in zip(workload.jobs, inits) if not j.probe]
    probes = [(j, x) for j, x in zip(workload.jobs, inits) if j.probe]
    jobs, job_inits = [j for j, _ in regular], [x for _, x in regular]

    passes, untraced, pass_ranges, pass_counts = [], [], [], []
    scales, untraced_scales = [], []
    start = perf_counter()
    while True:
        if tracer:
            # untraced passes alternate with traced ones; the tracing overhead
            # is the difference of their rescaled median times
            ref_lo = len(reference.samples)
            untraced.append(run_pass(jobs, loaded, job_inits, None, reference=reference))
            untraced_scales.append(reference.scale(ref_lo))
            tracer.install()
            lo, counts0 = len(tracer.spans), tracer.counts.copy()
        ref_lo = len(reference.samples)
        passes.append(run_pass(jobs, loaded, job_inits, tracer,
                               1 if traced else SMALL_CHECK_REPS, reference))
        scales.append(reference.scale(ref_lo))
        if len(passes) == 1:
            # set-up plus one pass is what a user's run costs; later passes
            # only add heap fragmentation, which differs from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            pass_ranges.append((lo, len(tracer.spans)))
            pass_counts.append(tracer.counts - counts0)
        if perf_counter() - start >= seconds:
            break
    # probes run last, so that they move no end-to-end metric
    probe_outcomes = run_pass([j for j, _ in probes], loaded, [x for _, x in probes], None)

    problems += check_passes(jobs, passes + untraced)
    per_pass = [pass_metrics(outcomes) for outcomes in passes]
    attempted = len(jobs) * len(passes)
    failed = sum(not o.ok for outcomes in passes for o in outcomes)
    if traced:
        layers = [layer_metrics(tracer, lo, hi, counts)
                  for (lo, hi), counts in zip(pass_ranges, pass_counts)]
        # counts repeat exactly across passes; times are rescaled medians
        metrics = {key: layers[0][key] if SPAN_METRICS[key][1] == "count"
                   else rescaled_median([m[key] for m in layers], scales)
                   for key in SPAN_METRICS}
        for key in RESULT_METRICS:
            metrics[key] = per_pass[0][key]
        reads = [tracer.times(lo, hi)[1]["mmio.read"] for lo, hi in setup_ranges]
        metrics["mmio.read_s"] = rescaled_median(reads, setup_scales)
        metrics["mmio.bytes_read"] = tracer.counts["mmio.bytes_read"] // SETUP_REPS
        metrics["trace.overhead_s"] = sum(
            rescaled_median(pass_times(passes, key), scales)
            - rescaled_median(pass_times(untraced, key), untraced_scales)
            for key in ("reduce_s", "verify_s"))
        metrics["probe.jobs"] = len(probe_outcomes)
        metrics["probe.failed"] = sum(not o.ok for o in probe_outcomes)
    else:
        metrics = {key: rescaled_median(pass_times(passes, key), scales)
                   for key in ("reduce_s", "verify_s")}
        for key in ("full_lu", "converged_share", "ok_share"):
            metrics[key] = per_pass[0][key]
        metrics["setup_s"] = rescaled_median(setup_times, setup_scales)
        metrics["peak_rss_mb"] = peak_rss_mb

    stem = f"{name}-seed{seed}-trace{int(traced)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "environment": environment(blas_threads),
        "generators": params,
        "residual_bound": RESIDUAL_BOUND,
        "setup_s": setup_times,
        "setup_scales": setup_scales,
        "jobs": [{**asdict(job), **asdict(o)} for job, o in zip(jobs, passes[0])],
        "probes": [{**asdict(job), **asdict(o)} for (job, _), o in zip(probes, probe_outcomes)],
        "passes": per_pass,
        "pass_scales": scales,
        "untraced_passes": [pass_metrics(outcomes) for outcomes in untraced],
        "untraced_scales": untraced_scales,
        "reference": {"nominal_s": NOMINAL_S, "samples": reference.samples},
        "metrics": metrics,
        "problems": problems,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
