"""Command-line front end: reduce, benchmark, bode, verify, config.

Exit codes: 0 success (a non-converged run is data, not failure), 1 usage,
load, validation or write error, 2 solver failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import benchmark as bench
from .cirka import (
    CirkaOptions,
    cirka,
    unless_refused,
    verify_h2_optimality,
    verify_realization_equivalence,
)
from .errors import DimensionMismatch, IoError, ModelReductionError
from .interpolation import InterpolationData, verify_tangential_interpolation
from .irka import IrkaOptions, irka
from .linalg import LARGE_SPLU_OPTIONS, SHIFTED_ORDERING, ShiftedSolver, pencil_eigenvalues
from .metrics import bode_samples
from .mmio import find_manifest, load_model, load_rom_dir, save_rom_dir, write_text
from .model import DENSE_THRESHOLD

log = logging.getLogger("h2mor")

EXIT_OK = 0
EXIT_LOAD = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def default_config() -> dict:
    """Effective defaults; these equal the reference experiment settings."""
    io = IrkaOptions()
    co = CirkaOptions()
    return {
        "tol": io.tol,
        "max_iter": io.max_iter,
        "stop_criterion": "s0+tanDir",
        "init_strategy": co.init_strategy,
        "update_strategy": co.update_strategy,
        "outer_tol": co.outer_tol,
        "outer_max_iter": co.outer_max_iter,
        # how ShiftedSolver factorizes A - sigma E, so a reported time can be
        # tied to the settings it was measured with
        "lu_ordering": SHIFTED_ORDERING,
        "lu_superlu_options": dict(LARGE_SPLU_OPTIONS),
        "lu_superlu_options_above_order": DENSE_THRESHOLD,
    }


def _add_common(p):
    p.add_argument("--data-dir", default=None, help="directory holding benchmark matrix files")
    p.add_argument("-v", "--verbose", action="count", default=0)


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING if verbosity == 0 else logging.INFO if verbosity == 1 else logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="h2mor",
                     description="H2-optimal model order reduction (IRKA / CIRKA)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce one model and report optimality data")
    p.set_defaults(handler=cmd_reduce)
    p.add_argument("--model", required=True, help="manifest name or path")
    p.add_argument("--r", type=int, required=True, help="reduced order")
    p.add_argument("--algo", choices=["irka", "cirka"], default="cirka")
    p.add_argument("--init", choices=["zero", "eigs", "file"], default="zero")
    p.add_argument("--init-file", default=None, help="interpolation data JSON for --init file")
    p.add_argument("--tol", type=float, default=IrkaOptions().tol)
    p.add_argument("--max-iter", type=int, default=IrkaOptions().max_iter)
    p.add_argument("--init-strategy", choices=["I1", "I2"], default="I2")
    p.add_argument("--update-strategy", choices=["U1", "U2", "U3"], default="U2")
    p.add_argument("--nm", type=int, default=None, help="initial model-function order (default 2r)")
    p.add_argument("--outer-tol", type=float, default=CirkaOptions().outer_tol)
    p.add_argument("--outer-max-iter", type=int, default=CirkaOptions().outer_max_iter)
    p.add_argument("--no-error", action="store_true", help="skip the H2 error computation")
    p.add_argument("--out", default=None, help="directory for rom matrices and result JSON")
    _add_common(p)

    p = sub.add_parser("benchmark", help="run IRKA and CIRKA over a model/order grid")
    p.set_defaults(handler=cmd_benchmark)
    p.add_argument("--models", required=True, help="comma-separated manifest names")
    p.add_argument("--r", required=True, help="comma-separated reduced orders")
    p.add_argument("--init", choices=["zero", "eigs"], default="zero")
    p.add_argument("--algos", default="irka,cirka")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="results file (default stdout)")
    p.add_argument("--compare", action="store_true",
                   help="per (model, r): both full-order LU counts, time ratio, 'cirka cheaper'")
    p.add_argument("--no-error", action="store_true")
    _add_common(p)

    p = sub.add_parser("bode", help="emit magnitude samples |G(jw)| as CSV")
    p.set_defaults(handler=cmd_bode)
    p.add_argument("--model", required=True)
    p.add_argument("--roms", default=None, help="comma-separated rom directories to overlay")
    p.add_argument("--wmin", type=float, default=None)
    p.add_argument("--wmax", type=float, default=None)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    _add_common(p)

    p = sub.add_parser("verify", help="check interpolation/optimality/equivalence residuals")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--model", required=True)
    p.add_argument("--rom", required=True, help="rom directory written by reduce --out")
    p.add_argument("--data", default=None, help="interpolation data JSON (default: rom dir)")
    p.add_argument("--check", choices=["interp", "optimality", "equivalence", "all"],
                   default="all")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)

    p = sub.add_parser("config", help="dump the effective default configuration")
    p.set_defaults(handler=cmd_config)
    _add_common(p)
    return parser


class _LoadError(Exception):
    """A load, validation or write error, reported by :func:`main` as exit 1."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors, exit 1; so in every subcommand's parser."""

    def error(self, message):
        raise _LoadError(message)


@contextmanager
def _io_phase():
    """A command's load or write phase: its errors become :class:`_LoadError`."""
    try:
        yield
    except (ModelReductionError, OSError, ValueError) as exc:
        raise _LoadError(exc) from exc


def _load(name, data_dir):
    """``(manifest name, model)`` for a manifest name or path."""
    manifest = find_manifest(name)
    return manifest.name, load_model(manifest, data_dir=data_dir)


def _fmt_shifts(data: InterpolationData) -> str:
    """One shift per conjugate group, its Im >= 0 member, sorted on (Re, Im)."""
    firsts = (data.blocks[group[0]].sigma for group in data.conjugate_pairing())
    vals = sorted((complex(z.real, abs(z.imag)) for z in firsts), key=lambda z: (z.real, z.imag))
    return ", ".join(f"{z.real:.4g}{z.imag:+.4g}j" if z.imag else f"{z.real:.4g}" for z in vals)


def cmd_reduce(args) -> int:
    with _io_phase():
        if args.r < 1:
            raise ValueError("--r must be >= 1")
        inner = IrkaOptions(tol=args.tol, max_iter=args.max_iter)
        opts = CirkaOptions(inner=inner, init_strategy=args.init_strategy,
                            update_strategy=args.update_strategy,
                            initial_nM=args.nm, outer_tol=args.outer_tol,
                            outer_max_iter=args.outer_max_iter)
        if args.algo == "cirka":
            opts.initial_order(args.r)      # checks --nm against I.1 and I.2 before loading
        name, model = _load(args.model, args.data_dir)
        if args.r >= model.n:
            raise ValueError(f"r = {args.r} must be below the model order {model.n}")
        if args.init == "file":
            if not args.init_file:
                raise ValueError("--init file requires --init-file")
            data0 = InterpolationData.from_jsonable(
                json.loads(Path(args.init_file).read_text()))
            data0.validate(model.m, model.p)
            if data0.r != args.r:
                raise ValueError(f"{args.init_file} holds r = {data0.r} columns, "
                                 f"not --r {args.r}")
    if args.init != "file":
        # the spectrum init eigendecomposes the model: its refusal is a solver failure
        data0 = bench.initial_data(model, args.r, args.init)

    if args.algo == "irka":
        res = irka(model, data0, inner)
        estimate = None
        k_line = f"k_IRKA = {res.iterations}"
        report = unless_refused("optimality check", verify_h2_optimality, model, res.rom)
        stop_reason = res.stop_reason
    else:
        res = cirka(model, data0, opts)
        estimate = res.error_estimate
        report = res.optimality_report
        k_line = (f"k_CIRKA = {res.outer_iterations}, "
                  f"sum k_IRKA = {res.counters.irka_steps_total}")
        stop_reason = res.inner_results[-1].stop_reason     # the last IRKA run's
    rom, data, counters, converged = res.rom, res.optimal_data, res.counters, res.converged

    print(f"model {name}: n = {model.n}, m = {model.m}, p = {model.p}")
    print(f"algorithm {args.algo}, r = {args.r}, init = {args.init}: "
          f"converged = {str(converged).lower()}")
    print(f"stop reason = {stop_reason}")
    if args.algo == "cirka":
        print(f"fallback to direct IRKA = {str(res.fallback_direct).lower()}")
    print(k_line)
    print(f"n_LU (full order) = {counters.full_lu}"
          + (f", n_LU (surrogate) = {counters.surrogate_lu}" if args.algo == "cirka" else ""))
    rel = None if args.no_error else bench._rel_error(model, rom)
    if rel is not None:
        print(f"relative H2 error = {bench.format_float(rel)}")
    if estimate is not None:
        print(f"relative H2 estimate = {bench.format_float(estimate)}")
    if report is not None:
        print(f"optimality residual = {report.max_residual:.3e}")
        print(f"n_LU (verification) = {report.full_lu}")
    print(f"optimal shifts: {_fmt_shifts(data)}")

    if args.out:
        out = Path(args.out)
        summary = {
            "model": name, "algorithm": args.algo, "r": args.r, "init": args.init,
            "converged": converged, "stop_reason": stop_reason,
            "fallback_direct": res.fallback_direct if args.algo == "cirka" else None,
            "n_lu_full": counters.full_lu,
            "n_lu_surrogate": counters.surrogate_lu if args.algo == "cirka" else None,
            "rel_h2_error": rel, "rel_h2_estimate": estimate,
            "optimality_residual": None if report is None else report.max_residual,
            "n_lu_verify": None if report is None else report.full_lu,
        }
        with _io_phase():
            save_rom_dir(rom, out)
            write_text(out / "data.json", json.dumps(data.to_jsonable(), indent=2) + "\n")
            write_text(out / "result.json", json.dumps(summary, indent=2) + "\n")
        print(f"wrote rom and results to {out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    names = [s for s in args.models.split(",") if s]
    with _io_phase():
        r_values = sorted({int(s) for s in args.r.split(",") if s})
        if not names or not r_values or any(r < 1 for r in r_values):
            raise ValueError("need at least one model and positive orders")
        algos = tuple(s for s in args.algos.split(",") if s)
        for a in algos:
            if a not in ("irka", "cirka"):
                raise ValueError(f"unknown algorithm '{a}'")
        models = dict(_load(name, args.data_dir) for name in names)

    rows = bench.run_benchmark(models, r_values, init=args.init, algorithms=algos,
                               compute_errors=not args.no_error)
    if args.out:
        with _io_phase():
            bench.write_results(rows, args.format, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(bench.results_to_string(rows, args.format), end="")

    if args.compare:
        by_key = {(row.model, row.r, row.algorithm): row for row in rows}
        for name in sorted(models):
            for r in r_values:
                a = by_key.get((name, r, "irka"))
                b = by_key.get((name, r, "cirka"))
                if a is None or b is None:
                    continue
                speed = a.time_s / b.time_s if b.time_s else float("nan")
                cheaper = (b.n_lu_full or 0) < (a.n_lu_full or 0)
                print(f"{name} r={r}: n_LU {a.n_lu_full} (irka) vs {b.n_lu_full} (cirka), "
                      f"speedup {speed:.2f}x, cirka cheaper: {str(cheaper).lower()}")
    return EXIT_OK


def cmd_bode(args) -> int:
    with _io_phase():
        name, model = _load(args.model, args.data_dir)
        roms = [(Path(d).name or d, load_rom_dir(d)) for d in (args.roms or "").split(",") if d]
        wmin, wmax = args.wmin, args.wmax
        if wmin is None or wmax is None:
            if model.n <= DENSE_THRESHOLD:
                mags = np.abs(pencil_eigenvalues(model))
                mags = mags[mags > 0]
                lo = 10 ** np.floor(np.log10(mags.min())) / 10 if mags.size else 1e-2
                hi = 10 ** np.ceil(np.log10(mags.max())) * 10 if mags.size else 1e4
            else:
                lo, hi = 1e-2, 1e4
            wmin = lo if wmin is None else wmin
            wmax = hi if wmax is None else wmax
        if not (0 < wmin < wmax) or args.points < 1:
            raise ValueError(f"need 0 < wmin < wmax and points >= 1 "
                             f"(got {wmin}, {wmax}, {args.points})")

    freqs = np.logspace(np.log10(wmin), np.log10(wmax), args.points)
    tables = [(name, bode_samples(model, freqs))]
    for label, rom in roms:
        tables.append((label, bode_samples(rom, freqs)))

    header = ["omega"]
    for label, mags in tables:
        _, p, m = mags.shape
        header += [f"mag_{label}_{i + 1}{j + 1}" for i in range(p) for j in range(m)]
    lines = [",".join(header)]
    for k, w in enumerate(freqs):
        rec = [f"{w:.10g}"]
        for _, mags in tables:
            rec += [f"{v:.10g}" for v in mags[k].ravel()]
        lines.append(",".join(rec))
    text = "\n".join(lines) + "\n"
    if args.out:
        with _io_phase():
            write_text(args.out, text)
        print(f"wrote {args.points} frequency samples to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    with _io_phase():
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol must be positive and finite, got {args.tol}")
        _, model = _load(args.model, args.data_dir)
        rom = load_rom_dir(args.rom)
        data_path = Path(args.data) if args.data else Path(args.rom) / "data.json"
        data = None
        if data_path.exists():
            data = InterpolationData.from_jsonable(json.loads(data_path.read_text()))
            data.validate(model.m, model.p)
        elif args.check in ("interp", "equivalence", "all"):
            raise IoError(f"no interpolation data at {data_path}")
        if rom.m != model.m or rom.p != model.p:
            raise DimensionMismatch(
                f"rom I/O dimensions {(rom.p, rom.m)} do not match model {(model.p, model.m)}")

    failed = False
    # the equivalence check projects at the stored data, where the
    # interpolation check factorized, and at a converged ROM the optimality
    # check's nodes are the same; a single check has nothing to share
    solver = ShiftedSolver(model, keep_factorizations=True) if args.check == "all" else None

    def verdict(rep) -> str:
        """``(pass at tol)`` or ``(FAIL at tol)``; a failure sets the exit code."""
        nonlocal failed
        ok = rep.passed(args.tol)
        failed |= not ok
        return f"({'pass' if ok else 'FAIL'} at {args.tol:g})"

    if args.check in ("interp", "all"):
        rep = verify_tangential_interpolation(model, rom, data, solver)
        print(f"interpolation residual = {rep.max_residual:.3e} {verdict(rep)}")
        print(f"n_LU (verification) = {rep.full_lu}")
    if args.check in ("optimality", "all"):
        rep = verify_h2_optimality(model, rom, solver)
        print(f"optimality residual = {rep.max_residual:.3e} {verdict(rep)}")
        print(f"n_LU (verification) = {rep.full_lu}")
        for e in rep.entries:
            print(f"  pole {-e.sigma.conjugate():.6g}: worst {e.worst:.3e}")
        if rep.skipped_unstable:
            print("  unstable poles skipped")
    if args.check in ("equivalence", "all"):
        rep = verify_realization_equivalence(model, data, rom, solver)
        print(f"realization deviation = {rep.max_deviation:.3e} {verdict(rep)}")
        print(f"n_LU (verification) = {rep.full_lu}")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_config(_args) -> int:
    print(json.dumps(default_config(), indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _setup_logging(args.verbose)
        return args.handler(args)
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except ModelReductionError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
