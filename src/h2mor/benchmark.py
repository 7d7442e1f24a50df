"""Head-to-head IRKA/CIRKA benchmark runner and result serialization."""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from .cirka import CirkaOptions, cirka
from .errors import IoError, ModelReductionError
from .interpolation import InterpolationData
from .irka import IrkaOptions, initial_data_from_spectrum, irka
from .metrics import h2_error
from .mmio import write_text
from .model import StateSpaceModel

log = logging.getLogger(__name__)

CSV_COLUMNS = ["model", "algorithm", "r", "k_outer", "k_inner_total", "n_lu_full",
               "n_lu_surrogate", "time_s", "rel_h2_error", "rel_h2_estimate",
               "converged", "init"]


def _round6(x):
    return None if x is None else float(f"{float(x):.6g}")


def format_float(x) -> str:
    """Six significant digits; scientific notation below 1e-3; '' for missing."""
    if x is None:
        return ""
    x = float(x)
    if x == 0.0:
        return "0"
    return f"{x:.5e}" if abs(x) < 1e-3 else f"{x:.6g}"


@dataclass(frozen=True)
class BenchmarkRow:
    """One benchmark cell, mirroring the result-table column semantics.

    IRKA rows leave ``k_inner_total``, ``n_lu_surrogate`` and
    ``rel_h2_estimate`` empty.  Floats are stored rounded to 6 significant
    digits so CSV/JSON round trips are exact.
    """

    model: str
    algorithm: str
    r: int
    k_outer: int
    k_inner_total: int | None
    n_lu_full: int
    n_lu_surrogate: int | None
    time_s: float
    rel_h2_error: float | None
    rel_h2_estimate: float | None
    converged: bool
    init: str


def initial_data(model: StateSpaceModel, r: int, init: str) -> InterpolationData:
    """Shared initializations: 'zero' (chain at 0, all-ones tangents) or 'eigs'."""
    if init == "zero":
        return InterpolationData.zero_init(r, model.m, model.p)
    if init == "eigs":
        return initial_data_from_spectrum(model, r)
    raise ValueError(f"unknown initialization '{init}' (zero or eigs)")


def _rel_error(model, rom) -> float | None:
    try:
        return h2_error(model, rom)[1]
    except ModelReductionError:     # an unstable rom (infinite error), or n + r too large
        return None


def run_benchmark(models, r_values, init: str = "zero",
                  algorithms=("irka", "cirka"), compute_errors: bool = True) -> list:
    """Run every (model, r, algorithm) cell from one shared initialization.

    ``models`` maps names to loaded models.  Failures in one cell are logged
    and recorded as a non-converged row; the run continues.  Rows come back
    sorted by (model, r, algorithm).
    """
    rows = []
    for name in sorted(models):
        model = models[name]
        for r in sorted(r_values):
            if r >= model.n:
                log.warning("skipping %s r=%d: not below model order %d", name, r, model.n)
                continue
            try:
                data0 = initial_data(model, r, init)
            except ModelReductionError as exc:
                log.error("initialization failed for %s r=%d: %s", name, r, exc)
                continue
            for algo in algorithms:
                rows.append(_run_cell(name, model, r, algo, data0, init, compute_errors))
    rows.sort(key=lambda row: (row.model, row.r, row.algorithm))
    return rows


def _run_cell(name, model, r, algo, data0, init, compute_errors) -> BenchmarkRow:
    """One cell; ``time_s`` is the algorithm call alone, without any check."""
    t0 = perf_counter()
    try:
        if algo == "irka":
            res = irka(model, data0, IrkaOptions())
        elif algo == "cirka":
            # the row reads no optimality report
            opts = CirkaOptions(verify_optimality=False)
            res = cirka(model, data0, opts)
        else:
            raise ValueError(f"unknown algorithm '{algo}'")
    except ModelReductionError as exc:
        log.error("cell (%s, r=%d, %s) failed: %s", name, r, algo, exc)
        return BenchmarkRow(model=name, algorithm=algo, r=r, k_outer=0,
                            k_inner_total=None, n_lu_full=0, n_lu_surrogate=None,
                            time_s=_round6(perf_counter() - t0), rel_h2_error=None,
                            rel_h2_estimate=None, converged=False, init=init)
    time_s = _round6(perf_counter() - t0)
    err = _round6(_rel_error(model, res.rom)) if compute_errors else None
    if algo == "irka":
        return BenchmarkRow(model=name, algorithm="irka", r=r,
                            k_outer=res.iterations, k_inner_total=None,
                            n_lu_full=res.counters.full_lu, n_lu_surrogate=None,
                            time_s=time_s, rel_h2_error=err, rel_h2_estimate=None,
                            converged=res.converged, init=init)
    return BenchmarkRow(model=name, algorithm="cirka", r=r,
                        k_outer=res.outer_iterations,
                        k_inner_total=res.counters.irka_steps_total,
                        n_lu_full=res.counters.full_lu,
                        n_lu_surrogate=res.counters.surrogate_lu,
                        time_s=time_s, rel_h2_error=err,
                        rel_h2_estimate=_round6(res.error_estimate),
                        converged=res.converged, init=init)


def results_to_string(rows, fmt: str) -> str:
    """Serialize rows as CSV (pinned column schema) or JSON (mirrors fields)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            d = asdict(row)
            record = []
            for col in CSV_COLUMNS:
                v = d[col]
                if col in ("time_s", "rel_h2_error", "rel_h2_estimate"):
                    record.append(format_float(v))
                elif v is None:
                    record.append("")
                elif isinstance(v, bool):
                    record.append("true" if v else "false")
                else:
                    record.append(str(v))
            writer.writerow(record)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps({"rows": [asdict(row) for row in rows]}, indent=2) + "\n"
    raise ValueError(f"unknown format '{fmt}' (csv or json)")


def write_results(rows, fmt: str, path) -> None:
    """Write rows to a file; see :func:`results_to_string` for the schemas."""
    write_text(path, results_to_string(rows, fmt))


def read_results_json(path) -> list:
    """Parse rows back from a JSON results file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return [BenchmarkRow(**d) for d in payload["rows"]]
