"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload sparse-irka --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/h2mor`` there and nowhere else.  BLAS threads are pinned to one before
numpy is loaded, because LU counts must repeat exactly and multi-threaded
BLAS may sum in another order, which can move the iterates.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2
    if not (SRC / "h2mor" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'h2mor'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import h2mor

    if Path(h2mor.__file__).resolve().parent != (SRC / "h2mor").resolve():
        print(f"error: imported h2mor from {h2mor.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from harness import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}' (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        out_dir=BENCH_DIR / "out", blas_threads=BLAS_THREADS)
    if set(line["metrics"]) != set(declared):
        print(f"error: measured metrics {sorted(line['metrics'])} differ from the declared "
              f"{sorted(declared)}", file=sys.stderr)
        return 3
    line["metrics"] = {name: {"value": line["metrics"][name], "unit": unit}
                       for name, unit in declared.items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
