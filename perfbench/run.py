"""Time-to-equilibrium benchmark for mfgflow.

Run from the repository root:

    python3 perfbench/run.py --workload presets-1d --seed 0 --seconds 30 --trace 0

Workloads: presets-1d, presets-2d, stress-1d, refine-1d (see
BENCHMARK.json for why each exists).  The last line of standard output
is a JSON object {correct, attempted, failed, metrics}; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.  The package is
imported from the checkout's own src/ directory, never from elsewhere;
without it the run exits with status 2 and prints no result.
"""

import os

# One process, one thread: pin every BLAS/OpenMP pool before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    """Import mfgflow from this checkout's src/ or exit with status 2."""
    sys.path.insert(0, str(SRC))
    try:
        import mfgflow
    except ImportError as exc:
        print(f"perfbench: cannot import mfgflow from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(mfgflow.__file__).resolve().parents:
        print(f"perfbench: mfgflow resolved outside {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    import_package()
    import harness
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=harness.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only perform the workload's set-up, print 'ready', exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        workloads.build(args.workload, args.seed, workloads.SIZES[args.size])
        print("ready", flush=True)
        return 0
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
