"""Time-to-accuracy benchmark of mpcqp.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mpc_loop --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  Detailed records and span files go
to ``.perfbench_out/`` at the checkout root.  See README.md here.
"""

import os

# one BLAS thread, pinned before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("mpc_loop", "cold_condense", "scenario_tree")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "mpcqp" / "__init__.py").is_file():
        print(f"error: no mpcqp sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import mpcqp
    if not Path(mpcqp.__file__).resolve().is_relative_to(src):
        print(f"error: mpcqp imported from {mpcqp.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench import harness

    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        lines, result = harness.run(name, args.seed, args.seconds, args.trace,
                                    ROOT, ROOT / ".perfbench_out")
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
