"""Write perfbench/pools.json: which draws each workload may use.

Every draw k of a kind is answered once through thetalab.cli and checked;
a draw whose answer fails or is wrong goes into the kind's ``excluded``
map with the reason.  Such failures depend on the input, so they cannot be
kept in a run that must fail the same share of answers on every seed; each
fault is measured instead by its fixed reproducer (inputs.FAULTS).

    PYTHONPATH=src python3 perfbench/vet.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import thetalab.cli  # noqa: E402,F401  (run_cli calls it)

import checks  # noqa: E402
import inputs  # noqa: E402
from worker import run_cli  # noqa: E402

# draws vetted of each kind; pools.json was written with these
SURFACE_DRAWS, PRODUCT_DRAWS, TRACE_DRAWS = 200, 100, 192


def vet(kind, draws, workdir):
    excluded = {}
    for k in range(draws):
        if kind == "product":
            t1, t2 = inputs.draw_product(k)
            argv = ["product-case", f"--tau1={inputs.format_complex(t1)}",
                    f"--tau2={inputs.format_complex(t2)}", "--seed", str(k)]
        else:
            path = os.path.join(workdir, f"Z{k}.json")
            inputs.write_period_matrix(path, inputs.draw_period_matrix(k))
            if kind == "surface":
                argv = ["verify-surface", "--period-matrix", path, "--seed", str(k)]
            else:
                argv = ["trace-curve", "--period-matrix", path, "--grid", str(inputs.TRACE_GRID)]
        _, fail, out, _ = run_cli(argv)
        rec = {"kind": "verify" if kind == "surface" else kind, "facts": {"draw": k},
               "fail": fail, "out": out}
        reason = fail or "; ".join(checks.check_record(rec))
        if reason:
            excluded[str(k)] = reason
            print(f"{kind} draw {k}: {reason}", file=sys.stderr)
    return {"draws": draws, "excluded": excluded}


def main():
    with tempfile.TemporaryDirectory(dir=".") as workdir:
        pools = {
            "surface": vet("surface", SURFACE_DRAWS, workdir),
            "product": vet("product", PRODUCT_DRAWS, workdir),
            "trace": dict(grid=inputs.TRACE_GRID, **vet("trace", TRACE_DRAWS, workdir)),
        }
    with open(inputs.POOLS_FILE, "w") as fh:
        json.dump(pools, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
