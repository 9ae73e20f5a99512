#!/usr/bin/env python3
"""Regenerate ``reference.json``: the outputs of the reference panel of the
``quote`` and ``exact_grid`` workloads (a*, knot vols, prices, exact prices
and exchange implied vols) at the current commit.

    python3 perfbench/make_reference.py

Run from the repository root.  Regenerate only when a change is meant to
alter these outputs, and say why in that change.
"""

import json
import os

import run


def main() -> None:
    root = os.getcwd()
    eo = run.import_exchopt(root)
    stored = {"panel_seed": run.PANEL_SEED}
    for name in run.PANEL_OPS:
        wl, pairs = run.panel(eo, name, root)
        stored[name] = [{"op": wl.describe(op), "out": out} for op, out in pairs]
    with open(run.REFERENCE, "w") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
