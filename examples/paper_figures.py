#!/usr/bin/env python
"""Regenerate the paper's tables and figures from the command line.

    python examples/paper_figures.py --procs 16 --small       # quick pass
    python examples/paper_figures.py --procs 64               # full scale
    python examples/paper_figures.py --only f4 t3 --procs 16 --small
    python examples/paper_figures.py --procs 16 --small --jobs 4

Artifacts: t1 t2 t3 f4 f5 f6 f7 f8 f9 sweep quality

``--jobs N`` fans the simulations out over N worker processes through
the experiment engine (``repro.harness.runner``); the equivalent
``python -m repro figures`` subcommand adds a persistent on-disk result
store on top.
"""

import argparse

from repro.apps.mp3d_quality import quality_divergence
from repro.harness import (
    ARTIFACT_KEYS,
    all_artifact_specs,
    prefetch,
    render_artifact,
)


def quality() -> str:
    """Section 4.2's mp3d result quality (runs its own comparison; it is
    not a set of simulation specs)."""
    return "Section 4.2 mp3d quality (lazy vs SC):\n" + "\n".join(
        f"  {k}: {v * 100:.3f}%" for k, v in quality_divergence(steps=10).items()
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--procs", type=int, default=16)
    ap.add_argument("--small", action="store_true", help="use the small presets")
    ap.add_argument("--only", nargs="*", default=None, help="subset of artifacts")
    ap.add_argument("--jobs", type=int, default=1,
                    help="parallel worker processes for the simulations")
    args = ap.parse_args()
    n, small = args.procs, args.small

    wanted = args.only or [*ARTIFACT_KEYS, "quality"]
    if args.jobs > 1:
        # Warm the in-process memo in parallel; rendering below is then free.
        keys = [k for k in wanted if k != "quality"]
        prefetch(all_artifact_specs(keys, n_procs=n, small=small), jobs=args.jobs)
    for key in wanted:
        print(quality() if key == "quality" else render_artifact(key, n, small))
        print("=" * 72)


if __name__ == "__main__":
    main()
