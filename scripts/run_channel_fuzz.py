"""Random-channel property sweep: operator Jensen floor, duality,
paired second-moment growth. Each row depends only on its case index."""

import argparse
import sys
from pathlib import Path

import numpy as np

from weakinv.cli import emit_series, emit_verdict
from weakinv.config import validate_config
from weakinv.scenarios import run_scenario


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-channels", type=int, default=200)
    ap.add_argument("--max-dim", type=int, default=6)
    ap.add_argument("--max-kraus", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--output-dir", default="out_channel_fuzz")
    args = ap.parse_args()

    cfg = validate_config({
        "scenario": "channel_fuzz",
        "seed": args.seed,
        "params": {"n_channels": args.n_channels,
                   "max_dim": args.max_dim,
                   "max_kraus": args.max_kraus},
    })
    result = run_scenario(cfg)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_series(result, out / "series.csv")
    emit_verdict(result, out / "verdict.json")

    gaps = np.asarray(result.columns["growth_formula"])
    print(f"{args.n_channels} channels, worst gap eigenvalue "
          f"{gaps.min():.3e}, median {np.median(gaps):.3e}")
    for c in result.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: "
              f"{c.measured:.3e}")
    return 0 if result.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
