"""One `evo` gate run: perfbench's synthetic fitness in place of training.

    python gates/evo.py DIR --iterations N [--stop-after K] [--resume]

Runs `codesign.run` for seed 5 and `cma.max_iterations=N` into DIR: fresh,
or stopped after iteration K, or resumed from DIR's last commit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SEED = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--stop-after", type=int, default=None)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import bootstrap

    bootstrap.prepare()
    from workloads import synthetic_fitness

    from gearevo import codesign
    from gearevo.cli import parse_config

    cfg = parse_config(None, [f"cma.max_iterations={args.iterations}", f"run.seed={SEED}"])
    codesign.run(cfg, out_dir=args.out, fitness_fn=synthetic_fitness(SEED),
                 stop_after=args.stop_after, resume=args.resume)
    return 0


if __name__ == "__main__":
    sys.exit(main())
