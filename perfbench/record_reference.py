"""Record the dodge beta distances the study-dodge check compares against.

    python3 perfbench/record_reference.py --seeds 0-99 [--jobs 2]

Fits every ``fpqr-dodge`` op of the study-dodge workload for each seed and
writes ``perfbench/reference.json`` (seed -> beta distances in op order).
Run it on the commit whose results are the reference; a change that moves
these values beyond the check's tolerance changes what dodge computes.
"""

import argparse
import json
import multiprocessing
import os
import sys
import warnings

import run
from spread import seed_range

REFERENCE = run.HERE / "reference.json"


def dodge_distances(seed):
    fpqr = run.import_package()
    import workloads

    workload = workloads.StudyDodge()
    workload.setup(seed, None)
    distances = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for recipe, components, _, (X, Y, _, _, B) in workload.items:
            if recipe.metric == "dodge":
                model = recipe.fit(X, Y, components)
                distances.append(fpqr.beta_distance(model.coefficients, B))
    return seed, distances


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-99"))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        recorded = dict(pool.map(dodge_distances, args.seeds))
    REFERENCE.write_text(
        json.dumps({str(seed): recorded[seed] for seed in sorted(recorded)}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(recorded)} seeds in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
