"""Reference floors and the environment, for the benchmark's README.

    python3 perfbench/floors.py

Times, with BLAS pinned to one thread as in the benchmark, the median of
REPEATS calls of np.linalg.svd on a Haar 2n x n matrix and of
scipy.linalg.cossin on a Haar 2n x 2n unitary, at the benchmark's sizes,
and prints them with the versions and thread settings as one JSON object.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from inputs import haar  # noqa: E402

REPEATS = 15
SIZES = (120, 240)


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    rng = np.random.default_rng(1)
    floors = {}
    for n in SIZES:
        a = haar(rng, 2 * n, n)
        q = haar(rng, 2 * n, 2 * n)
        floors[f"svd_{2 * n}x{n}_s"] = median_time(lambda: np.linalg.svd(a))
        floors[f"cossin_{2 * n}x{2 * n}_s"] = median_time(
            lambda: scipy.linalg.cossin(q, p=n, q=n))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "floors": floors,
    }, indent=1))


if __name__ == "__main__":
    main()
