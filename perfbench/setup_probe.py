"""Set-up time of one workload in a fresh process, as every CLI call pays it.

Times from before ``import jumpnls`` until the problem is assembled:
``load_config`` then ``build_problem_from_spec``, which builds the spectral
model and the problem at the configured level (for ``converge`` that is the
fine level).  Prints one JSON object with the time and the library versions.

    python3 perfbench/setup_probe.py perfbench/workloads/ensemble-1d.ini
"""

import json
import sys
import time


def main(ini: str) -> None:
    t0 = time.perf_counter()
    from jumpnls.config import build_problem_from_spec, load_config

    build_problem_from_spec(load_config(ini))
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }))


if __name__ == "__main__":
    main(sys.argv[1])
