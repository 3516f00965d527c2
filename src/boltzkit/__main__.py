"""Entry point of ``python -m boltzkit`` and the installed ``boltzkit``."""

import os
import sys


def main() -> int:
    """The CLI, with one BLAS thread unless the caller chose a count: its 1-D
    numpy kernels gain nothing from a BLAS worker. numpy reads the variables
    when it loads, so they are set before ``.cli`` is imported."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
