"""Console-script entry of the ``nablalg`` command.

It lives outside the package so that it runs before numpy is imported.  The
boolean products of ``nablalg.lattice._compose`` are small float32 matrix
products, and an OpenBLAS pool of several threads makes them many times
slower than one thread does on the few cores a CLI process gets.  So the
pool is pinned to one thread unless the environment already sets it;
``import nablalg`` leaves the environment alone.
"""

import os

POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def entry() -> None:
    for name in POOL_VARIABLES:
        os.environ.setdefault(name, "1")
    from nablalg.cli import entry as cli_entry

    cli_entry()


if __name__ == "__main__":
    entry()
