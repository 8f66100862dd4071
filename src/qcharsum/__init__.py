"""qcharsum: exact verification of real character degree sums for GL(n, q) and U(n, q).

Layers, bottom to top:

* :mod:`qcharsum.exact`      -- integer polynomials, rational functions in q,
  truncated power series, and small multivariate polynomials; all arithmetic
  exact.  The polynomial core is pure Python (``IMPL_NAME`` is always
  ``"pure"``).
* :mod:`qcharsum.partitions` -- integer partitions and their statistics.
* :mod:`qcharsum.qseries`    -- named infinite-product generating functions
  expanded as exact truncated series.
* :mod:`qcharsum.polycount`  -- counts of monic irreducible polynomials and
  of the self-dual / paired orbit classes, with a brute-force census.
* :mod:`qcharsum.hl`         -- Hall-Littlewood principal specializations,
  Kostka-Foulkes matrices, Rogers-Szego polynomials, and a finite-variable
  oracle.
* :mod:`qcharsum.chars`      -- character degree sums, involution counts,
  and the eps-refined sums for the general linear and unitary families,
  plus the Weyl-group cases.
* :mod:`qcharsum.groups`     -- direct matrix-group enumeration at toy sizes.
* :mod:`qcharsum.verify`     -- the registry of named checks.
* :mod:`qcharsum.cli`        -- the ``qcharsum`` command.
"""

from ._kernel import IMPL_NAME
from .exact import QPoly, Rat, RatFunc, Series, SymPoly, qpow
from .partitions import Partition, enumerate_partitions, partitions_up_to
from .verify import CheckReport, CheckSpec, REGISTRY, run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CheckSpec",
    "IMPL_NAME",
    "Partition",
    "QPoly",
    "Rat",
    "RatFunc",
    "REGISTRY",
    "Series",
    "SymPoly",
    "enumerate_partitions",
    "partitions_up_to",
    "qpow",
    "run_all",
    "run_check",
    "__version__",
]
