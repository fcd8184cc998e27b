"""Network-coded cooperative relaying: finite-field codes, closed-form
outage bounds, and reproducible Monte Carlo simulation.

Layers, lowest first:

  gf         GF(2^l) scalar arithmetic on log/antilog tables
  ffmat      dense matrices over a field: rank, solving, subset-rank metrics
  netcode    systematic relay-code constructions, encoding and recovery
  analytic   closed-form outage bounds and diversity-multiplexing curves
  simkernel  chunked, counter-seeded Monte Carlo outage sweeps
  cli        the ``coopcode`` command-line driver

The simulator is not re-exported: import it as ``coopcode.simkernel``, so
that importing the package, or the CLI, loads no simulator.
"""

from .gf import Field, field_new
from .ffmat import FfMatrix, load_matrix
from .netcode import (
    FieldTooSmallError,
    NetworkCode,
    build_cauchy,
    build_explicit,
    build_random,
    build_vandermonde,
    dump_code,
    encode,
    load_code,
    mds_check,
    min_distance,
    recover,
)
from .analytic import (
    DmtCurve,
    LinkParams,
    OutageBounds,
    dmt_curve,
    loglog_slope,
    outage_bounds_multicast,
    outage_bounds_unicast,
    selection_cdf_approx,
    system_outage,
)

__version__ = "0.1.0"
