"""Closed queueing-network substrate.

This subpackage contains the queueing-theoretic building blocks the paper's
performance model is constructed from:

* :mod:`repro.queueing.service_center` — service centers (queueing or delay)
  and per-class service demands;
* :mod:`repro.queueing.network` — closed multi-class network description;
* :mod:`repro.queueing.mva_exact` — exact Mean Value Analysis
  (Reiser & Lavenberg 1980);
* :mod:`repro.queueing.mva_approximate` — Schweitzer/Bard approximate MVA for
  large populations;
* :mod:`repro.queueing.mva_overlap` — approximate MVA whose queueing terms are
  weighted by task *overlap factors* (Mak & Lundstrom 1990), the variant the
  paper's modified-MVA loop relies on;
* :mod:`repro.queueing.forkjoin` — fork/join response-time estimates
  (Varki 1999), used by the fork/join job-response-time estimator;
* :mod:`repro.queueing.distributions` — Erlang and hyperexponential response
  time distributions, CV-based fitting, and max/sum composition used by the
  Tripathi estimator.
"""

from .service_center import CenterKind, ServiceCenter, ServiceDemand
from .network import ClosedNetwork, NetworkSolution
from .mva_exact import solve_mva_exact
from .mva_approximate import solve_mva_approximate
from .mva_overlap import OverlapFactors, solve_mva_with_overlaps
from .forkjoin import forkjoin_response_time, harmonic_number
from .distributions import (
    DistributionKind,
    ErlangDistribution,
    HyperexponentialDistribution,
    ResponseTimeDistribution,
    fit_distribution,
    maximum_of,
    sum_of,
)

__all__ = [
    "CenterKind",
    "ServiceCenter",
    "ServiceDemand",
    "ClosedNetwork",
    "NetworkSolution",
    "solve_mva_exact",
    "solve_mva_approximate",
    "OverlapFactors",
    "solve_mva_with_overlaps",
    "forkjoin_response_time",
    "harmonic_number",
    "DistributionKind",
    "ErlangDistribution",
    "HyperexponentialDistribution",
    "ResponseTimeDistribution",
    "fit_distribution",
    "maximum_of",
    "sum_of",
]
