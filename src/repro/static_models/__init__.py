"""Static MapReduce performance models from related work (paper Section 2.1).

These models ignore queueing and synchronisation delays but are important for
two reasons:

* **Herodotou's phase-level cost model** is the initialisation source the
  paper recommends for the modified-MVA loop (Section 4.2.1, "obtaining from
  the existing static cost models ... leads to faster algorithm convergence");
* **ARIA** (Verma et al.) and **Vianna et al.'s Hadoop 1.x model** are the
  baselines the paper positions itself against; the Vianna model in
  particular is the reference whose ~15 % error the paper improves to
  11–13.5 %.
"""

from .herodotou import HadoopEnvironment, HerodotouEstimate, WordcountStatistics
from .aria import AriaBounds, AriaJobProfile, AriaModel
from .vianna import ViannaHadoop1Model, ViannaPrediction

__all__ = [
    "HadoopEnvironment",
    "HerodotouEstimate",
    "WordcountStatistics",
    "AriaBounds",
    "AriaJobProfile",
    "AriaModel",
    "ViannaHadoop1Model",
    "ViannaPrediction",
]
