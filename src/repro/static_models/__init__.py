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

The names below are exported lazily (PEP 562): Vianna's model runs on the
MVA solver, which the closed-form models need not load.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".herodotou": ("HadoopEnvironment", "HerodotouEstimate", "WordcountStatistics"),
        ".aria": ("AriaBounds", "AriaJobProfile", "AriaModel"),
        ".vianna": ("ViannaHadoop1Model", "ViannaPrediction"),
    },
)
