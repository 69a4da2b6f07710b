"""Reproduction of *SPLIT: QoS-Aware DNN Inference on Shared GPU via
Evenly-Sized Model Splitting* (ICPP 2023).

Top-level re-exports cover the common offline + online workflow; see the
subpackages for the full surface:

* :mod:`repro.zoo` — operator-level model builders (Table 1 exact);
* :mod:`repro.hardware` — calibrated Jetson-Nano performance model;
* :mod:`repro.profiling` — per-operator / per-cut profiles;
* :mod:`repro.splitting` — the GA and its metrics (Eqs. 1-2);
* :mod:`repro.scheduling` — greedy preemption (Alg. 1, Eq. 3) + baselines;
* :mod:`repro.runtime` — discrete-event serving simulation (Figs. 6-7);
* :mod:`repro.server` — threaded serving pipeline (Fig. 4);
* :mod:`repro.analysis` — queueing theory, Pareto, sensitivity tools;
* :mod:`repro.experiments` — one module per paper table/figure.

The re-exports resolve on first access, so ``import repro.<sub>`` loads
only ``<sub>`` and what it imports, and ``import repro`` binds no
subpackage attribute until one is imported.
"""

__version__ = "1.0.0"

_EXPORTS = {
    "jetson_nano": "repro.hardware",
    "Profiler": "repro.profiling",
    "SCENARIOS": "repro.runtime",
    "Scenario": "repro.runtime",
    "simulate": "repro.runtime",
    "greedy_insert": "repro.scheduling",
    "SplitServer": "repro.server",
    "GAConfig": "repro.splitting",
    "GeneticSplitter": "repro.splitting",
    "get_model": "repro.zoo",
    "model_names": "repro.zoo",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [*_EXPORTS, "__version__"]
