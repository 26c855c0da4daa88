"""Reproduction of *LMM-IR: Large-Scale Netlist-Aware Multimodal Framework
for Static IR-Drop Prediction* (DAC 2025).

Public API tour:

* :mod:`repro.nn` — from-scratch numpy deep-learning framework (the
  PyTorch substitute);
* :mod:`repro.spice` / :mod:`repro.pdn` / :mod:`repro.solver` — netlist
  model, synthetic PDN generation and golden static-IR solving;
* :mod:`repro.features` / :mod:`repro.pointcloud` — the two input
  modalities;
* :mod:`repro.core` — the LMM-IR model (circuit encoder, LNT,
  cross-attention fusion, attention-gated decoder) and the predictor
  pipeline;
* :mod:`repro.baselines` — IREDGe, IRPnet, contest-winner baselines;
* :mod:`repro.data` / :mod:`repro.train` — benchmark suites and the
  two-stage trainer;
* :mod:`repro.metrics` / :mod:`repro.eval` / :mod:`repro.viz` — contest
  metrics and the table/figure regeneration harness.
* :mod:`repro.knobs` — every ``REPRO_*`` environment knob, declared
  once.
"""

__version__ = "0.1.0"

from repro.core.model import LMMIR, LMMIRConfig
from repro.core.pipeline import IRPredictor
from repro.data.synthesis import make_suite, synthesize_case
from repro.solver.static import solve_static_ir

__all__ = [
    "LMMIR", "LMMIRConfig", "IRPredictor",
    "make_suite", "synthesize_case", "solve_static_ir",
    "__version__",
]
