"""repro.hetero — heterogeneous & stochastic platform scheduling.

Two-type (LP/HP) platforms with per-type power curves, typed
task-to-core assignment with rejection, per-core DVFS, stochastic
execution cycles with expected-energy frequency selection, and
(m,k)-firm skip specifications.

Exports resolve lazily (PEP 562): ``core.rejection.online`` imports
:mod:`repro.hetero.mk` at class-definition time, and an eager package
``__init__`` would close the cycle ``core.rejection → online → hetero →
assign → core.rejection``.  Lazy attribute access keeps ``import
repro.hetero`` free of heavy (and cyclic) imports until a symbol is
actually touched.
"""

from __future__ import annotations

from importlib import import_module

_EXPORTS = {
    # platform
    "CORE_TYPE_PRESETS": "repro.hetero.platform",
    "CoreType": "repro.hetero.platform",
    "Platform": "repro.hetero.platform",
    "lp_hp_platform": "repro.hetero.platform",
    "parse_cores_spec": "repro.hetero.platform",
    # mk
    "MKSpec": "repro.hetero.mk",
    "mk_window_ok": "repro.hetero.mk",
    # assignment
    "HeteroRejectionProblem": "repro.hetero.assign",
    "HeteroRejectionSolution": "repro.hetero.assign",
    "exhaustive_hetero": "repro.hetero.assign",
    "hetero_pooled_lower_bound": "repro.hetero.assign",
    "typed_global_reject": "repro.hetero.assign",
    "typed_ltf_reject": "repro.hetero.assign",
    # dvfs
    "CoreDVFS": "repro.hetero.dvfs",
    "dvfs_plans": "repro.hetero.dvfs",
    "dvfs_summary": "repro.hetero.dvfs",
    # stochastic
    "CycleDistribution": "repro.hetero.stochastic",
    "StochasticHeteroProblem": "repro.hetero.stochastic",
    "StochasticTask": "repro.hetero.stochastic",
    "expected_energy": "repro.hetero.stochastic",
    "select_speed": "repro.hetero.stochastic",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
