"""JSON serialisation of task sets, problem specs, and solutions.

Instances travel as plain JSON so they can be versioned, diffed, shared
with other tools, and replayed bit-exactly:

* :func:`save_instance` / :func:`load_instance` — a frame-based
  rejection instance: tasks + platform (power model, deadline, energy
  model kind, dormant parameters).  Both uniprocessor
  (:class:`~repro.core.rejection.problem.RejectionProblem`) and
  partitioned-multiprocessor
  (:class:`~repro.core.rejection.multiproc.MultiprocRejectionProblem`)
  instances round-trip; a multiprocessor payload carries
  ``"processors": m`` and uniprocessor payloads are unchanged, so files
  written by earlier versions still load;
* :func:`solution_to_dict` — a solved instance's decision + cost
  breakdown + speed plan (uniprocessor) or per-processor assignment
  (multiprocessor / heterogeneous), ready for ``json.dump``.

Heterogeneous instances (:class:`repro.hetero.HeteroRejectionProblem`)
carry a ``"platform"`` object (deadline + typed core groups, each with
its own power model) instead of a single ``"energy_fn"``; stochastic
instances (:class:`repro.hetero.StochasticHeteroProblem`) additionally
spell each task's ``"cycles"`` as a distribution object
(``{"kind": ..., "params": [...]}``), and either may attach an
``"mk": {"m": ..., "k": ...}`` skip spec.  Uniprocessor and
homogeneous-multiprocessor payloads are byte-identical to earlier
versions.

Malformed files fail with a one-line ``ValueError`` naming the
offending field (``instance field tasks[3].cycles: ...``) — the CLI
prints it verbatim and exits 2.

The schema is deliberately explicit (no pickling, no class names) so a
non-Python consumer can read it; ``schema_version`` guards evolution.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.rejection import (
    MultiprocRejectionProblem,
    MultiprocRejectionSolution,
    RejectionProblem,
    RejectionSolution,
)
from repro.energy import (
    ContinuousEnergyFunction,
    CriticalSpeedEnergyFunction,
    DiscreteEnergyFunction,
    EnergyFunction,
)
from repro.hetero.assign import HeteroRejectionProblem, HeteroRejectionSolution
from repro.hetero.mk import MKSpec
from repro.hetero.platform import CoreType, Platform
from repro.hetero.stochastic import (
    CycleDistribution,
    StochasticHeteroProblem,
    StochasticTask,
)
from repro.power import DormantMode, PolynomialPowerModel
from repro.power.discrete import SpeedLevels
from repro.tasks import FrameTask, FrameTaskSet

SCHEMA_VERSION = 1

#: Union of everything :func:`save_instance` / :func:`load_instance` handle.
AnyProblem = (
    "RejectionProblem | MultiprocRejectionProblem | HeteroRejectionProblem"
    " | StochasticHeteroProblem"
)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require(data: Any, key: str, path: str) -> Any:
    """Fetch ``data[key]`` with a field-path error on failure.

    Every structural access in the readers goes through here (or the
    sibling checks below), so a malformed file always dies with a
    single line naming the offending field instead of a raw
    ``KeyError`` traceback.  *path* is the dotted location of *data*
    itself (empty at the document root).
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"instance field {path or '<root>'}: expected an object, "
            f"got {type(data).__name__}"
        )
    if key not in data:
        raise ValueError(f"instance field {_join(path, key)}: missing")
    return data[key]


def _require_number(data: Any, key: str, path: str) -> float:
    value = _require(data, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"instance field {_join(path, key)}: expected a number, "
            f"got {value!r}"
        )
    return value


def _require_int(data: Any, key: str, path: str) -> int:
    value = _require(data, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"instance field {_join(path, key)}: expected an integer, "
            f"got {value!r}"
        )
    return value


def _require_str(data: Any, key: str, path: str) -> str:
    value = _require(data, key, path)
    if not isinstance(value, str):
        raise ValueError(
            f"instance field {_join(path, key)}: expected a string, "
            f"got {value!r}"
        )
    return value


def _require_list(data: Any, key: str, path: str) -> list:
    value = _require(data, key, path)
    if not isinstance(value, list):
        raise ValueError(
            f"instance field {_join(path, key)}: expected a list, "
            f"got {type(value).__name__}"
        )
    return value


def _power_model_to_dict(model: PolynomialPowerModel) -> dict[str, Any]:
    if not isinstance(model, PolynomialPowerModel):
        raise TypeError(
            "only PolynomialPowerModel instances are serialisable "
            f"(got {type(model).__name__}); CMOS models can be fitted to "
            "a polynomial for interchange"
        )
    return {
        "kind": "polynomial",
        "beta0": model.beta0,
        "beta1": model.beta1,
        "alpha": model.alpha,
        "s_min": model.s_min,
        "s_max": model.s_max,
    }


def _power_model_from_dict(
    data: dict[str, Any], path: str = "power_model"
) -> PolynomialPowerModel:
    kind = _require(data, "kind", path)
    if kind != "polynomial":
        raise ValueError(
            f"instance field {path}.kind: unsupported power model kind {kind!r}"
        )
    return PolynomialPowerModel(
        beta0=_require_number(data, "beta0", path),
        beta1=_require_number(data, "beta1", path),
        alpha=_require_number(data, "alpha", path),
        s_min=data.get("s_min", 0.0),
        s_max=_require_number(data, "s_max", path),
    )


def _energy_fn_to_dict(fn: EnergyFunction) -> dict[str, Any]:
    if isinstance(fn, ContinuousEnergyFunction):
        return {
            "kind": "continuous",
            "deadline": fn.deadline,
            "power_model": _power_model_to_dict(fn.power_model),
        }
    if isinstance(fn, CriticalSpeedEnergyFunction):
        return {
            "kind": "critical",
            "deadline": fn.deadline,
            "power_model": _power_model_to_dict(fn.power_model),
            "dormant": {"t_sw": fn.dormant.t_sw, "e_sw": fn.dormant.e_sw},
        }
    if isinstance(fn, DiscreteEnergyFunction):
        data: dict[str, Any] = {
            "kind": "discrete",
            "deadline": fn.deadline,
            "power_model": _power_model_to_dict(fn.power_model),
            "levels": list(fn.levels.speeds),
            "dormant_enable": fn.dormant_enable,
        }
        if fn.dormant is not None:
            data["dormant"] = {"t_sw": fn.dormant.t_sw, "e_sw": fn.dormant.e_sw}
        return data
    raise TypeError(f"cannot serialise energy function {type(fn).__name__}")


def _energy_fn_from_dict(
    data: dict[str, Any], path: str = "energy_fn"
) -> EnergyFunction:
    kind = _require(data, "kind", path)
    model = _power_model_from_dict(
        _require(data, "power_model", path), f"{path}.power_model"
    )
    deadline = _require_number(data, "deadline", path)
    if kind == "continuous":
        return ContinuousEnergyFunction(model, deadline)
    if kind == "critical":
        dormant = data.get("dormant", {})
        return CriticalSpeedEnergyFunction(
            model,
            deadline,
            dormant=DormantMode(
                t_sw=dormant.get("t_sw", 0.0), e_sw=dormant.get("e_sw", 0.0)
            ),
        )
    if kind == "discrete":
        dormant: DormantMode | None = None
        if data.get("dormant_enable"):
            overheads = data.get("dormant", {})
            dormant = DormantMode(
                t_sw=overheads.get("t_sw", 0.0),
                e_sw=overheads.get("e_sw", 0.0),
            )
        return DiscreteEnergyFunction(
            model,
            SpeedLevels(_require_list(data, "levels", path)),
            deadline,
            dormant=dormant,
        )
    raise ValueError(
        f"instance field {path}.kind: unsupported energy function kind {kind!r}"
    )


def _platform_to_dict(platform: Platform) -> dict[str, Any]:
    return {
        "deadline": platform.deadline,
        "core_types": [
            {
                "name": t.name,
                "count": t.count,
                "power_model": _power_model_to_dict(t.power_model),
            }
            for t in platform.core_types
        ],
    }


def _platform_from_dict(data: dict[str, Any], path: str = "platform") -> Platform:
    deadline = _require_number(data, "deadline", path)
    entries = _require_list(data, "core_types", path)
    core_types: list[CoreType] = []
    for idx, entry in enumerate(entries):
        sub = f"{path}.core_types[{idx}]"
        core_types.append(
            CoreType(
                name=_require_str(entry, "name", sub),
                count=_require_int(entry, "count", sub),
                power_model=_power_model_from_dict(
                    _require(entry, "power_model", sub), f"{sub}.power_model"
                ),
            )
        )
    try:
        return Platform(core_types=tuple(core_types), deadline=deadline)
    except ValueError as exc:
        raise ValueError(f"instance field {path}: {exc}") from None


def _mk_from_dict(data: Any, path: str = "mk") -> MKSpec:
    try:
        return MKSpec.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"instance field {path}: {exc}") from None


def instance_to_dict(problem) -> dict[str, Any]:
    """The JSON-ready representation of a rejection instance.

    A :class:`MultiprocRejectionProblem` additionally carries
    ``"processors": m``; uniprocessor payloads omit the key entirely, so
    the uniprocessor schema is byte-identical to earlier versions.
    Heterogeneous instances carry ``"platform"`` (and optionally
    ``"mk"``) instead of ``"energy_fn"``; stochastic ones spell each
    task's cycles as a distribution object.
    """
    if isinstance(problem, (HeteroRejectionProblem, StochasticHeteroProblem)):
        if isinstance(problem, StochasticHeteroProblem):
            tasks = [
                {
                    "name": t.name,
                    "cycles": t.dist.to_dict(),
                    "penalty": t.penalty,
                }
                for t in problem.tasks
            ]
        else:
            tasks = [
                {"name": t.name, "cycles": t.cycles, "penalty": t.penalty}
                for t in problem.tasks
            ]
        data: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "tasks": tasks,
            "platform": _platform_to_dict(problem.platform),
        }
        if problem.mk is not None:
            data["mk"] = problem.mk.to_dict()
        return data
    if not isinstance(problem, (RejectionProblem, MultiprocRejectionProblem)):
        raise TypeError(
            f"cannot serialise instance of type {type(problem).__name__}"
        )
    data = {
        "schema_version": SCHEMA_VERSION,
        "tasks": [
            {"name": t.name, "cycles": t.cycles, "penalty": t.penalty}
            for t in problem.tasks
        ],
        "energy_fn": _energy_fn_to_dict(problem.energy_fn),
    }
    if isinstance(problem, MultiprocRejectionProblem):
        data["processors"] = int(problem.m)
    return data


def instance_from_dict(data: dict[str, Any]):
    """Rebuild a rejection instance from :func:`instance_to_dict` output.

    Payloads with a ``"platform"`` key come back as
    :class:`~repro.hetero.assign.HeteroRejectionProblem` (or
    :class:`~repro.hetero.stochastic.StochasticHeteroProblem` when any
    task's cycles is a distribution object); ``"processors"`` payloads
    as :class:`MultiprocRejectionProblem`; all others as
    :class:`RejectionProblem`.
    """
    version = _require(data, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    entries = _require_list(data, "tasks", "")
    hetero = "platform" in data
    stochastic = hetero and any(
        isinstance(t, dict) and isinstance(t.get("cycles"), dict)
        for t in entries
    )
    if stochastic:
        stasks: list[StochasticTask] = []
        for idx, entry in enumerate(entries):
            sub = f"tasks[{idx}]"
            cycles = _require(entry, "cycles", sub)
            if isinstance(cycles, dict):
                try:
                    dist = CycleDistribution.from_dict(cycles)
                except ValueError as exc:
                    raise ValueError(
                        f"instance field {sub}.cycles: {exc}"
                    ) from None
            else:
                if isinstance(cycles, bool) or not isinstance(
                    cycles, (int, float)
                ):
                    raise ValueError(
                        f"instance field {sub}.cycles: expected a number or "
                        f"distribution object, got {cycles!r}"
                    )
                dist = CycleDistribution.fixed(cycles)
            stasks.append(
                StochasticTask(
                    name=_require_str(entry, "name", sub),
                    dist=dist,
                    penalty=_require_number(entry, "penalty", sub),
                )
            )
        return StochasticHeteroProblem(
            tasks=tuple(stasks),
            platform=_platform_from_dict(_require(data, "platform", "")),
            mk=_mk_from_dict(data["mk"]) if "mk" in data else None,
        )
    frame_tasks: list[FrameTask] = []
    for idx, entry in enumerate(entries):
        sub = f"tasks[{idx}]"
        frame_tasks.append(
            FrameTask(
                name=_require_str(entry, "name", sub),
                cycles=_require_number(entry, "cycles", sub),
                penalty=_require_number(entry, "penalty", sub),
            )
        )
    tasks = FrameTaskSet(frame_tasks)
    if hetero:
        if "energy_fn" in data:
            raise ValueError(
                "instance field energy_fn: a platform payload carries its "
                "own per-type curves; energy_fn is not allowed"
            )
        return HeteroRejectionProblem(
            tasks=tasks,
            platform=_platform_from_dict(_require(data, "platform", "")),
            mk=_mk_from_dict(data["mk"]) if "mk" in data else None,
        )
    energy_fn = _energy_fn_from_dict(_require(data, "energy_fn", ""))
    if "processors" in data:
        m = _require_int(data, "processors", "")
        return MultiprocRejectionProblem(tasks=tasks, energy_fn=energy_fn, m=m)
    return RejectionProblem(tasks=tasks, energy_fn=energy_fn)


def save_instance(problem, path: str | Path) -> Path:
    """Write *problem* to *path* as JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(instance_to_dict(problem), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_instance(path: str | Path):
    """Read a rejection instance written by :func:`save_instance`."""
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def solution_to_dict(
    solution: RejectionSolution | MultiprocRejectionSolution,
) -> dict[str, Any]:
    """JSON-ready dump of a solution.

    Uniprocessor solutions carry the optimal speed plan; multiprocessor
    solutions carry the per-processor assignment and loads instead;
    heterogeneous solutions add per-core types and DVFS speeds.
    """
    if isinstance(solution, MultiprocRejectionSolution):
        return _partitioned_solution_to_dict(solution)
    plan = solution.speed_plan()
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": solution.algorithm,
        "cost": solution.cost,
        "energy": solution.energy,
        "penalty": solution.penalty,
        "accepted": sorted(t.name for t in solution.accepted_tasks),
        "rejected": sorted(t.name for t in solution.rejected_tasks),
        "acceptance_ratio": solution.acceptance_ratio,
        "speed_plan": [
            {
                "start": seg.start,
                "end": seg.end,
                "speed": seg.speed,
            }
            for seg in plan.segments
        ],
        "meta": {k: v for k, v in solution.meta.items()},
    }


def _partitioned_solution_to_dict(
    solution: MultiprocRejectionSolution,
) -> dict[str, Any]:
    """The keys both partitioned kinds share, plus each kind's own.

    Identical processors add ``processors``, ``assignment`` and
    ``loads``; a typed platform adds ``platform``, ``cores`` (per-core
    DVFS rows) and, when the instance carries one, ``mk``.
    """
    problem = solution.problem
    tasks = problem.tasks
    data: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": solution.algorithm,
        "cost": solution.cost,
        "energy": solution.breakdown.energy,
        "penalty": solution.breakdown.penalty,
        "accepted": sorted(
            tasks[i].name for i in range(problem.n) if i not in solution.rejected
        ),
        "rejected": sorted(tasks[i].name for i in solution.rejected),
        "acceptance_ratio": solution.acceptance_ratio,
    }
    if isinstance(solution, HeteroRejectionSolution):
        from repro.hetero.dvfs import dvfs_summary

        data["platform"] = _platform_to_dict(problem.platform)
        data["cores"] = dvfs_summary(solution)
        if problem.mk is not None:
            data["mk"] = problem.mk.to_dict()
    else:
        data["processors"] = problem.m
        data["assignment"] = [
            sorted(tasks[i].name for i in bucket)
            for bucket in solution.partition.assignments
        ]
        data["loads"] = solution.loads()
    return data
