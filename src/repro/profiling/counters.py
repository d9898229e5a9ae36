"""Profiler counter records.

:class:`AppProfile` is everything the paper's performance model needs
about one (application, board, communication model) run — the output of
the "standard profiling tool" box in Fig. 2.

Real profiling tools emit garbage under contention (Ali & Yun, 2017):
NaN counters, negative times, impossibly large values.  Validation here
is the first guard of the robustness stack — a profile that would feed
garbage into eqns 1–4 is rejected at construction with a structured
:class:`~repro.errors.ProfilingError` instead of propagating downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ProfilingError

#: Counter fields that must be rates in [0, 1].
_RATE_FIELDS = ("cpu_l1_miss_rate", "cpu_llc_miss_rate", "gpu_l1_hit_rate")

#: Counter fields that must be non-negative times in seconds.
_TIME_FIELDS = ("cpu_time_s", "kernel_runtime_s", "copy_time_s", "total_runtime_s")

#: The numeric fields :class:`ProfileColumns` carries.
_COLUMN_FIELDS = _RATE_FIELDS + _TIME_FIELDS + (
    "gpu_transactions", "gpu_transaction_size")


@dataclass(frozen=True)
class AppProfile:
    """Counters of one profiled application run."""

    workload_name: str
    board_name: str
    model: str

    # CPU-side counters
    cpu_l1_miss_rate: float
    cpu_llc_miss_rate: float
    cpu_time_s: float

    # GPU-side counters
    gpu_l1_hit_rate: float
    gpu_transactions: int
    gpu_transaction_size: float
    kernel_runtime_s: float

    # communication
    copy_time_s: float
    total_runtime_s: float

    def __post_init__(self) -> None:
        # NaN/inf first: a non-finite counter fails every comparison
        # below silently, so it must be rejected explicitly.
        for name in _RATE_FIELDS + _TIME_FIELDS + (
                "gpu_transactions", "gpu_transaction_size"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ProfilingError(
                    f"{name} must be finite, got {value}",
                    code="PROFILE_COUNTER_NONFINITE",
                    details={"counter": name, "value": repr(value)},
                )
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ProfilingError(
                    f"{name} must be a rate in [0, 1], got {value}",
                    code="PROFILE_COUNTER_RANGE",
                    details={"counter": name, "value": value},
                )
        if self.gpu_transactions < 0:
            raise ProfilingError(
                "transaction count cannot be negative",
                code="PROFILE_COUNTER_NEGATIVE",
                details={"counter": "gpu_transactions",
                         "value": self.gpu_transactions},
            )
        if self.gpu_transaction_size < 0:
            raise ProfilingError(
                "transaction size cannot be negative",
                code="PROFILE_COUNTER_NEGATIVE",
                details={"counter": "gpu_transaction_size",
                         "value": self.gpu_transaction_size},
            )
        for name in _TIME_FIELDS:
            if getattr(self, name) < 0:
                raise ProfilingError(
                    f"{name} cannot be negative",
                    code="PROFILE_COUNTER_NEGATIVE",
                    details={"counter": name, "value": getattr(self, name)},
                )
        if self.copy_time_s > self.total_runtime_s > 0:
            raise ProfilingError(
                f"copy time ({self.copy_time_s}) exceeds total runtime "
                f"({self.total_runtime_s})",
                code="PROFILE_TIME_INCONSISTENT",
                details={"copy_time_s": self.copy_time_s,
                         "total_runtime_s": self.total_runtime_s},
            )

    @property
    def gpu_bytes_requested(self) -> float:
        """Kernel memory demand: ``t_n * t_size`` (bytes)."""
        return self.gpu_transactions * self.gpu_transaction_size

    @property
    def cpu_gpu_time_ratio(self) -> float:
        """``CPU_time / GPU_time`` — the overlap potential used by the
        speedup equations (3)-(4)."""
        if self.kernel_runtime_s <= 0:
            raise ProfilingError(
                "kernel runtime must be positive for the time ratio",
                code="PROFILE_TIME_INCONSISTENT",
                details={"kernel_runtime_s": self.kernel_runtime_s},
            )
        return self.cpu_time_s / self.kernel_runtime_s


@dataclass(frozen=True)
class ProfileColumns:
    """The numeric :class:`AppProfile` fields of many windows as aligned
    float64 arrays (``gpu_transactions`` keeps its integer dtype): one
    row per window, and optionally one column per app.

    ``valid`` marks the rows that describe a profile at all; on
    construction it is narrowed by exactly the conditions under which
    :meth:`AppProfile.__post_init__` would raise, so a row is valid iff
    building its ``AppProfile`` succeeds.  Values on invalid rows are
    unspecified.
    """

    cpu_l1_miss_rate: np.ndarray
    cpu_llc_miss_rate: np.ndarray
    cpu_time_s: np.ndarray
    gpu_l1_hit_rate: np.ndarray
    gpu_transactions: np.ndarray
    gpu_transaction_size: np.ndarray
    kernel_runtime_s: np.ndarray
    copy_time_s: np.ndarray
    total_runtime_s: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        # One stacked array, so the checks cost a few array operations
        # whatever the number of fields; rates lead (_COLUMN_FIELDS).
        values = np.stack([getattr(self, name) for name in _COLUMN_FIELDS])
        rates = values[:len(_RATE_FIELDS)]
        valid = (np.array(self.valid, dtype=bool) &
                 np.isfinite(values).all(axis=0) &
                 ((0.0 <= rates) & (rates <= 1.0)).all(axis=0) &
                 (values[len(_RATE_FIELDS):] >= 0).all(axis=0) &
                 ~((self.copy_time_s > self.total_runtime_s) &
                   (self.total_runtime_s > 0)))
        object.__setattr__(self, "valid", valid)

    @classmethod
    def from_profiles(cls, profiles: Sequence[AppProfile]
                      ) -> "ProfileColumns":
        """One row per (already validated) profile."""
        return cls(valid=np.ones(len(profiles), dtype=bool), **{
            name: np.array([getattr(p, name) for p in profiles])
            for name in _COLUMN_FIELDS})

    def row_profile(self, row: int, workload_name: str, board_name: str,
                    model: str) -> AppProfile:
        """Row ``row`` as an :class:`AppProfile`; an invalid row raises
        the error its validation gives."""
        return AppProfile(
            workload_name=workload_name, board_name=board_name, model=model,
            gpu_transactions=int(self.gpu_transactions[row]),
            **{name: float(getattr(self, name)[row])
               for name in _COLUMN_FIELDS if name != "gpu_transactions"})

    @classmethod
    def stack(cls, columns: Sequence["ProfileColumns"]) -> "ProfileColumns":
        """Equal-length columns side by side: ``(rows, len(columns))``."""
        return cls(**{name: np.stack([getattr(c, name) for c in columns],
                                     axis=1)
                      for name in _COLUMN_FIELDS + ("valid",)})

    def __getitem__(self, index) -> "ProfileColumns":
        """The same index applied to every column."""
        return ProfileColumns(**{name: getattr(self, name)[index]
                                 for name in _COLUMN_FIELDS + ("valid",)})

    def __len__(self) -> int:
        return len(self.valid)

    def gpu_traffic_bps(self) -> np.ndarray:
        """Off-chip GPU traffic rate ``t_n * t_size * (1 - l1_hit) /
        kernel_runtime`` per row — eqn 2's numerator, in the same
        float operation order as the scalar code."""
        return (self.gpu_transactions * self.gpu_transaction_size *
                (1.0 - self.gpu_l1_hit_rate) / self.kernel_runtime_s)
