"""Device characterization: what the micro-benchmarks learn about a board.

This is the device-side input of the Fig-2 decision flow.  It is
produced by :class:`repro.microbench.suite.MicrobenchmarkSuite` and is
application-independent: characterize a board once, tune any number of
applications against it (exactly the workflow the paper proposes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ModelError
from repro.model.thresholds import ThresholdAnalysis


@dataclass(frozen=True)
class DeviceCharacterization:
    """Micro-benchmark-extracted characteristics of one board."""

    board_name: str
    io_coherent: bool

    #: GPU LL-L1 peak throughput per communication model (Table I),
    #: keyed by "SC" / "UM" / "ZC", in bytes/s.
    gpu_cache_throughput: Dict[str, float]

    #: CPU LLC peak throughput per model, same keys.
    cpu_cache_throughput: Dict[str, float]

    #: MB2 analyses.
    gpu_thresholds: ThresholdAnalysis
    cpu_thresholds: ThresholdAnalysis

    #: MB3 device-level caps for eqns (3)-(4).
    sc_zc_max_speedup: float
    zc_sc_max_speedup: float

    def __post_init__(self) -> None:
        for name, table in (
            ("gpu_cache_throughput", self.gpu_cache_throughput),
            ("cpu_cache_throughput", self.cpu_cache_throughput),
        ):
            missing = {"SC", "ZC"} - set(table)
            if missing:
                raise ModelError(f"{name} missing models: {sorted(missing)}")
            for model, value in table.items():
                if value <= 0:
                    raise ModelError(f"{name}[{model}] must be positive, got {value}")
        if self.sc_zc_max_speedup <= 0 or self.zc_sc_max_speedup <= 0:
            raise ModelError("max speedups must be positive")

    @property
    def gpu_peak_throughput(self) -> float:
        """Peak LL-L1 GPU throughput (SC) — eqn (2) normalizer."""
        return self.gpu_cache_throughput["SC"]

    @property
    def gpu_zc_throughput(self) -> float:
        """GPU throughput on the zero-copy path."""
        return self.gpu_cache_throughput["ZC"]

    @property
    def gpu_threshold_pct(self) -> float:
        """``GPU_Cache_Threshold`` in percent."""
        return self.gpu_thresholds.threshold_pct

    @property
    def cpu_threshold_pct(self) -> float:
        """``CPU_Cache_Threshold`` in percent."""
        return self.cpu_thresholds.threshold_pct

    @property
    def gpu_zone2_pct(self) -> float:
        """Upper bound of the conditional zone (equals the threshold on
        devices without one)."""
        if self.gpu_thresholds.zone2_pct is not None:
            return self.gpu_thresholds.zone2_pct
        return self.gpu_thresholds.threshold_pct

    @property
    def zc_sc_throughput_ratio(self) -> float:
        """How much slower the GPU cache path is under ZC (e.g. ~77 on
        the TX2, ~7 on Xavier)."""
        return self.gpu_cache_throughput["SC"] / self.gpu_cache_throughput["ZC"]

    def degraded_bounds(self, factor: Union[float, np.ndarray]
                        ) -> Tuple[np.ndarray, Optional[np.ndarray],
                                   Union[float, np.ndarray]]:
        """The GPU threshold, zone-2 bound (``None`` without a zone 2)
        and SC→ZC cap one app decides against when its bandwidth is
        scaled by ``factor`` (other apps' load, see
        :class:`~repro.stream.contention.ContentionModel`).

        ``factor`` is a float or an array of them.  Where ``factor < 1``
        the threshold and zone-2 bound are scaled by it and so is the
        cap's headroom above 1; ``factor >= 1`` leaves them untouched.
        """
        factor = np.asarray(factor, dtype=np.float64)
        keep = factor >= 1.0
        with np.errstate(all="ignore"):
            threshold = np.where(keep, self.gpu_threshold_pct,
                                 self.gpu_threshold_pct * factor)
            zone2 = self.gpu_thresholds.zone2_pct
            if zone2 is not None:
                zone2 = np.where(keep, zone2, zone2 * factor)
            cap = self.sc_zc_max_speedup
            if cap > 1.0:
                cap = np.where(keep, cap, 1.0 + (cap - 1.0) * factor)
        return threshold, zone2, cap

    def degraded(self, factor: float) -> "DeviceCharacterization":
        """This board as one app sees it when its bandwidth is scaled by
        ``factor``: :meth:`degraded_bounds`, with the ZC throughput and
        the threshold fractions scaled alike.  ``factor >= 1`` returns
        the board itself.
        """
        if factor >= 1.0:
            return self
        threshold_pct, zone2_pct, sc_zc = self.degraded_bounds(factor)
        thresholds = self.gpu_thresholds
        thresholds = replace(
            thresholds,
            threshold_pct=float(threshold_pct),
            threshold_fraction=thresholds.threshold_fraction * factor,
            zone2_pct=float(zone2_pct) if zone2_pct is not None else None,
            zone2_fraction=(thresholds.zone2_fraction * factor
                            if thresholds.zone2_fraction is not None
                            else None),
        )
        throughput = dict(self.gpu_cache_throughput)
        throughput["ZC"] = self.gpu_zc_throughput * factor
        return replace(self, gpu_cache_throughput=throughput,
                       gpu_thresholds=thresholds,
                       sc_zc_max_speedup=float(sc_zc))
