"""Seasonal PUE model (paper Sec. 6 threat to validity).

The paper holds PUE constant but acknowledges it "is challenging to
estimate with seasonal variation" and "can be approximated well with IT
and cooling energy monitors".  Cooling overhead tracks outdoor
temperature: free cooling in winter, chillers in summer, plus a diurnal
ripple.  :class:`SeasonalPUE` generates an hourly PUE profile so
operational accounting (Eq. 6) can be run with time-varying overhead and
the error of the constant-PUE simplification can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.core.errors import PowerModelError
from repro.core.units import HOURS_PER_DAY
from repro.intensity.trace import HOURS_PER_STUDY_YEAR

__all__ = [
    "ConstantPUE",
    "HourlyPUE",
    "SeasonalPUE",
    "operational_carbon_seasonal",
    "constant_pue",
    "seasonal_pue",
    "hourly_pue",
]

_DAYS_PER_YEAR = 365.0


@dataclass(frozen=True, slots=True)
class ConstantPUE:
    """A flat facility overhead as a ``pue`` backend.

    Exists so a plain float flows through the same registry/profile
    machinery as seasonal models; :func:`repro.accounting.resolve_pue`
    collapses the variation-free profile back to its scalar, so a
    constant profile charges *bit-identically* to the legacy float path.
    """

    value: float = 1.2

    def __post_init__(self) -> None:
        value = float(self.value)
        if not np.isfinite(value):
            raise PowerModelError(f"PUE must be finite, got {self.value!r}")
        if value < 1.0:
            raise PowerModelError(f"PUE must be >= 1.0, got {self.value!r}")

    def profile(self, n_hours: int = HOURS_PER_STUDY_YEAR) -> np.ndarray:
        if n_hours < 1:
            raise PowerModelError(f"need >= 1 hour, got {n_hours}")
        return np.full(n_hours, float(self.value))


class HourlyPUE:
    """A user-supplied hourly PUE profile (measured facility overhead).

    ``values`` is any 1-D array-like of hourly PUE samples; shorter
    profiles wrap cyclically when a study asks for more hours than the
    profile carries (a one-week measurement tiles across a year the way
    an intensity trace does).
    """

    __slots__ = ("values",)

    def __init__(self, values: Union[Sequence[float], np.ndarray]) -> None:
        profile = np.asarray(values, dtype=float)
        if profile.ndim != 1 or profile.size == 0:
            raise PowerModelError(
                f"hourly PUE profile must be a non-empty 1-D array, got "
                f"shape {profile.shape}"
            )
        if not np.all(np.isfinite(profile)):
            raise PowerModelError("hourly PUE profile contains non-finite samples")
        if float(profile.min()) < 1.0:
            raise PowerModelError("hourly PUE profile dips below 1.0")
        object.__setattr__(self, "values", profile)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("HourlyPUE is immutable")

    def __repr__(self) -> str:
        return (
            f"HourlyPUE(n_hours={self.values.size}, "
            f"mean={float(self.values.mean()):.4f})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HourlyPUE):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.values.size, float(self.values.sum())))

    def __reduce__(self):
        # __slots__ + the immutability guard break pickle's default
        # state protocol; rebuild through the constructor instead (the
        # process sweep executor ships profile knobs to its workers).
        return (HourlyPUE, (self.values,))

    def profile(self, n_hours: int = HOURS_PER_STUDY_YEAR) -> np.ndarray:
        if n_hours < 1:
            raise PowerModelError(f"need >= 1 hour, got {n_hours}")
        idx = np.arange(n_hours) % self.values.size
        return self.values[idx]


@dataclass(frozen=True, slots=True)
class SeasonalPUE:
    """Hourly PUE profile: base + seasonal swing + diurnal ripple.

    Attributes
    ----------
    annual_mean:
        Mean PUE over the year (the number usually reported).
    seasonal_amplitude:
        Half the winter-to-summer swing (e.g. 0.08 means PUE is 0.08
        above mean at the summer peak and 0.08 below in winter).
    diurnal_amplitude:
        Day/night ripple (afternoon heat vs night free cooling).
    peak_day / peak_hour:
        Day-of-year and local hour of maximum cooling load.
    """

    annual_mean: float = 1.2
    seasonal_amplitude: float = 0.08
    diurnal_amplitude: float = 0.03
    peak_day: float = 200.0
    peak_hour: float = 15.0

    def __post_init__(self) -> None:
        if self.annual_mean < 1.0:
            raise PowerModelError("mean PUE must be >= 1.0")
        if self.seasonal_amplitude < 0.0 or self.diurnal_amplitude < 0.0:
            raise PowerModelError("amplitudes must be non-negative")
        if self.annual_mean - self.seasonal_amplitude - self.diurnal_amplitude < 1.0:
            raise PowerModelError(
                "PUE profile dips below 1.0; reduce amplitudes or raise mean"
            )

    def profile(self, n_hours: int = HOURS_PER_STUDY_YEAR) -> np.ndarray:
        """Hourly PUE values for ``n_hours`` starting Jan 1, 00:00 local."""
        if n_hours < 1:
            raise PowerModelError(f"need >= 1 hour, got {n_hours}")
        t = np.arange(n_hours, dtype=float)
        day = (t / HOURS_PER_DAY) % _DAYS_PER_YEAR
        hour = t % HOURS_PER_DAY
        seasonal = self.seasonal_amplitude * np.cos(
            2.0 * np.pi * (day - self.peak_day) / _DAYS_PER_YEAR
        )
        diurnal = self.diurnal_amplitude * np.cos(
            2.0 * np.pi * (hour - self.peak_hour) / HOURS_PER_DAY
        )
        return self.annual_mean + seasonal + diurnal

    def at_hour(self, hour: int) -> float:
        """PUE at one hour of the year (wraps)."""
        return float(self.profile(HOURS_PER_STUDY_YEAR)[hour % HOURS_PER_STUDY_YEAR])


def operational_carbon_seasonal(
    power_w: Union[Sequence[float], np.ndarray],
    intensity_g_per_kwh: Union[Sequence[float], np.ndarray],
    pue_model: SeasonalPUE,
    *,
    start_hour: int = 0,
) -> float:
    """Eq. 6 with hour-resolved PUE: sum(power * intensity * pue) / 1000.

    Returns grams CO2.  All three hourly series are aligned starting at
    ``start_hour`` of the year; the PUE profile wraps at year end.
    """
    power = np.asarray(power_w, dtype=float)
    intensity = np.asarray(intensity_g_per_kwh, dtype=float)
    if power.shape != intensity.shape or power.ndim != 1:
        raise PowerModelError(
            f"power and intensity must be equal-length 1-D, got "
            f"{power.shape} vs {intensity.shape}"
        )
    if power.size and (float(power.min()) < 0.0 or float(intensity.min()) < 0.0):
        raise PowerModelError("power/intensity samples must be non-negative")
    year = pue_model.profile(HOURS_PER_STUDY_YEAR)
    idx = (start_hour + np.arange(power.size)) % HOURS_PER_STUDY_YEAR
    pue = year[idx]
    return float(np.sum(power * intensity * pue)) / 1000.0


# --- session-facade backends (the ``pue`` kind) -------------------------------
# A ``pue`` factory returns a profile object exposing ``profile(n_hours)``
# (see repro.accounting.resolve_pue), or None for the configured scalar.
def constant_pue(*, value=None):
    """``pue:constant``: a flat PUE; ``value`` defaults to the configured one.

    Without a value the factory returns ``None``, so the resolution step
    reads the *scenario's* config, not whatever is globally active at
    build.  The float form of :meth:`~repro.session.Scenario.pue`
    resolves here and charges bit-identically to the legacy path.
    """
    if value is None:
        return None
    return ConstantPUE(value=float(value))


def seasonal_pue(*, mean=None, amplitude=None, **kwargs):
    """``pue:seasonal``: :class:`SeasonalPUE`, plus the short spellings
    ``mean`` (annual mean) and ``amplitude`` (seasonal swing)."""
    if mean is not None:
        if "annual_mean" in kwargs:
            raise PowerModelError("pass either mean= or annual_mean=, not both")
        kwargs["annual_mean"] = float(mean)
    if amplitude is not None:
        if "seasonal_amplitude" in kwargs:
            raise PowerModelError(
                "pass either amplitude= or seasonal_amplitude=, not both"
            )
        kwargs["seasonal_amplitude"] = float(amplitude)
    return SeasonalPUE(**kwargs)


def hourly_pue(*, values):
    """``pue:profile``: :class:`HourlyPUE` over ``values``, a 1-D hourly
    sample array that wraps cyclically."""
    return HourlyPUE(values)
