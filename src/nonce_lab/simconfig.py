"""Synthesizer settings, importable without numpy.

The command line reads its defaults from here before it knows whether
the command it runs touches an array at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Synthesizer knobs.

    Defaults are a desk-scale surrogate of the hardware target: all
    frequencies are divided by 1000, which preserves every ratio the
    pipeline depends on while keeping a full-scalar trace near 10^6
    samples; simulating at the hardware rates (f_cpu 1.8 GHz, sample_rate
    2.5 GHz) is impractical and unnecessary.
    """

    f_cpu: float = 1.8e6
    mod_ratio: Fraction = Fraction(1, 14)
    sample_rate: float = 2.5e6
    samples_per_event: int = 64
    noise_sigma: float = 2.0
    snr_scale: float = 0.25
    baseline: float = 1.0
    activity_floor: float = 4.0
    interference: tuple[tuple[float, float, float], ...] = ()
    interruption_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mod_ratio", Fraction(self.mod_ratio))
        bursts = []
        for burst in self.interference:
            try:
                start, length, amplitude = (float(v) for v in burst)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"malformed interference burst {burst!r}") from exc
            if not (0.0 <= start <= 1.0 and 0.0 <= length <= 1.0):
                raise ConfigError("interference fractions must lie in [0, 1]")
            if not 0.0 <= amplitude < math.inf:
                raise ConfigError("interference amplitude must be finite and non-negative")
            bursts.append((start, length, amplitude))
        object.__setattr__(self, "interference", tuple(bursts))
        # Chained comparisons are False for NaN, so NaN fails every check.
        if not (0.0 < self.f_cpu < math.inf and 0.0 < self.sample_rate < math.inf):
            raise ConfigError("f_cpu and sample_rate must be positive and finite")
        if self.mod_ratio <= 0:
            raise ConfigError("mod_ratio must be positive")
        if not isinstance(self.samples_per_event, int) or self.samples_per_event < 8:
            raise ConfigError("samples_per_event must be an integer of at least 8")
        if self.samples_per_event % 8:
            raise ConfigError(
                "samples_per_event must be a multiple of 8 so word-level "
                "events keep an integral duration"
            )
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError("noise_sigma must be finite and non-negative")
        if not 0.0 < self.snr_scale < math.inf:
            raise ConfigError("snr_scale must be positive and finite")
        if not (0.0 <= self.baseline < math.inf and 0.0 <= self.activity_floor < math.inf):
            raise ConfigError("baseline and activity_floor must be finite and non-negative")
        if not 0.0 <= self.interruption_prob <= 1.0:
            raise ConfigError("interruption_prob must lie in [0, 1]")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an integer fitting in 64 bits")
        if self.sample_rate < 4.0 * self.f_mod:
            raise ConfigError(
                f"sample_rate {self.sample_rate:g} is below the Nyquist "
                f"margin 4*f_mod = {4.0 * self.f_mod:g}"
            )

    @property
    def f_mod(self) -> float:
        """Carrier frequency the activity envelope is modulated onto."""
        return self.f_cpu * self.mod_ratio.numerator / self.mod_ratio.denominator
