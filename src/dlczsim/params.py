"""Model and run parameters, plus the flat key-value document format they travel in."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace


class DetectionMode(enum.Enum):
    SINGLE = "single"   # D1 + one field-2 detector D2
    SPLIT = "split"     # D1 + 50/50-split field-2 detectors D2a, D2b


_LABELS = ("D1", "D2", "D2a", "D2b")   # indexed by detector id


class Detector(enum.IntEnum):
    D1 = 0
    D2 = 1
    D2A = 2
    D2B = 3

    @property
    def label(self) -> str:
        return _LABELS[self]

    @staticmethod
    def from_label(label: str) -> "Detector":
        if label not in _LABELS:
            raise ValueError(f"unknown detector label {label!r}")
        return Detector(_LABELS.index(label))


# each mode's detectors in channel order: channel i is bit i of a click-pattern code
DETECTORS = {DetectionMode.SINGLE: (Detector.D1, Detector.D2),
             DetectionMode.SPLIT: (Detector.D1, Detector.D2A, Detector.D2B)}


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the pair source, its backgrounds, and the detection chain.

    chi is the pair-excitation probability per trial: the joint photon-number
    distribution of the source is P(n, n) = (1 - chi) chi^n.  Coherent background
    means are quoted at chi_ref and scale linearly with chi (they track the write
    power).  Incoherent background means are fixed per-trial Poisson means at the
    detectors (dark counts, stray light).
    """

    chi: float = 0.01
    bg1_coherent: float = 0.0       # mean photons/trial in the field-1 mode at the source output, at chi_ref
    bg2_coherent: float = 0.0       # same for field 2
    bg1_incoherent: float = 0.0     # mean counts/trial at detector D1, write-independent
    bg2_incoherent: float = 0.0     # same for the field-2 detection system
    chi_ref: float = 0.01
    retrieval_eff: float = 0.5      # probability the stored excitation emerges as a field-2 photon
    eta1: float = 0.25              # total field-1 detection efficiency
    eta2_path: float = 0.5          # field-2 transmission to the detector
    eta_apd: float = 0.5            # detector quantum efficiency
    bs_transmission: float = 0.8    # insertion transmission of the field-2 splitter (split mode only)
    bs_ratio: float = 0.5           # splitting ratio toward arm a

    def __post_init__(self):
        if not 0.0 <= self.chi < 1.0:
            raise ValueError(f"chi must be in [0, 1), got {self.chi}")
        if not (0.0 < self.chi_ref < 1.0 and math.isfinite(1.0 / self.chi_ref)):
            raise ValueError(f"chi_ref must be in (0, 1), 1 / chi_ref finite; got {self.chi_ref}")
        for i in (1, 2):   # coherent / chi_ref + incoherent bounds field i's mean as chi -> 1
            coh, inc = getattr(self, f"bg{i}_coherent"), getattr(self, f"bg{i}_incoherent")
            if not (coh >= 0.0 and inc >= 0.0 and math.isfinite(coh / self.chi_ref + inc)):
                raise ValueError(f"bg{i}_coherent = {coh} and bg{i}_incoherent = {inc} must be "
                                 f">= 0, with bg{i}_coherent / chi_ref + bg{i}_incoherent finite")
        for name in ("retrieval_eff", "eta1", "eta2_path", "eta_apd", "bs_transmission", "bs_ratio"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    @property
    def eta2(self) -> float:
        """Overall field-2 detection efficiency without the splitter (p_c = eta2 * q_c)."""
        return self.eta2_path * self.eta_apd

    def with_chi(self, chi: float) -> "ModelParams":
        return replace(self, chi=chi)


@dataclass(frozen=True)
class Channel:
    """One detector's view of the model: pair-photon click efficiency and background mean."""

    detector: Detector
    pair_eff: float      # probability a single source pair photon produces a click here
    bg_mean: float       # Poisson mean of background counts per trial (array over a chi array)


def bg1_mean(p: ModelParams, chi):
    """D1's background mean at drive chi, its coherent part quoted at chi_ref."""
    return p.bg1_coherent * (chi / p.chi_ref) * p.eta1 + p.bg1_incoherent


@dataclass(frozen=True)
class DetectionConfig:
    mode: DetectionMode = DetectionMode.SINGLE

    def channels(self, p: ModelParams, chi=None) -> tuple[Channel, ...]:
        """Effective per-detector efficiencies and background means for this configuration.

        Field-1 pair photons are thinned by eta1.  Field-2 pair photons are thinned
        by retrieval efficiency, path transmission, (splitter, in split mode) and the
        APD efficiency.  Coherent backgrounds live in the source output modes and see
        the same optical losses (but not the retrieval factor); incoherent backgrounds
        are quoted at the detectors, split by bs_ratio between the two arms.

        Background means are affine in chi; they are taken at p.chi, or at `chi`
        (a number or an array, which the means then follow) where given.  Only p's
        fields are read: the fit passes arrays, complex for its Jacobian.
        """
        chi = p.chi if chi is None else chi
        scale = chi / p.chi_ref
        if self.mode is DetectionMode.SINGLE:
            field2 = [(p.eta2_path * p.eta_apd, 1.0)]   # (pair efficiency, incoherent share)
        else:
            field2 = [(p.eta2_path * p.bs_transmission * p.bs_ratio * p.eta_apd, p.bs_ratio),
                      (p.eta2_path * p.bs_transmission * (1.0 - p.bs_ratio) * p.eta_apd,
                       1.0 - p.bs_ratio)]
        d1, *d2 = DETECTORS[self.mode]
        return (Channel(d1, p.eta1, bg1_mean(p, chi)),
                *(Channel(det, p.retrieval_eff * eff,
                          p.bg2_coherent * scale * eff + p.bg2_incoherent * share)
                  for det, (eff, share) in zip(d2, field2)))


@dataclass(frozen=True)
class TrialSchedule:
    """Cyclic acquisition timing: bursts of trials inside periodic trap-off windows."""

    mot_rate_hz: float = 40.0
    window_ms: float = 5.0
    trials_per_window: int = 1100
    trial_period_ns: int = 2000
    read_delay_ns: int = 300
    write_offset_ns: int = 0

    def __post_init__(self):
        for name in ("mot_rate_hz", "window_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mot_rate_hz <= 0 or self.trials_per_window < 1 or self.trial_period_ns < 1:
            raise ValueError("schedule values must be positive")
        if self.window_ms * 1e-3 * self.mot_rate_hz > 1:
            raise ValueError(f"window_ms {self.window_ms} exceeds the MOT cycle of "
                             f"{1e3 / self.mot_rate_hz} ms")
        if self.trials_per_window * self.trial_period_ns > self.window_ms * 1e6:
            raise ValueError("trial burst does not fit in the window")
        read_offset = self.write_offset_ns + self.read_delay_ns
        if not 0 <= read_offset < self.trial_period_ns:
            raise ValueError("read delay falls outside the trial period")
        if not (0 <= self.write_offset_ns < 2 ** 32 and read_offset < 2 ** 32):   # uint32 fields
            raise ValueError("record offsets write_offset_ns and write_offset_ns + read_delay_ns "
                             "must lie in [0, 2**32)")

    @property
    def trials_per_second(self) -> float:
        return self.mot_rate_hz * self.trials_per_window

    def trial_start_ns(self, trial_index):
        """Absolute schedule time (ns) at which a trial begins. Accepts arrays."""
        window, in_window = divmod(trial_index, self.trials_per_window)
        return window * (1e9 / self.mot_rate_hz) + in_window * self.trial_period_ns


@dataclass(frozen=True)
class SessionSpec:
    params: ModelParams
    config: DetectionConfig = field(default_factory=DetectionConfig)
    schedule: TrialSchedule = field(default_factory=TrialSchedule)
    n_trials: int = 44000
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 0:
            raise ValueError("n_trials must be >= 0")
        if not 0 <= self.seed < 2 ** 128:
            raise ValueError("seed must be in [0, 2**128)")


# --- flat key-value document I/O ------------------------------------------------

_MODEL_KEYS = [f.name for f in fields(ModelParams)]
_SCHEDULE_KEYS = [f.name for f in fields(TrialSchedule)]
_INT_SCHEDULE_KEYS = {f.name for f in fields(TrialSchedule) if f.type == "int"}   # annotations as text


def parse_keyvalues(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def params_to_text(p: ModelParams) -> str:
    return "".join(f"{k} = {getattr(p, k)!r}\n" for k in _MODEL_KEYS)


def params_from_text(text: str) -> ModelParams:
    kv = parse_keyvalues(text)
    unknown = set(kv) - set(_MODEL_KEYS) - set(_SCHEDULE_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter key(s): {', '.join(sorted(unknown))}")
    return ModelParams(**{k: float(v) for k, v in kv.items() if k in _MODEL_KEYS})


def schedule_from_text(text: str) -> TrialSchedule:
    return TrialSchedule(**{k: int(v) if k in _INT_SCHEDULE_KEYS else float(v)
                            for k, v in parse_keyvalues(text).items() if k in _SCHEDULE_KEYS})
