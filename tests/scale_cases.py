"""Numeric inputs at the edge of the package's scale checks, written once for
the CLI tests and the library tests.

A case is (name, value) or (name, value, surrogate): a config field, the flag
value that sets it, and the surrogate to run it with when not the default.
``experiment`` turns a case into the library arguments of the same not3 run.
"""

from spinctrl.model import ChainSpec, ControlSequence, TargetGate
from spinctrl.objective import ObjectiveConfig

# Finite values whose scales overflow on not3 with 2 slices.
PHASE_OVERFLOW = [
    # A finite dt whose slice phases overflow: n_pulses * dt is already inf.
    ("dt", "1e308"),
]
SCALE_OVERFLOW = [
    # Finite phases, but a gradient whose squared norm overflows: dt^2, or
    # the squared penalty slope ~ 1/(n_pulses * bound)^2 of a tiny bound.
    ("dt", "1e300"),
    ("bound", "1e-300", "signum"),
    ("bound", "1e-160", "fractional"),
    # The Fermi-Dirac stand-in divides |h| <= bound by 2*kT, which
    # overflows, or multiplies by 2*kT, which is inf.
    ("kT", "1e-320"),
    ("kT", "1e-308"),
    ("kT", "1e308"),
]
# Large but finite scales on not3 with 4 slices, by test id: every check
# admits them, and a run finishes without an overflow warning.
LARGE_BUT_FINITE = {
    "dt_1e153": ("dt", "1e153"),
    "signum_bound_1e-150": ("bound", "1e-150", "signum"),
    "kt_1e-300": ("kT", "1e-300"),
    "kt_1e307": ("kT", "1e307"),
}

NOT3 = (ChainSpec(n_sites=3), TargetGate("NOT", 3))


def flags(case) -> list[str]:
    """The CLI flags of a case."""
    name, value, *surrogate = case
    flag = "--" + name.lower().replace("_", "-")
    return [*(f"--surrogate={s}" for s in surrogate), f"{flag}={value}"]


def experiment(case, n_pulses: int) -> tuple[ControlSequence, ObjectiveConfig]:
    """The zero-pulse template and the objective config of the CLI's not3
    run with ``n_pulses`` slices, defaults elsewhere, and the case's value."""
    name, value, *surrogate = case
    params = {"dt": 0.2, "bound": 50.0, "kT": 0.01, name: float(value)}
    seq = ControlSequence.zeros(n_pulses, params["dt"], params["bound"])
    cfg = ObjectiveConfig(mu=0.2, surrogate=(*surrogate, "fermi_dirac")[0], kT=params["kT"])
    return seq, cfg
