"""Every real-valued input goes through ``model.check_real``: it is a finite
real number (not a bool) in its interval, and is stored as a Python float."""

import math
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spinctrl.cli import ExperimentConfig
from spinctrl.model import ChainSpec, ControlSequence, TargetGate, propagate
from spinctrl.objective import ObjectiveConfig
from spinctrl.optimizer import OptimizerConfig, bfgs_minimize, optimize_controls


def _bfgs_bound(value):
    # a flat objective converges at once, at x0 clipped into the box
    x, _ = bfgs_minimize(lambda x: (0.0, np.zeros_like(x)), [1e9], value, OptimizerConfig())
    return x.tolist()[0]


def _experiment(name):
    return lambda value: getattr(ExperimentConfig(target="not3", n_pulses=2, **{name: value}), name)


# Each real parameter, built from a value and read back as it is stored.
REAL_PARAMS = {
    "ChainSpec.gamma": lambda value: ChainSpec(2, env_enabled=True, gamma=value).gamma,
    "ControlSequence.dt": lambda value: ControlSequence.zeros(2, value, 1.0).dt,
    "ControlSequence.bound": lambda value: ControlSequence.zeros(2, 0.2, value).bound,
    "ObjectiveConfig.mu": lambda value: ObjectiveConfig(mu=value).mu,
    "ObjectiveConfig.alpha": lambda value: ObjectiveConfig(mu=0.5, alpha=value).alpha,
    "ObjectiveConfig.kT": lambda value: ObjectiveConfig(mu=0.5, kT=value).kT,
    "bfgs_minimize.bound": _bfgs_bound,
    **{
        f"ExperimentConfig.{f.name}": _experiment(f.name)
        for f in fields(ExperimentConfig)
        if f.metadata["kind"] is float
    },
}
# None selects the target's default mu and disables the min_fidelity gate.
NONE_ALLOWED = {"ExperimentConfig.mu", "ExperimentConfig.min_fidelity"}
UNUSABLE = {
    "huge_int": 10**400,
    "huge_negative_int": -(10**400),
    "numeric_string": "0.1",
    "none": None,
    "bool": True,
    "complex": 1j,
    "decimal": Decimal("0.1"),
    "nan": math.nan,
    "inf": math.inf,
}
USABLE = {"fraction": Fraction(1, 10), "float32": np.float32(0.25), "int": 1}


@pytest.mark.parametrize(
    "param, value",
    [
        pytest.param(param, value, id=f"{param}-{label}")
        for param in REAL_PARAMS
        for label, value in UNUSABLE.items()
        if not (value is None and param in NONE_ALLOWED)
    ],
)
def test_unusable_real_rejected(param, value):
    with pytest.raises(ValueError, match="must be a finite real number"):
        REAL_PARAMS[param](value)


@pytest.mark.parametrize(
    "param, value",
    [
        pytest.param(param, value, id=f"{param}-{label}")
        for param in REAL_PARAMS
        for label, value in USABLE.items()
        if not (param.endswith(".alpha") and value == 1)  # alpha lies in (0, 1)
    ],
)
def test_usable_real_stored_as_float(param, value):
    stored = REAL_PARAMS[param](value)
    assert type(stored) is float and stored == float(value)


def test_fraction_gamma_propagates_as_its_float():
    rng = np.random.default_rng(3)
    seq = ControlSequence(hx=rng.uniform(-1, 1, 6), hy=rng.uniform(-1, 1, 6), dt=0.2, bound=1.0)
    u = propagate(ChainSpec(2, env_enabled=True, gamma=Fraction(1, 10)), seq)
    assert np.array_equal(u, propagate(ChainSpec(2, env_enabled=True, gamma=0.1), seq))


def test_fraction_mu_optimizes_as_its_float():
    spec, target = ChainSpec(2), TargetGate("NOT", 2)
    seq, opt = ControlSequence.zeros(4, 0.2, 10.0), OptimizerConfig(max_iters=20, restarts=1)
    a, b = (optimize_controls(spec, target, seq, ObjectiveConfig(mu=mu), opt)
            for mu in (Fraction(1, 5), 0.2))
    assert np.array_equal(a.best_seq.pulse_vector(), b.best_seq.pulse_vector())
    assert (a.fidelity, a.penalty, a.G, a.evaluations) == (b.fidelity, b.penalty, b.G, b.evaluations)
