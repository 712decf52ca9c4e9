"""Command-line driver: runs pulse optimizations and robustness comparisons,
writing JSON results and CSV time series.

Exit codes: 0 on success, 2 on invalid configuration or an unusable output
directory (nothing written), 3 when the optional --min-fidelity gate rejects
the optimized result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .channels import robustness_experiment
from .model import ChainSpec, ControlSequence, TargetGate, bloch_trajectories
from .objective import SURROGATES, ObjectiveConfig
from .optimizer import OptimizerConfig, optimize_controls

TARGETS = {
    "not3": ("NOT", 3),
    "not4": ("NOT", 4),
    "swap3": ("SWAP", 3),
    "swap4": ("SWAP", 4),
}

# Defaults that depend on the chain size of the chosen target; the fields
# they fill default to None.
_SIZE_DEFAULTS = {
    3: {"n_pulses": 64, "mu": 0.2, "initial_state": "000"},
    4: {"n_pulses": 256, "mu": 0.4, "initial_state": "0010"},
}
# Parameters that only `run` takes as flags; a config file may set them for both.
_RUN_ONLY = ("initial_state", "min_fidelity")


class ConfigError(ValueError):
    pass


def _param(kind: type, help: str, default=None, **flag):
    """A run parameter: its value type, its default, and its flag's help text
    and further argparse keywords."""
    return field(default=default, metadata={"kind": kind, "help": help, "flag": flag})


@dataclass(frozen=True)
class ExperimentConfig:
    """The parameters of one experiment, each a flag (``--kt`` for ``kT``) and
    a config-file key. Construction coerces and checks every value, so a
    config exists only in a valid state. None selects the target's default
    for ``n_pulses``, ``mu`` and ``initial_state`` and disables the
    ``min_fidelity`` gate."""

    target: str = _param(str, "target gate and chain size", MISSING, choices=sorted(TARGETS))
    n_pulses: int | None = _param(int, "pulse slices per direction")
    dt: float = _param(float, "slice duration", 0.2)
    mu: float | None = _param(float, "fidelity weight")
    bound: float = _param(float, "max pulse amplitude", 50.0)
    surrogate: str = _param(str, "d|x|/dx stand-in", "fermi_dirac", choices=SURROGATES)
    alpha: float = _param(float, "fractional surrogate exponent", 0.99)
    kT: float = _param(float, "Fermi-Dirac temperature", 0.01)
    gamma: float = _param(float, "environment coupling coefficient", 0.1)
    seed: int = _param(int, "RNG seed", 0)
    restarts: int = _param(int, "independent BFGS restarts", 8)
    output_dir: str = _param(str, "directory for result files", ".")
    initial_state: str | None = _param(str, "basis state for trajectories")
    min_fidelity: float | None = _param(
        float, "exit 3 if the optimized fidelity falls below this gate"
    )

    def __post_init__(self):
        if not isinstance(self.target, str) or self.target not in TARGETS:
            raise ConfigError(f"unknown target {self.target!r}")
        n_sites = TARGETS[self.target][1]
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                value = _SIZE_DEFAULTS[n_sites].get(f.name)
                if value is None and f.default is None:
                    continue
            kind = f.metadata["kind"]
            if kind is str:
                if not isinstance(value, str):
                    raise ConfigError(f"{f.name} must be a string, not {value!r}")
            else:
                # int() and float() would quietly turn 6.9 into 6 and true into 1.
                if isinstance(value, bool) or (
                    kind is int and isinstance(value, float) and not value.is_integer()
                ):
                    raise ConfigError(f"{f.name} must be {kind.__name__}, not {value!r}")
                try:
                    value = kind(value)
                except (TypeError, ValueError, OverflowError) as e:
                    raise ConfigError(f"{f.name} has the wrong type: {e}") from None
            object.__setattr__(self, f.name, value)

        if len(self.initial_state) != n_sites or any(c not in "01" for c in self.initial_state):
            raise ConfigError(
                f"initial_state must be a {n_sites}-bit string for target {self.target}"
            )
        if self.min_fidelity is not None and not 0.0 <= self.min_fidelity <= 1.0:
            raise ConfigError("min_fidelity must lie in [0, 1]")
        # Build every domain object so that its own checks run.
        try:
            self.chain()
            self.seq_template()
            self.objective_config()
            self.optimizer_config()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        # propagate runs a stretch of equal slices as one slice of up to
        # n_pulses*dt, whose phases (duration times eigenvalue) must be finite.
        # The optimizer takes g @ g of a gradient whose 2*n_pulses entries are
        # at most dt (fidelity) + 1/(n_pulses*min(bound, 1)) (penalty slope).
        env_chain = replace(self.chain(), env_enabled=True)
        phase = self.n_pulses * self.dt * env_chain.norm_bound(self.bound)
        slope = self.dt + 1.0 / (self.n_pulses * min(self.bound, 1.0))
        if not math.isfinite(phase + 2 * self.n_pulses * slope * slope):
            raise ConfigError(
                "n_pulses * dt * (bound on the slice Hamiltonian's norm) or the gradient "
                "scale 2 * n_pulses * (dt + 1/(n_pulses * min(bound, 1)))^2 is not finite; "
                "reduce dt or gamma, or raise a tiny bound"
            )

    def chain(self) -> ChainSpec:
        return ChainSpec(n_sites=TARGETS[self.target][1], gamma=self.gamma)

    def gate(self) -> TargetGate:
        kind, n_sites = TARGETS[self.target]
        return TargetGate(kind=kind, n_sites=n_sites)

    def seq_template(self) -> ControlSequence:
        return ControlSequence.zeros(self.n_pulses, self.dt, self.bound)

    def objective_config(self, mu: float | None = None) -> ObjectiveConfig:
        return ObjectiveConfig(
            mu=self.mu if mu is None else mu,
            surrogate=self.surrogate,
            alpha=self.alpha,
            kT=self.kT,
        )

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(seed=self.seed, restarts=self.restarts)

    def echo(self) -> dict:
        """The semantic experiment parameters, echoed into every JSON output."""
        params = asdict(self)
        del params["output_dir"], params["min_fidelity"]
        return params


def _default_text(f: Field) -> str:
    """The help's "(default ...)" suffix; one value per chain size where it depends on it."""
    shown = [table[f.name] for _, table in sorted(_SIZE_DEFAULTS.items()) if f.name in table]
    if not shown:
        if f.default is MISSING:
            return ""
        shown = ["disabled" if f.default is None else f.default]
    text = "/".join(f"{v:g}" if isinstance(v, float) else str(v) for v in shown)
    return f" (default {text})"


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    """One flag per named field; an absent flag leaves no attribute behind."""
    for f in fields(ExperimentConfig):
        if f.name in names:
            p.add_argument(
                "--" + f.name.lower().replace("_", "-"),
                dest=f.name,
                type=f.metadata["kind"],
                default=argparse.SUPPRESS,
                help=f.metadata["help"] + _default_text(f),
                **f.metadata["flag"],
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinctrl",
        description="Synthesize sparse control pulses for Heisenberg spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [f.name for f in fields(ExperimentConfig) if f.name not in _RUN_ONLY]
    for command, help_text, extra in (
        ("run", "optimize pulses and export result/pulse/trajectory files", _RUN_ONLY),
        ("robustness", "compare mu=1 and mu<1 solutions through Choi distances", ()),
    ):
        p = sub.add_parser(command, help=help_text)
        _add_flags(p, common)
        p.add_argument("--config", help="JSON file with defaults; explicit flags win")
        _add_flags(p, extra)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge precedence: built-in defaults < --config file < explicit flags."""
    keys = {f.name for f in fields(ExperimentConfig)}
    merged: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file {args.config!r} not found")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = set(loaded) - keys
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    merged.update((k, v) for k, v in vars(args).items() if k in keys)
    if "target" not in merged:
        raise ConfigError("a target must be given (--target or config file)")
    return ExperimentConfig(**merged)


def _format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal, exact on float64 round-trip."""
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _to_json(obj, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_to_json(v, indent + 1) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_to_json(payload) + "\n")


def _write_pulses_csv(path: Path, seq: ControlSequence) -> None:
    lines = ["index,t_start,hx,hy"]
    for i in range(seq.n):
        lines.append(
            f"{i},{_format_float(i * seq.dt)},"
            f"{_format_float(seq.hx[i])},{_format_float(seq.hy[i])}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_trajectories_csv(
    path: Path, bloch: np.ndarray, dt: float
) -> None:
    lines = ["t,qubit,bx,by,bz"]
    n_steps, n_qubits, _ = bloch.shape
    for j in range(n_steps):
        for q in range(n_qubits):
            bx, by, bz = bloch[j, q]
            lines.append(
                f"{_format_float(j * dt)},{q + 1},"
                f"{_format_float(bx)},{_format_float(by)},{_format_float(bz)}"
            )
    path.write_text("\n".join(lines) + "\n")


def run_optimize(cfg: ExperimentConfig) -> int:
    out_dir = Path(cfg.output_dir)
    chain = cfg.chain()

    start = time.perf_counter()
    result = optimize_controls(
        chain, cfg.gate(), cfg.seq_template(), cfg.objective_config(), cfg.optimizer_config()
    )
    wall = time.perf_counter() - start

    payload = {
        "config": cfg.echo(),
        "fidelity": result.fidelity,
        "penalty": result.penalty,
        "G": result.G,
        "iterations_used": result.iterations_used,
        "restart_index": result.restart_index,
        "pulses": {
            "hx": list(result.best_seq.hx),
            "hy": list(result.best_seq.hy),
        },
        "converged": result.converged,
        "line_search_failed": result.line_search_failed,
        "evaluations": result.evaluations,
    }
    _write_json(out_dir / "result.json", payload)
    _write_pulses_csv(out_dir / "pulses.csv", result.best_seq)
    bloch = bloch_trajectories(chain, result.best_seq, cfg.initial_state)
    _write_trajectories_csv(out_dir / "trajectories.csv", bloch, cfg.dt)

    print(
        f"{cfg.target}: F={result.fidelity:.6f} P={result.penalty:.6f} "
        f"G={result.G:.6f} restart={result.restart_index} "
        f"iters={result.iterations_used} evals={result.evaluations} "
        f"converged={result.converged} wall={wall:.2f}s",
        file=sys.stderr,
    )
    if cfg.min_fidelity is not None and result.fidelity < cfg.min_fidelity:
        print(
            f"error: fidelity {result.fidelity:.6f} below gate {cfg.min_fidelity}",
            file=sys.stderr,
        )
        return 3
    return 0


def run_robustness(cfg: ExperimentConfig) -> int:
    out_dir = Path(cfg.output_dir)

    start = time.perf_counter()
    report = robustness_experiment(
        cfg.gate(),
        cfg.mu,
        cfg.chain(),
        cfg.seq_template(),
        cfg.objective_config(),
        cfg.optimizer_config(),
    )
    wall = time.perf_counter() - start

    payload = {
        "config": cfg.echo(),
        "gamma": cfg.gamma,
        "mu_used": cfg.mu,
        "seed": cfg.seed,
        "dist_no_env_mu1": report.dist_no_env_mu1,
        "dist_no_env_muL": report.dist_no_env_muL,
        "dist_env_mu1": report.dist_env_mu1,
        "dist_env_muL": report.dist_env_muL,
        "fidelity_mu1": report.result_mu1.fidelity,
        "fidelity_muL": report.result_muL.fidelity,
        "penalty_mu1": report.result_mu1.penalty,
        "penalty_muL": report.result_muL.penalty,
    }
    _write_json(out_dir / "robustness.json", payload)

    print(
        f"{cfg.target}: env dist mu=1 {report.dist_env_mu1:.6f} vs "
        f"mu={cfg.mu} {report.dist_env_muL:.6f} wall={wall:.2f}s",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "robustness" and cfg.mu >= 1.0:
            raise ConfigError("robustness requires mu < 1 (the mu=1 leg is run internally)")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: output directory {cfg.output_dir!r}: {e.strerror}", file=sys.stderr)
        return 2
    if args.command == "run":
        return run_optimize(cfg)
    return run_robustness(cfg)


if __name__ == "__main__":
    sys.exit(main())
