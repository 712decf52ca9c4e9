"""Command-line driver: runs pulse optimizations and robustness comparisons,
writing JSON results and CSV time series.

Exit codes: 0 on success, 2 on invalid configuration (nothing written),
3 when the optional --min-fidelity gate rejects the optimized result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
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

# Defaults that depend on the chain size of the chosen target.
_DEFAULT_PULSES = {3: 64, 4: 256}
_DEFAULT_MU = {3: 0.2, 4: 0.4}
_DEFAULT_STATE = {3: "000", 4: "0010"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    target: str
    n_pulses: int
    dt: float
    mu: float
    bound: float
    surrogate: str
    alpha: float
    kT: float
    gamma: float
    seed: int
    restarts: int
    output_dir: str
    initial_state: str
    min_fidelity: float | None = None

    def validate(self) -> None:
        """Check what no domain object owns, then build every domain object so
        that its own checks run; a rejection becomes a ConfigError."""
        if self.target not in TARGETS:
            raise ConfigError(f"unknown target {self.target!r}")
        n_sites = TARGETS[self.target][1]
        if len(self.initial_state) != n_sites or any(
            c not in "01" for c in self.initial_state
        ):
            raise ConfigError(
                f"initial-state must be a {n_sites}-bit string for target {self.target}"
            )
        if self.min_fidelity is not None and not math.isfinite(self.min_fidelity):
            raise ConfigError("min-fidelity must be finite")
        try:
            self.chain()
            self.seq_template()
            self.objective_config()
            self.optimizer_config()
        except ValueError as e:
            raise ConfigError(str(e)) from None

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
        return {
            "target": self.target,
            "n_pulses": self.n_pulses,
            "dt": self.dt,
            "mu": self.mu,
            "bound": self.bound,
            "surrogate": self.surrogate,
            "alpha": self.alpha,
            "kT": self.kT,
            "gamma": self.gamma,
            "seed": self.seed,
            "restarts": self.restarts,
            "initial_state": self.initial_state,
        }


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", choices=sorted(TARGETS), help="target gate and chain size")
    p.add_argument("--n-pulses", type=int, help="pulse slices per direction (default 64/256)")
    p.add_argument("--dt", type=float, help="slice duration (default 0.2)")
    p.add_argument("--mu", type=float, help="fidelity weight (default 0.2/0.4)")
    p.add_argument("--bound", type=float, help="max pulse amplitude (default 50)")
    p.add_argument("--surrogate", choices=SURROGATES, help="d|x|/dx stand-in (default fermi_dirac)")
    p.add_argument("--alpha", type=float, help="fractional surrogate exponent (default 0.99)")
    p.add_argument("--kt", type=float, dest="kt", help="Fermi-Dirac temperature (default 0.01)")
    p.add_argument("--gamma", type=float, help="environment coupling coefficient (default 0.1)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--restarts", type=int, help="independent BFGS restarts (default 8)")
    p.add_argument("--output-dir", help="directory for result files (default .)")
    p.add_argument("--config", help="JSON file with defaults; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinctrl",
        description="Synthesize sparse control pulses for Heisenberg spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="optimize pulses and export result/pulse/trajectory files")
    _add_common_flags(run)
    run.add_argument("--initial-state", help="basis state for trajectories (default 000/0010)")
    run.add_argument(
        "--min-fidelity",
        type=float,
        help="exit 3 if the optimized fidelity falls below this gate (default disabled)",
    )
    rob = sub.add_parser(
        "robustness", help="compare mu=1 and mu<1 solutions through Choi distances"
    )
    _add_common_flags(rob)
    return parser


_CONFIG_KEYS = (
    "target",
    "n_pulses",
    "dt",
    "mu",
    "bound",
    "surrogate",
    "alpha",
    "kT",
    "gamma",
    "seed",
    "restarts",
    "output_dir",
    "initial_state",
    "min_fidelity",
)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge precedence: built-in defaults < --config file < explicit flags."""
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
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)

    flag_map = {
        "target": args.target,
        "n_pulses": args.n_pulses,
        "dt": args.dt,
        "mu": args.mu,
        "bound": args.bound,
        "surrogate": args.surrogate,
        "alpha": args.alpha,
        "kT": args.kt,
        "gamma": args.gamma,
        "seed": args.seed,
        "restarts": args.restarts,
        "output_dir": args.output_dir,
        "initial_state": getattr(args, "initial_state", None),
        "min_fidelity": getattr(args, "min_fidelity", None),
    }
    merged.update({k: v for k, v in flag_map.items() if v is not None})

    target = merged.get("target")
    if target is None:
        raise ConfigError("a target must be given (--target or config file)")
    if not isinstance(target, str) or target not in TARGETS:
        raise ConfigError(f"unknown target {target!r}")
    n_sites = TARGETS[target][1]

    try:
        cfg = ExperimentConfig(
            target=target,
            n_pulses=int(merged.get("n_pulses", _DEFAULT_PULSES[n_sites])),
            dt=float(merged.get("dt", 0.2)),
            mu=float(merged.get("mu", _DEFAULT_MU[n_sites])),
            bound=float(merged.get("bound", 50.0)),
            surrogate=str(merged.get("surrogate", "fermi_dirac")),
            alpha=float(merged.get("alpha", 0.99)),
            kT=float(merged.get("kT", 0.01)),
            gamma=float(merged.get("gamma", 0.1)),
            seed=int(merged.get("seed", 0)),
            restarts=int(merged.get("restarts", 8)),
            output_dir=str(merged.get("output_dir", ".")),
            initial_state=str(merged.get("initial_state", _DEFAULT_STATE[n_sites])),
            min_fidelity=(
                float(merged["min_fidelity"]) if merged.get("min_fidelity") is not None else None
            ),
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"config value of the wrong type: {e}") from None
    cfg.validate()
    return cfg


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
    out_dir.mkdir(parents=True, exist_ok=True)
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
    }
    _write_json(out_dir / "result.json", payload)
    _write_pulses_csv(out_dir / "pulses.csv", result.best_seq)
    bloch = bloch_trajectories(chain, result.best_seq, cfg.initial_state)
    _write_trajectories_csv(out_dir / "trajectories.csv", bloch, cfg.dt)

    print(
        f"{cfg.target}: F={result.fidelity:.6f} P={result.penalty:.6f} "
        f"G={result.G:.6f} restart={result.restart_index} "
        f"iters={result.iterations_used} wall={wall:.2f}s",
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
    out_dir.mkdir(parents=True, exist_ok=True)

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
        "gamma": report.gamma,
        "mu_used": report.mu_used,
        "seed": report.seed,
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
        f"mu={report.mu_used} {report.dist_env_muL:.6f} wall={wall:.2f}s",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "run":
        return run_optimize(cfg)
    if cfg.mu >= 1.0:
        print("error: robustness requires mu < 1 (the mu=1 leg is run internally)", file=sys.stderr)
        return 2
    return run_robustness(cfg)


if __name__ == "__main__":
    sys.exit(main())
