"""Command-line driver: runs pulse optimizations and robustness comparisons,
writing JSON results and CSV time series.

Exit codes: 0 on success, 2 on invalid configuration, an unusable output
directory or an output file name held by a directory (nothing written), 3
when the optional --min-fidelity gate rejects the optimized result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from pathlib import Path

from .channels import robustness_experiment
from .model import (ChainSpec, ControlSequence, TargetGate, basis_index, bloch_trajectories,
                    check_real)
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
# The files each command writes into its output directory, in the order that
# command's function takes their paths.
OUTPUT_FILES = {
    "run": ("result.json", "pulses.csv", "trajectories.csv"),
    "robustness": ("robustness.json",),
}


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
    surrogate: str = _param(str, "d|x|/dx stand-in", ObjectiveConfig.surrogate, choices=SURROGATES)
    alpha: float = _param(float, "fractional surrogate exponent", ObjectiveConfig.alpha)
    kT: float = _param(float, "Fermi-Dirac temperature", ObjectiveConfig.kT)
    gamma: float = _param(float, "environment coupling coefficient", ChainSpec.gamma)
    seed: int = _param(int, "RNG seed", OptimizerConfig.seed)
    restarts: int = _param(int, "independent BFGS restarts", OptimizerConfig.restarts)
    output_dir: str = _param(str, "directory for result files", ".")
    initial_state: str | None = _param(str, "basis state for trajectories")
    min_fidelity: float | None = _param(
        float, "exit 3 if the optimized fidelity falls below this gate"
    )

    def __post_init__(self):
        if not isinstance(self.target, str) or self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
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
                    raise ValueError(f"{f.name} must be a string, not {value!r}")
            elif kind is int:
                # 6.0 becomes 6; 6.9, true and "1_0" are left to the domain's check_count
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
            else:
                # The domain objects hold the ranges; min_fidelity is the CLI's own.
                low, high = (0.0, 1.0) if f.name == "min_fidelity" else (-math.inf, math.inf)
                value = check_real(f.name, value, low, high)
            object.__setattr__(self, f.name, value)

        # Index the initial state and build every domain object, so that their own checks
        # run, then check the scales of the bare chain; ``main`` checks the environment
        # chain's for ``robustness``, the one command that builds it.
        basis_index(self.initial_state, n_sites)
        seq = self.seq_template()
        self.optimizer_config()
        self.chain().check_phase(self.n_pulses * self.dt, self.bound)
        self.objective_config().check_scales(seq)

    def chain(self) -> ChainSpec:
        return ChainSpec(n_sites=TARGETS[self.target][1], gamma=self.gamma)

    def gate(self) -> TargetGate:
        kind, n_sites = TARGETS[self.target]
        return TargetGate(kind=kind, n_sites=n_sites)

    def seq_template(self) -> ControlSequence:
        return ControlSequence.zeros(self.n_pulses, self.dt, self.bound)

    def objective_config(self) -> ObjectiveConfig:
        return ObjectiveConfig(mu=self.mu, surrogate=self.surrogate, alpha=self.alpha, kT=self.kT)

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
            raise ValueError(f"config file {args.config!r} not found")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"config file is not readable JSON text: {e}") from None
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        unknown = set(loaded) - keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    merged.update((k, v) for k, v in vars(args).items() if k in keys)
    if "target" not in merged:
        raise ValueError("a target must be given (--target or config file)")
    return ExperimentConfig(**merged)


def _write_csv(path: Path, header: str, rows) -> None:
    """Ints as they are, floats in their shortest exact (round-trip) form;
    float() first, since numpy 2 spells repr(np.float64(x)) "np.float64(x)"."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")


def run_optimize(
    cfg: ExperimentConfig, result_path: Path, pulses_path: Path, trajectories_path: Path
) -> int:
    chain = cfg.chain()

    start = time.perf_counter()
    result = optimize_controls(
        chain, cfg.gate(), cfg.seq_template(), cfg.objective_config(), cfg.optimizer_config()
    )
    wall = time.perf_counter() - start
    seq = result.best_seq

    payload = {
        "config": cfg.echo(),
        "fidelity": result.fidelity,
        "penalty": result.penalty,
        "G": result.G,
        "iterations_used": result.iterations_used,
        "restart_index": result.restart_index,
        "pulses": {
            "hx": list(seq.hx),
            "hy": list(seq.hy),
        },
        "converged": result.converged,
        "line_search_failed": result.line_search_failed,
        "evaluations": result.evaluations,
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    _write_csv(
        pulses_path,
        "index,t_start,hx,hy",
        ((i, i * seq.dt, seq.hx[i], seq.hy[i]) for i in range(seq.n)),
    )
    bloch = bloch_trajectories(chain, seq, cfg.initial_state)
    _write_csv(
        trajectories_path,
        "t,qubit,bx,by,bz",
        ((j * cfg.dt, q + 1, *b) for j, qubits in enumerate(bloch) for q, b in enumerate(qubits)),
    )

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


def run_robustness(cfg: ExperimentConfig, report_path: Path) -> int:
    start = time.perf_counter()
    report = robustness_experiment(
        cfg.gate(),
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
    report_path.write_text(json.dumps(payload, indent=2) + "\n")

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
        if args.command == "robustness":
            if cfg.mu >= 1.0:
                raise ValueError("robustness requires mu < 1 (the mu=1 leg is run internally)")
            replace(cfg.chain(), env_enabled=True).check_phase(cfg.n_pulses * cfg.dt, cfg.bound)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: output directory {cfg.output_dir!r}: {e.strerror}", file=sys.stderr)
        return 2
    paths = [Path(cfg.output_dir) / name for name in OUTPUT_FILES[args.command]]
    for path in paths:
        if path.is_dir():
            print(f"error: output file {str(path)!r} is a directory", file=sys.stderr)
            return 2
    if args.command == "run":
        return run_optimize(cfg, *paths)
    return run_robustness(cfg, *paths)


if __name__ == "__main__":
    sys.exit(main())
