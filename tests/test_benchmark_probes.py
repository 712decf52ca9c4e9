"""The benchmark's probe points exist in the package.

``perfbench/spans.py`` traces the functions named in its ``TARGETS`` and reads
fields of their arguments and results in ``PROBES``. Its tracer reports a
function it cannot find as absent and drops the details of a probe that
raises, so renaming either in the package would zero a benchmark metric
without failing the benchmark's self-test; these tests fail instead. The
module is loaded from its file and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spinctrl.model import eigh_stack
from spinctrl.optimizer import OptimizerConfig, bfgs_minimize

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("target", spans.TARGETS)
def test_target_resolves_to_a_callable(target):
    # as the tracer resolves it: the module, its attributes, then the
    # callable defined on the last owner itself
    module, *owners, attr = target.split(".")
    owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
    for part in owners:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr))


def test_every_probe_has_a_target():
    assert set(spans.PROBES) <= set(spans.TARGETS)


def test_bfgs_probe_reads_the_result():
    def quadratic(x):
        return float(x @ x), 2.0 * x

    args = (quadratic, np.array([0.5, -0.25]), 1.0, OptimizerConfig())
    result = bfgs_minimize(*args)
    info = result[1]
    assert spans.PROBES["optimizer.bfgs_minimize"](args, result) == {
        "iterations": info.iterations,
        "converged": info.converged,
        "line_search_failed": info.line_search_failed,
    }


def test_eigh_probe_reads_the_stack():
    stack = np.stack([np.eye(3), 2.0 * np.eye(3)])
    assert spans.PROBES["model.eigh_stack"]((stack,), eigh_stack(stack)) == {
        "matrices": 2,
        "dim": 3,
    }
