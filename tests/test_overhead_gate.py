"""The fig9 speedup gate in ``benchmarks/check_overhead_regression.py``."""

import importlib.util
import pathlib

SCRIPT = (
    pathlib.Path(__file__).parent.parent
    / "benchmarks"
    / "check_overhead_regression.py"
)


def load_gate():
    spec = importlib.util.spec_from_file_location("overhead_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFig9Gate:
    def test_missing_speedup_is_a_problem(self):
        gate = load_gate()
        assert gate.check_fig9({"frozen_cold_s": 6.63}, 5.0)

    def test_speedup_below_bar_is_a_problem(self):
        gate = load_gate()
        fig9 = {"frozen_cold_s": 6.63, "speedup_exact_vs_frozen": 4.9}
        assert gate.check_fig9(fig9, 5.0)

    def test_speedup_at_bar_passes(self):
        gate = load_gate()
        fig9 = {"frozen_cold_s": 6.63, "speedup_exact_vs_frozen": 5.0}
        assert gate.check_fig9(fig9, 5.0) == []
