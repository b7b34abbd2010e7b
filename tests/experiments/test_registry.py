"""Unit tests for the experiment registry."""

from repro.experiments import EXPERIMENTS


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        expected = {
            "table1", "fig05", "fig07", "fig12", "fig13", "fig14", "fig16",
            "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
            "appendix", "ext-network", "ext-cfo", "ext-reverse-cti", "ext-energy",
        }
        assert set(EXPERIMENTS) == expected

    def test_lookup(self):
        assert "BER" in EXPERIMENTS["fig12"].title

    def test_modules_importable(self):
        import importlib

        for experiment in EXPERIMENTS.values():
            module = importlib.import_module(experiment.module)
            assert hasattr(module, "run")
            assert hasattr(module, "main")
