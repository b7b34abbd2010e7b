"""Registry mapping experiment ids to their run/main functions."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper result."""

    id: str
    title: str
    module: str

    def run(self, **kwargs):
        import importlib

        return importlib.import_module(self.module).run(**kwargs)

    def main(self):
        import importlib

        return importlib.import_module(self.module).main()


_ENTRIES = (
    ("table1", "Table I: symbol-to-chip mapping",
     "repro.experiments.table1_symbol_chips"),
    ("fig05", "Fig 3/5: cross-observation of a ZigBee symbol",
     "repro.experiments.fig05_cross_observation"),
    ("fig07", "Fig 6/7/8: stable phases and pair optimality",
     "repro.experiments.fig07_stable_phase"),
    ("fig12", "Fig 12: BER vs SNR (analytic + simulated)",
     "repro.experiments.fig12_ber_vs_snr"),
    ("fig13", "Fig 13: throughput across six scenarios",
     "repro.experiments.fig13_throughput_scenarios"),
    ("fig14", "Fig 14: BER across six scenarios",
     "repro.experiments.fig14_ber_scenarios"),
    ("fig16", "Fig 16: comparison with packet-level CTC",
     "repro.experiments.fig16_ctc_comparison"),
    ("fig17", "Fig 17: vote-count constellation",
     "repro.experiments.fig17_constellation"),
    ("fig18", "Fig 18: NLOS office deployment",
     "repro.experiments.fig18_nlos"),
    ("fig19", "Fig 19: impact of transmission power",
     "repro.experiments.fig19_tx_power"),
    ("fig20", "Fig 20: WiFi-interfered signal example",
     "repro.experiments.fig20_interference_example"),
    ("fig21", "Fig 21: Hamming(7,4) coding under interference",
     "repro.experiments.fig21_hamming"),
    ("fig22", "Fig 22: impact of tau and preamble",
     "repro.experiments.fig22_tau_preamble"),
    ("fig23", "Fig 23: mobility",
     "repro.experiments.fig23_mobility"),
    ("appendix", "Appendices A/B: phase levels and CFO compensation",
     "repro.experiments.appendix_phase_values"),
    ("ext-network", "Extension: convergecast cluster scaling",
     "repro.experiments.ext_network_scaling"),
    ("ext-cfo", "Extension: residual carrier-offset tolerance",
     "repro.experiments.ext_residual_cfo"),
    ("ext-reverse-cti", "Extension: WiFi under ZigBee interference",
     "repro.experiments.ext_reverse_cti"),
    ("ext-energy", "Extension: sender energy per delivered bit",
     "repro.experiments.ext_energy"),
)

EXPERIMENTS = {
    entry[0]: Experiment(id=entry[0], title=entry[1], module=entry[2])
    for entry in _ENTRIES
}
