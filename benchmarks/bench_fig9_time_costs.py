"""Figure 9 — training and inference wall-clock time of the deep methods.

The paper compares BRITS, GRIN, CSDI and PriSTI on AQI-36 and METR-LA; the
expected shape is that the generative diffusion models cost noticeably more to
train and sample than the RNN baselines, and PriSTI costs more than CSDI
because of the conditional-feature construction.
"""

from repro.experiments import run_time_costs

METHODS = ("BRITS", "GRIN", "CSDI", "PriSTI")
DATASETS = (("aqi36", "failure"), ("metr-la", "block"))


def test_fig9_time_costs(profile, save_table):
    table = run_time_costs(methods=METHODS, datasets=DATASETS, profile=profile)
    save_table("fig9_time_costs", table)

    for dataset_name, _ in DATASETS:
        for method in METHODS:
            train_seconds, _, _ = table.cell(method, f"{dataset_name}/train-s")
            assert train_seconds >= 0
        # Diffusion-based PriSTI must train slower than the plain RNN baseline.
        brits = table.cell("BRITS", f"{dataset_name}/train-s")[0]
        pristi = table.cell("PriSTI", f"{dataset_name}/train-s")[0]
        assert pristi > brits
