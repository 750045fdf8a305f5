"""Table IV — CRPS of the probabilistic methods (V-RIN, GP-VAE, CSDI, PriSTI)."""

from repro.experiments import PROBABILISTIC_METHODS, TABLE3_GRID, run_crps_benchmark


def test_table4_crps(profile, save_table):
    table = run_crps_benchmark(
        methods=PROBABILISTIC_METHODS, grid=TABLE3_GRID, profile=profile,
    )
    save_table("table4_crps", table)

    for dataset_name, pattern in TABLE3_GRID:
        column = f"{dataset_name}/{pattern}/CRPS"
        for method in PROBABILISTIC_METHODS:
            mean, _, _ = table.cell(method, column)
            assert mean >= 0
