"""Table III — MAE / MSE of every method on every dataset + missing pattern.

Regenerates the paper's main imputation table on the synthetic analogue
datasets: rows are the sixteen methods, columns are
{AQI-36 simulated failure, METR-LA block/point, PEMS-BAY block/point} × {MAE, MSE}.
"""

from repro.experiments import TABLE3_GRID, TABLE3_METHODS, run_imputation_benchmark


def test_table3_mae_mse(profile, save_table):
    table = run_imputation_benchmark(
        methods=TABLE3_METHODS, grid=TABLE3_GRID, profile=profile,
    )
    save_table("table3_mae_mse", table)

    for dataset_name, pattern in TABLE3_GRID:
        column = f"{dataset_name}/{pattern}/MAE"
        for method in TABLE3_METHODS:
            assert table.cell(method, column) is not None
