"""Table V — downstream forecasting on AQI data imputed by the top methods.

The paper imputes AQI-36 with BRITS / GRIN / CSDI / PriSTI, trains Graph
WaveNet on each imputed dataset and reports forecasting MAE / RMSE, showing
that better imputation helps the downstream task.
"""

from repro.experiments import run_downstream_forecasting


def test_table5_downstream_forecasting(profile, save_table):
    table = run_downstream_forecasting(
        methods=("BRITS", "GRIN", "CSDI", "PriSTI"), profile=profile,
    )
    save_table("table5_downstream", table)

    assert "Ori." in table.rows()
    for method in ("BRITS", "GRIN", "CSDI", "PriSTI"):
        assert table.cell(method, "MAE") is not None
        assert table.cell(method, "RMSE") is not None
