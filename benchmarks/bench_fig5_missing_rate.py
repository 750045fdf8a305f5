"""Figure 5 — imputation MAE of the strongest methods as the missing rate grows.

The paper trains BRITS, GRIN, CSDI and PriSTI once and evaluates them on
METR-LA test sets whose missing rate is pushed from 10 % to 90 % in both the
block-missing and point-missing regimes.
"""

from repro.experiments import run_missing_rate_sweep

METHODS = ("BRITS", "GRIN", "CSDI", "PriSTI")
RATES = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_fig5_missing_rate_point(profile, save_table):
    table = run_missing_rate_sweep(methods=METHODS, rates=RATES, pattern="point",
                                   profile=profile)
    save_table("fig5_missing_rate_point", table)
    for method in METHODS:
        for rate in RATES:
            assert table.cell(method, f"{int(rate * 100)}%") is not None


def test_fig5_missing_rate_block(profile, save_table):
    table = run_missing_rate_sweep(methods=METHODS, rates=RATES, pattern="block",
                                   profile=profile)
    save_table("fig5_missing_rate_block", table)
    for method in METHODS:
        assert table.cell(method, "90%") is not None
