"""Figure 8 — sensitivity of PriSTI to its key hyperparameters.

Sweeps the hidden channel size d, the maximum noise level beta_T and the
number of virtual nodes k on METR-LA-like block missing, plus an extra
ablation over the noise schedule (quadratic vs linear) called out in
DESIGN.md.
"""

from repro.experiments import run_hyperparameter_sweep


def test_fig8_hyperparameter_sensitivity(profile, save_table):
    table = run_hyperparameter_sweep(
        profile=profile,
        channel_sizes=(8, 16, 32),
        beta_max_values=(0.1, 0.2, 0.4),
        virtual_nodes=(4, 8),
        schedules=("quadratic", "linear"),
    )
    save_table("fig8_hyperparams", table)

    assert "channel size d" in table.rows()
    assert "max noise level betaT" in table.rows()
    assert "virtual nodes k" in table.rows()
    assert "noise schedule" in table.rows()
