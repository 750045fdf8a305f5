"""Figure 7 — imputing sensors that never report (kriging-style evaluation).

The highest- and lowest-connectivity stations of the air-quality network are
hidden completely during training; PriSTI and GRIN (the only baseline that can
exploit geographic information) reconstruct their series from the other
sensors.
"""

from repro.experiments import run_sensor_failure

METHODS = ("GRIN", "PriSTI")


def test_fig7_sensor_failure(profile, save_table):
    table = run_sensor_failure(methods=METHODS, profile=profile)
    save_table("fig7_sensor_failure", table)

    for method in METHODS:
        for column in ("highest-connectivity", "lowest-connectivity"):
            mean, _, _ = table.cell(method, column)
            assert mean >= 0
