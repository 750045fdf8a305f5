"""Table VI — ablation study on AQI-36-like and METR-LA-like data.

Variants: mix-STI (no interpolation, no conditional feature), w/o CF, w/o spa,
w/o tem, w/o MPNN, w/o Attn, and the full PriSTI.
"""

from repro.experiments import run_ablation_study

VARIANTS = ("mix-STI", "w/o CF", "w/o spa", "w/o tem", "w/o MPNN", "w/o Attn", "PriSTI")
GRID = (("aqi36", "failure"), ("metr-la", "block"), ("metr-la", "point"))


def test_table6_ablation(profile, save_table):
    table = run_ablation_study(variants=VARIANTS, grid=GRID, profile=profile)
    save_table("table6_ablation", table)

    assert set(table.rows()) == set(VARIANTS)
    for dataset_name, pattern in GRID:
        for variant in VARIANTS:
            assert table.cell(variant, f"{dataset_name}/{pattern}") is not None
