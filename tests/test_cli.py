"""Tests of the command-line interface."""

from __future__ import annotations

import pytest

from repro.bem.formulation import GroundingAnalysis
from repro.cad.project import load_results_json
from repro.cli import build_parser, main
from repro.exceptions import ReproError
from repro.experiments.barbera import barbera_case
from repro.geometry.io import load_grid, save_grid
from repro.soil.two_layer import TwoLayerSoil


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.command == "campaign"
        assert args.scenarios == 12
        assert args.workers == 0
        assert args.dense is False

    def test_analyze_arguments(self):
        args = build_parser().parse_args(
            ["analyze", "--grid", "g.json", "--rho1", "400", "--rho2", "100", "--h", "1.5"]
        )
        assert args.command == "analyze"
        assert args.rho1 == 400.0
        assert args.workers == 0

    def test_scaling_defaults(self):
        args = build_parser().parse_args(["scaling"])
        assert args.case == "barbera/two_layer"
        assert args.workers == [1, 2, 4, 8]
        assert args.hierarchical is False

    def test_scaling_hierarchical_flag(self):
        args = build_parser().parse_args(
            ["scaling", "--hierarchical", "--workers", "1", "2"]
        )
        assert args.hierarchical is True
        assert args.workers == [1, 2]

    def test_balaidos_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["balaidos", "--model", "Z"])


class TestAnalyzeCommand:
    def test_uniform_soil_analysis(self, tmp_path, small_grid, capsys):
        grid_path = save_grid(small_grid, tmp_path / "grid.json")
        exit_code = main(
            ["analyze", "--grid", str(grid_path), "--rho1", "100", "--gpr", "1000"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Equivalent resistance" in output
        assert "Pipeline cost" in output

    def test_two_layer_analysis_with_workdir(self, tmp_path, small_grid, capsys):
        grid_path = save_grid(small_grid, tmp_path / "grid.json")
        exit_code = main(
            [
                "analyze",
                "--grid",
                str(grid_path),
                "--rho1",
                "400",
                "--rho2",
                "100",
                "--h",
                "1.0",
                "--gpr",
                "1000",
                "--solver",
                "cholesky",
                "--workdir",
                str(tmp_path / "out"),
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "out" / "grid_results.json").exists()
        assert load_grid(tmp_path / "out" / "grid_grid.json").n_conductors == (
            small_grid.n_conductors
        )
        assert "layer 2" in capsys.readouterr().out

    def test_stored_dof_values_equal_the_analysis_bitwise(self, tmp_path, capsys):
        """``analyze`` runs the one analysis pipeline: on the full Barberá
        two-layer grid its stored dof values are ``GroundingAnalysis``'s, bit
        for bit (JSON floats round-trip exactly)."""
        grid, _, gpr = barbera_case("two_layer")
        grid_path = save_grid(grid, tmp_path / "barbera.json")
        rho1, rho2, h = 200.0, 62.5, 1.0
        exit_code = main(
            [
                "analyze",
                "--grid",
                str(grid_path),
                "--rho1",
                str(rho1),
                "--rho2",
                str(rho2),
                "--h",
                str(h),
                "--gpr",
                str(gpr),
                "--workdir",
                str(tmp_path / "out"),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        stored = load_results_json(tmp_path / "out" / "barbera_results.json")
        reference = GroundingAnalysis(
            load_grid(grid_path), TwoLayerSoil.from_resistivities(rho1, rho2, h), gpr
        ).run()
        assert stored["dof_values"] == reference.dof_values.tolist()

    def test_results_storage_row_times_the_file_writes(
        self, tmp_path, small_grid, capsys, monkeypatch
    ):
        """The writes happen after the analysis returns; their time still lands
        in the "Results Storage" row of the printed phase table."""
        import time

        import repro.cad.project

        delay = 0.2
        real_save = repro.cad.project.save_results

        def slow_save(*args, **kwargs):
            time.sleep(delay)
            return real_save(*args, **kwargs)

        monkeypatch.setattr(repro.cad.project, "save_results", slow_save)
        grid_path = save_grid(small_grid, tmp_path / "grid.json")
        exit_code = main(
            [
                "analyze",
                "--grid",
                str(grid_path),
                "--rho1",
                "100",
                "--workdir",
                str(tmp_path / "out"),
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "out" / "grid_results.json").exists()
        [row] = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("Results Storage")
        ]
        assert float(row.split()[-1]) >= delay

    def test_two_layer_requires_thickness(self, tmp_path, small_grid):
        grid_path = save_grid(small_grid, tmp_path / "grid.json")
        with pytest.raises(ReproError):
            main(["analyze", "--grid", str(grid_path), "--rho1", "400", "--rho2", "100"])


class TestCampaignCommand:
    def test_demo_campaign_runs(self, capsys):
        exit_code = main(["campaign", "--scenarios", "6", "--nx", "4"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "flat-tl-base" in output
        assert "assemblies" in output
        assert "cache stats" in output

    def test_workers_require_hierarchical(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--scenarios", "4", "--dense", "--workers", "2"])


class TestCaseStudyCommands:
    def test_barbera_coarse(self, capsys):
        exit_code = main(["barbera", "--case", "uniform", "--coarse"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Barberá" in output
        assert "paper reference" in output

    def test_scaling_coarse(self, capsys):
        exit_code = main(
            [
                "scaling",
                "--case",
                "barbera/uniform",
                "--coarse",
                "--workers",
                "1",
                "2",
                "--simulate-up-to",
                "16",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "simulated speed-up" in output
        assert "real process-pool measurements" in output

    def test_scaling_hierarchical_coarse(self, capsys):
        # End to end through the command's lazy imports: a moved study
        # function fails here, not only at argument parsing.
        exit_code = main(["scaling", "--hierarchical", "--coarse", "--workers", "1"])
        assert exit_code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("hierarchical block builder")
        rows = [line.split() for line in lines[3:]]
        assert [row[0] for row in rows] == ["0", "1"]
        # Deterministic-reduction contract: every row reproduces workers=0.
        assert [row[-1] for row in rows] == ["0", "0"]
