"""Tests for the BEV visualiser and the CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.detection.detections import Detection
from repro.eval.viz import BevCanvas, render_bev
from repro.geometry.boxes import Box3D
from repro.pointcloud.cloud import PointCloud


def box_at(x, y) -> Box3D:
    return Box3D(np.array([x, y, 0.0]), 4.2, 1.8, 1.6)


class TestBevCanvas:
    def test_dimensions(self):
        canvas = BevCanvas(x_range=(0, 10), y_range=(-5, 5), cell=1.0)
        assert canvas.grid.shape == (10, 10)

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            BevCanvas(cell=0.0)

    def test_sensor_marker(self):
        canvas = BevCanvas(x_range=(-2, 2), y_range=(-2, 2), cell=1.0)
        canvas.draw_sensor()
        assert "^" in canvas.render()

    def test_cloud_density_shading(self):
        canvas = BevCanvas(x_range=(0, 10), y_range=(-5, 5), cell=1.0)
        points = np.column_stack(
            [np.full(50, 5.0), np.full(50, 0.0), np.zeros(50)]
        )
        canvas.draw_cloud(PointCloud.from_xyz(points))
        rendered = canvas.render()
        assert any(ch in rendered for ch in ".:-=+*")

    def test_out_of_window_points_ignored(self):
        canvas = BevCanvas(x_range=(0, 5), y_range=(-2, 2), cell=1.0)
        canvas.draw_cloud(PointCloud.from_xyz(np.array([[100.0, 0.0, 0.0]])))
        assert canvas.render().strip() == ""


class TestRenderBev:
    def test_detected_vs_missed_marks(self):
        cloud = PointCloud.from_xyz(np.array([[10.0, 0.0, 0.0]]))
        detections = [Detection(box_at(10, 0), 0.8)]
        ground_truth = [box_at(10, 0), box_at(30, 10)]
        text = render_bev(cloud, ground_truth, detections)
        assert "#" in text  # detected GT
        assert "o" in text  # missed GT

    def test_false_positive_mark(self):
        text = render_bev(
            PointCloud.empty(), [], [Detection(box_at(20, 0), 0.9)]
        )
        assert "D" in text

    def test_empty_everything(self):
        text = render_bev(PointCloud.empty())
        assert "^" in text


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("kitti", "tj", "cdf", "timing", "drift", "network"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_network_command_runs(self, capsys):
        assert main(["network", "--seconds", "1"]) == 0
        out = capsys.readouterr().out
        assert "FULL_FRAME" in out
        assert "within DSRC: yes" in out

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "kitti"])
        assert args.seed == 7

    def test_serve_fleet_with_closed_loop_runs(self, capsys):
        assert main(
            ["serve", "--smoke", "--closed-loop", "2", "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet      : 2 shards" in out
        assert "completed  :" in out
        assert "digest     :" in out
