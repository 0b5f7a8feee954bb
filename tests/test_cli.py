"""End-to-end command line tests through a real subprocess."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfdarcy
import bfdarcy.assembly as asm
import bfdarcy.cli as cli
from bfdarcy import load_mesh

# The subprocess imports the same bfdarcy as the tests, also when pytest
# found it through its own ``pythonpath`` setting rather than PYTHONPATH.
PACKAGE_ROOT = str(Path(bfdarcy.__file__).resolve().parents[1])


def run_cli(*argv, cwd=None):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bfdarcy.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ solve


def test_solve_linear_benchmark_prints_one_iteration(tmp_path):
    cfg = write_config(
        tmp_path,
        """
        # channel over aquifer, linear drag
        problem = example2
        F = 0
        nx = 8
        """,
    )
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "iterations: 1" in res.stdout
    assert "interface flux residual:" in res.stdout
    assert (tmp_path / "solve.csv").exists()


def test_solve_reports_manufactured_errors(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\nnx = 4\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "e_uB" in res.stdout or "e_uB" in (tmp_path / "solve.csv").read_text()
    header = (tmp_path / "solve.csv").read_text().splitlines()[0]
    assert header.startswith("level,h_B,h_D,h_Sigma,DOF,iter")


def test_solve_quiet_silences_stdout(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\nnx = 4\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path), "--quiet")
    assert res.returncode == 0
    assert res.stdout.strip() == ""


def test_solve_rejects_out_of_range_exponent(tmp_path):
    cfg = write_config(tmp_path, "problem = example2\np = 5\nnx = 4\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1
    assert "exponent out of range" in res.stderr


def test_solve_rejects_unknown_config_key(tmp_path):
    cfg = write_config(tmp_path, "problem = example2\nviscosity = 2\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1
    assert "unknown configuration key" in res.stderr


def test_solve_missing_config_is_an_io_error(tmp_path):
    res = run_cli("solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path))
    assert res.returncode == 3


def test_solve_failure_exit_code(tmp_path):
    # two iterations cannot converge the strongly nonlinear case
    cfg = write_config(
        tmp_path, "problem = example2\nF = 1e4\nnx = 8\nmax_iter = 2\n"
    )
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2
    assert "converge" in res.stderr


@pytest.mark.parametrize("setting", ["max_iter = 0", "tol = 0"])
def test_solve_rejects_newton_options_out_of_range(tmp_path, setting):
    cfg = write_config(tmp_path, f"problem = example2\nnx = 4\n{setting}\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1, res.stderr
    assert setting.split()[0] in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "setting, message",
    [("F = nan", "F=nan"), ("F = inf", "F=inf"), ("K_D = inf", "K_D must be finite")],
    ids=["F_nan", "F_inf", "K_D_inf"],
)
def test_solve_rejects_non_finite_parameters(tmp_path, setting, message):
    cfg = write_config(tmp_path, f"problem = example2\nnx = 4\n{setting}\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1, res.stderr
    assert message in res.stderr
    assert "Traceback" not in res.stderr


def test_solve_overflowing_assembly_is_a_solver_failure_without_output(tmp_path):
    # F = 1e308 is finite, but the Forchheimer block overflows.
    cfg = write_config(tmp_path, "problem = example2\nF = 1e308\nnx = 4\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path), "--vtk")
    assert res.returncode == 2, res.stderr
    assert "not finite at Newton iteration 1" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "solve.csv").exists()
    assert not (tmp_path / "solve.vtk").exists()
    assert not (tmp_path / "solve_multiplier.vtk").exists()


def test_solve_writes_vtk_pair(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\nnx = 4\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path), "--vtk")
    assert res.returncode == 0
    grid = (tmp_path / "solve.vtk").read_text()
    lam = (tmp_path / "solve_multiplier.vtk").read_text()
    assert grid.startswith("# vtk DataFile Version 3.0")
    assert "DATASET UNSTRUCTURED_GRID" in grid
    assert "VECTORS velocity_brinkman" in grid
    assert "VECTORS velocity_darcy" in grid
    assert "SCALARS pressure" in grid
    assert "DATASET POLYDATA" in lam
    assert "SCALARS multiplier" in lam


# ------------------------------------------------------------ convergence


def test_convergence_needs_the_manufactured_problem(tmp_path):
    cfg = write_config(tmp_path, "problem = example2\n")
    res = run_cli("convergence", "--config", cfg, "--levels", "3", "--out", str(tmp_path))
    assert res.returncode == 1
    assert "example1_variant" in res.stderr


def test_convergence_rejects_too_few_levels(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\n")
    res = run_cli("convergence", "--config", cfg, "--levels", "2", "--out", str(tmp_path))
    assert res.returncode == 1
    assert "need >= 3 levels" in res.stderr


def test_convergence_three_levels_rates_and_iterations(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\nF = 10\n")
    res = run_cli("convergence", "--config", cfg, "--levels", "3", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr

    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    rows = [ln.split(",") for ln in lines[1:]]
    # doubling refinement from nx = 4
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert float(rows[1][1]) == pytest.approx(float(rows[0][1]) / 2.0, rel=1e-12)
    # four Newton steps on every level for F = 10
    assert all(r[5] == "4" for r in rows)
    # errors fall monotonically and final rates are near one
    for col in (6, 8, 10, 12, 14):
        errs = [float(r[col]) for r in rows]
        assert errs[0] > errs[1] > errs[2]
    for col in (7, 9, 11, 13, 15):
        assert rows[0][col] == "--"
        assert float(rows[2][col]) >= 0.85


def test_convergence_output_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\n")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    r1 = run_cli("convergence", "--config", cfg, "--levels", "3", "--out", str(a))
    r2 = run_cli("convergence", "--config", cfg, "--levels", "3", "--out", str(b))
    assert r1.returncode == r2.returncode == 0
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()


# ------------------------------------------------------------------ sweep


def test_sweep_produces_the_iteration_grid(tmp_path):
    cfg = write_config(
        tmp_path,
        """
        problem = example1_variant
        F_list = 1, 100
        K_D_list = 0.1
        """,
    )
    res = run_cli("sweep", "--config", cfg, "--levels", "2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "F,K_D,iter_nx4,iter_nx8"
    assert len(lines) == 3
    counts = [int(c) for ln in lines[1:] for c in ln.split(",")[2:]]
    assert all(1 <= c <= 10 for c in counts)
    # stronger inertia never costs fewer iterations
    row1 = [int(c) for c in lines[1].split(",")[2:]]
    row2 = [int(c) for c in lines[2].split(",")[2:]]
    assert all(b >= a for a, b in zip(row1, row2))


def test_sweep_writes_a_tensor_K_D_in_the_config_syntax(tmp_path):
    # Without K_D_list the sweep runs on K_D, which may be a tensor; its
    # column holds the four entries as the config writes them.
    cfg = write_config(
        tmp_path, "problem = example1_variant\nK_D = 1e-3 0 0 1e-3\nF_list = 1, 100\n"
    )
    res = run_cli("sweep", "--config", cfg, "--levels", "1", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "F,K_D,iter_nx4"
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == ["1,0.001 0 0 0.001", "100,0.001 0 0 0.001"]
    assert all(int(ln.rsplit(",", 1)[1]) >= 1 for ln in lines[1:])


def test_sweep_requires_a_forchheimer_list(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\n")
    res = run_cli("sweep", "--config", cfg, "--levels", "2", "--out", str(tmp_path))
    assert res.returncode == 1
    assert "F_list" in res.stderr


def test_sweep_output_is_deterministic(tmp_path):
    cfg = write_config(
        tmp_path, "problem = example1_variant\nF_list = 10, 1000\nK_D_list = 0.1, 0.001\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    r1 = run_cli("sweep", "--config", cfg, "--levels", "2", "--out", str(a))
    r2 = run_cli("sweep", "--config", cfg, "--levels", "2", "--out", str(b))
    assert r1.returncode == r2.returncode == 0, r1.stderr + r2.stderr
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_builds_one_workspace_per_level(tmp_path, monkeypatch):
    built = []

    def counting_workspace(*args, **kwargs):
        built.append(args[0].num_triangles)
        return workspace(*args, **kwargs)

    workspace = asm.Workspace
    monkeypatch.setattr(asm, "Workspace", counting_workspace)
    cfg = write_config(
        tmp_path, "problem = example1_variant\nF_list = 1, 100\nK_D_list = 0.1, 0.001\n"
    )
    code = cli.main(["sweep", "--config", cfg, "--levels", "2", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert sorted(built) == [64, 256]  # one per level, not one per cell
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5 and all(c != "--" for ln in lines[1:] for c in ln.split(","))


def test_sweep_cells_share_one_static_system_per_level_and_K_D(tmp_path, monkeypatch):
    # Each (level, K_D) group factors its Darcy block once; every cell
    # solves with its group's StaticSystem.
    darcy, used = [], []
    splu, newton_solve = cli.slv.splu, cli.slv.newton_solve

    def spy_splu(M, **kwargs):
        if kwargs.get("permc_spec") != "NATURAL":
            darcy.append(M.shape)
        return splu(M, **kwargs)

    def spy_solve(disc, params, data, options=None, linear=None):
        used.append((linear, disc, params.K_D))
        return newton_solve(disc, params, data, options, linear)

    monkeypatch.setattr(cli.slv, "splu", spy_splu)
    monkeypatch.setattr(cli.slv, "newton_solve", spy_solve)
    cfg = write_config(
        tmp_path, "problem = example2\nF_list = 1, 100, 1e4\nK_D_list = 1e-3, 1e-6\n"
    )
    code = cli.main(["sweep", "--config", cfg, "--levels", "2", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert len(darcy) == 4 and len(set(darcy)) == 2
    assert len(used) == 12
    statics = {id(linear) for linear, _, _ in used}
    assert len(statics) == 4
    assert all(linear.disc is disc and linear.K_D == K_D for linear, disc, K_D in used)


@pytest.mark.parametrize("cores", [3, None])
def test_sweep_pool_has_at_most_one_thread_per_core(tmp_path, monkeypatch, cores):
    sizes = []
    pool = cli.ThreadPoolExecutor

    def recording_pool(max_workers=None):
        sizes.append(max_workers)
        return pool(max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    cfg = write_config(
        tmp_path, "problem = example1_variant\nF_list = 1, 100\nK_D_list = 0.1, 0.001\n"
    )
    code = cli.main(["sweep", "--config", cfg, "--levels", "2", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert sizes == [cores or 1]  # 8 cells, one thread per core


# --------------------------------------------------------- mesh-gen/custom


def test_mesh_gen_writes_a_loadable_mesh(tmp_path):
    cfg = write_config(
        tmp_path,
        """
        # generate the channel-over-aquifer rectangles to a file
        problem = example2
        mesh = channel.txt
        nx = 8
        """,
    )
    res = run_cli("mesh-gen", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    mesh = load_mesh(tmp_path / "channel.txt")
    assert mesh.edges_with_tag("SIGMA").size == 8

    # and solve straight from that file
    cfg2 = write_config(
        tmp_path,
        f"problem = custom\nmesh = {tmp_path / 'channel.txt'}\nF = 1\n",
        name="solve.cfg",
    )
    res = run_cli("solve", "--config", cfg2, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "iterations:" in res.stdout


def test_sweep_on_a_custom_mesh_has_one_level(tmp_path):
    cfg = write_config(tmp_path, "problem = example2\nmesh = channel.txt\nnx = 4\n")
    assert run_cli("mesh-gen", "--config", cfg, "--out", str(tmp_path)).returncode == 0
    cfg = write_config(
        tmp_path,
        f"problem = custom\nmesh = {tmp_path / 'channel.txt'}\nF_list = 0, 10\n",
        name="sweep.cfg",
    )
    res = run_cli("sweep", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "F,K_D,iter"
    assert [len(ln.split(",")) for ln in lines[1:]] == [3, 3]

    res = run_cli("sweep", "--config", cfg, "--levels", "2", "--out", str(tmp_path))
    assert res.returncode == 1
    assert "one mesh" in res.stderr


def test_custom_mesh_without_triangles_is_a_mesh_file_error(tmp_path, capsys):
    (tmp_path / "empty.txt").write_text("bfdarcy-mesh v1\n0 0 0\n")
    cfg = write_config(tmp_path, f"problem = custom\nmesh = {tmp_path / 'empty.txt'}\nF = 1\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert code == cli.EXIT_IO
    assert "NT >= 1" in capsys.readouterr().err


def test_mesh_gen_rejects_odd_interface_count(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\nnx = 5\nmesh = m.txt\n")
    res = run_cli("mesh-gen", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1
    assert "even" in res.stderr


# ------------------------------------------------------------------ shell


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # scipy.special would add about 0.1 s and 4 MB to every start-up, and
    # no module of the package needs it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bfdarcy.cli; "
        "print(bfdarcy.__file__); print('scipy.special' in sys.modules)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, PACKAGE_ROOT], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    path, loaded = res.stdout.split()
    assert Path(path).resolve().parents[1] == Path(PACKAGE_ROOT)
    assert loaded == "False"


def test_usage_errors(tmp_path):
    assert run_cli().returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("solve").returncode == 1  # --config is required
    cfg = write_config(tmp_path, "problem = example1_variant\n")
    assert run_cli("solve", "--config", cfg, "--frobnicate").returncode == 1


def test_config_parse_errors_carry_location(tmp_path):
    cfg = write_config(tmp_path, "problem = example2\nnx eight\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1
    assert "line 2" in res.stderr or ":2" in res.stderr

    cfg = write_config(tmp_path, "problem = example2\nnx = 8\nnx = 16\n")
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1
    assert "duplicate" in res.stderr


def test_config_rejects_the_removed_pressure_mode_key(tmp_path):
    cfg = write_config(tmp_path, "problem = example1_variant\npressure_mode = penalty\n")
    with pytest.raises(cli.UsageError, match="unknown configuration key 'pressure_mode'"):
        cli.parse_config(cfg)
