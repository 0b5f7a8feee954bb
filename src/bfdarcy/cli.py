"""Command line driver for solves, convergence studies and sweeps.

Subcommands
-----------
solve        one nonlinear solve, report to stdout, CSV/VTK artifacts
convergence  uniform-refinement study on the manufactured problem
sweep        Newton iteration counts over a grid of F and K_D values
mesh-gen     generate a two-region mesh file

Configuration is a flat ASCII file of ``key = value`` lines with ``#``
comments.  Unknown keys are rejected.  Exit codes: 0 success, 1 usage or
configuration error, 2 solver failure, 3 I/O failure.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import assembly as asm
from . import mesh as msh
from . import solver as slv
from . import verification as ver
from . import vtk as vtk_io

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class UsageError(ValueError):
    """Raised for bad command lines and bad configuration input."""


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_floats(text):
    items = [s for s in text.replace(",", " ").split() if s]
    return [float(s) for s in items]


def _parse_tensor(text):
    vals = _parse_floats(text)
    if len(vals) == 1:
        return vals[0]
    if len(vals) == 4:
        return np.array(vals).reshape(2, 2)
    raise ValueError("permeability needs 1 value (scalar) or 4 (row-major 2x2)")


def _format_tensor(K):
    """A permeability in the syntax ``_parse_tensor`` reads."""
    return " ".join(f"{v:g}" for v in np.ravel(K))


def _parse_pair(text):
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise ValueError("expected two comma-separated numbers")
    return (vals[0], vals[1])


def _parse_rect(text):
    vals = _parse_floats(text)
    if len(vals) != 4:
        raise ValueError("expected x0,x1,y0,y1")
    return tuple(vals)


# key -> (converter, RunConfig attribute)
_KEYS = {
    "problem": (str, "problem"),
    "mu": (float, "mu"),
    "F": (float, "forchheimer"),
    "p": (float, "power"),
    "K_B": (_parse_tensor, "K_B"),
    "K_D": (_parse_tensor, "K_D"),
    "nx": (int, "nx"),
    "ny_B": (int, "ny_B"),
    "ny_D": (int, "ny_D"),
    "mesh": (str, "mesh_path"),
    "rect_B": (_parse_rect, "rect_B"),
    "rect_D": (_parse_rect, "rect_D"),
    "pattern": (str, "pattern"),
    "tol": (float, "tol"),
    "max_iter": (int, "max_iter"),
    "initial": (_parse_pair, "initial"),
    "csv": (str, "csv_name"),
    "vtk": (str, "vtk_name"),
    "quiet": (_parse_bool, "quiet"),
    "levels": (int, "levels"),
    "F_list": (_parse_floats, "F_list"),
    "K_D_list": (_parse_floats, "K_D_list"),
}

_PROBLEMS = ("example1_variant", "example2", "custom")

# per-problem defaults: params and geometry
_DEFAULTS = {
    "example1_variant": dict(
        mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1,
        rect_B=(-0.5, 0.5, 0.5, 1.5), rect_D=(-0.5, 0.5, -0.5, 0.5),
    ),
    "example2": dict(
        mu=1.0, forchheimer=10.0, power=4.0, K_B=0.1, K_D=1.0e-3,
        rect_B=(0.0, 2.0, 0.0, 1.0), rect_D=(0.0, 2.0, -1.0, 0.0),
    ),
    "custom": dict(
        mu=1.0, forchheimer=0.0, power=3.0, K_B=1.0, K_D=1.0,
        rect_B=None, rect_D=None,
    ),
}


@dataclass
class RunConfig:
    """One run's resolved settings: problem, parameters, mesh, outputs."""

    problem: str = "example1_variant"
    mu: float = None
    forchheimer: float = None
    power: float = None
    K_B: object = None
    K_D: object = None
    nx: int = 8
    ny_B: int = None
    ny_D: int = None
    mesh_path: str = None
    rect_B: tuple = None
    rect_D: tuple = None
    pattern: str = "right"
    tol: float = 1.0e-6
    max_iter: int = 50
    initial: tuple = (0.1, 0.0)
    csv_name: str = None
    vtk_name: str = None
    quiet: bool = False
    levels: int = None
    F_list: list = None
    K_D_list: list = None

    def resolved(self):
        """Fill unset parameters from the problem's defaults."""
        if self.problem not in _PROBLEMS:
            raise UsageError(
                f"unknown problem {self.problem!r}; choose from {', '.join(_PROBLEMS)}"
            )
        base = _DEFAULTS[self.problem]
        for name, value in base.items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        if self.ny_B is None:
            self.ny_B = self._default_ny()
        if self.ny_D is None:
            self.ny_D = self._default_ny()
        return self

    def _default_ny(self):
        if self.rect_B is None:
            return self.nx
        x0, x1, y0, y1 = self.rect_B
        width, height = x1 - x0, y1 - y0
        return max(1, round(self.nx * height / width))

    def params(self, forchheimer=None, K_D=None):
        return asm.PhysicalParams(
            mu=self.mu,
            forchheimer=self.forchheimer if forchheimer is None else forchheimer,
            power=self.power,
            K_B=self.K_B,
            K_D=self.K_D if K_D is None else K_D,
        )

    def newton_options(self):
        return slv.NewtonOptions(tol=self.tol, max_iter=self.max_iter, initial=self.initial)


def parse_config(path):
    """Read a ``key = value`` file into a RunConfig.

    Unknown keys, unparsable values and duplicate keys are usage errors.
    """
    cfg = RunConfig()
    seen = set()
    with open(path) as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        conv, attr = _KEYS[key]
        try:
            setattr(cfg, attr, conv(value))
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}")
    return cfg


def _build_mesh(cfg, nx=None):
    if cfg.problem == "custom":
        if cfg.mesh_path is None:
            raise UsageError("problem 'custom' needs a 'mesh' path in the config")
        return msh.load_mesh(cfg.mesh_path)
    nx = cfg.nx if nx is None else nx
    scale = nx / cfg.nx if cfg.nx else 1
    ny_B = max(1, round(cfg.ny_B * scale))
    ny_D = max(1, round(cfg.ny_D * scale))
    return msh.generate_stacked_rect(
        cfg.rect_B, cfg.rect_D, nx, ny_B, ny_D, pattern=cfg.pattern
    )


def _problem_data(cfg, forchheimer=None, K_D=None):
    """Parameters, data and (optionally) the exact solution."""
    params = cfg.params(forchheimer=forchheimer, K_D=K_D)
    if cfg.problem == "example1_variant":
        exact, data = ver.manufactured_problem(params, rect_B=cfg.rect_B, rect_D=cfg.rect_D)
    elif cfg.problem == "example2":
        params, data, _ = ver.heterogeneous_flow_problem(
            params.forchheimer, power=params.power, mu=params.mu,
            K_B=params.K_B, K_D=params.K_D,
        )
        exact = None
    else:
        data = asm.ProblemData()
        exact = None
    return params, data, exact


def _out_path(out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def cmd_solve(cfg, out_dir, want_vtk, quiet):
    mesh = _build_mesh(cfg)
    params, data, exact = _problem_data(cfg)
    fields, report = slv.newton_solve(mesh, params, data, cfg.newton_options())
    if not report.converged:
        raise slv.SolverError(
            f"no convergence in {report.iterations} iterations "
            f"(last increment {report.increments[-1]:.3e})"
        )

    _say(quiet, f"problem: {cfg.problem}")
    _say(quiet, f"mesh: {mesh.num_triangles} triangles, "
                f"h_B={mesh.h_B:.4f} h_D={mesh.h_D:.4f} h_Sigma={mesh.h_Sigma:.4f}")
    _say(quiet, f"dof: {report.dof}")
    _say(quiet, f"iterations: {report.iterations}")
    _say(quiet, f"last increment: {report.increments[-1]:.3e}")
    _say(quiet, f"interface flux residual: {ver.interface_flux_residual(fields):.3e}")
    _say(quiet, f"divergence residual: {ver.divergence_residual(fields, data):.3e}")

    if exact is not None:
        err = ver.compute_errors(fields, exact, report)
        _say(quiet, f"errors: e_uB={err.e_uB:.3e} e_pB={err.e_pB:.3e} "
                    f"e_uD={err.e_uD:.3e} e_pD={err.e_pD:.3e} e_lam={err.e_lam:.3e}")
    else:
        err = ver.ErrorReport(mesh.h_B, mesh.h_D, mesh.h_Sigma, report.dof, report.iterations)

    csv_path = _out_path(out_dir, cfg.csv_name or "solve.csv")
    with open(csv_path, "w") as fh:
        fh.write(ver.convergence_csv([err]))
    _say(quiet, f"wrote {csv_path}")

    if want_vtk or cfg.vtk_name:
        base = (cfg.vtk_name or "solve").removesuffix(".vtk")
        grid_path = _out_path(out_dir, base + ".vtk")
        lam_path = _out_path(out_dir, base + "_multiplier.vtk")
        vtk_io.write_solution_vtk(grid_path, fields)
        vtk_io.write_multiplier_vtk(lam_path, fields)
        _say(quiet, f"wrote {grid_path}")
        _say(quiet, f"wrote {lam_path}")
    return EXIT_OK


def cmd_convergence(cfg, levels, out_dir, quiet):
    if cfg.problem != "example1_variant":
        raise UsageError("convergence needs the manufactured problem (example1_variant)")
    if levels < 3:
        raise UsageError(f"need >= 3 levels, got {levels}")

    csv_path = _out_path(out_dir, cfg.csv_name or "convergence.csv")
    reports = []
    opts = cfg.newton_options()
    params, data, exact = _problem_data(cfg)
    with open(csv_path, "w") as fh:
        fh.write(ver.CSV_HEADER + "\n")
        fh.flush()
        for level in range(levels):
            nx = 4 * 2**level
            disc = slv.Discretization.build(_build_mesh(cfg, nx=nx), data)
            try:
                fields, report = slv.newton_solve(disc, params, data, opts)
            except slv.SolverError:
                _say(quiet, f"level {level} failed; partial table in {csv_path}")
                raise
            if not report.converged:
                _say(quiet, f"level {level} did not converge; partial table in {csv_path}")
                raise slv.SolverError(f"no convergence at level {level} (nx={nx})")
            err = ver.compute_errors(fields, exact, report)
            reports.append(err)
            # rewrite the whole table so rates stay consistent, then flush
            fh.seek(0)
            fh.truncate()
            fh.write(ver.convergence_csv(reports))
            fh.flush()
            _say(quiet, f"level {level}: nx={nx} dof={err.dof} iter={err.iterations} "
                        f"e_uB={err.e_uB:.3e} e_lam={err.e_lam:.3e}")
    _say(quiet, f"wrote {csv_path}")
    if not quiet:
        sys.stdout.write(ver.convergence_csv(reports))
    return EXIT_OK


def cmd_sweep(cfg, levels, out_dir, quiet):
    if not cfg.F_list:
        raise UsageError("sweep needs a nonempty F_list in the config")
    K_D_list = cfg.K_D_list or [cfg.K_D]
    if cfg.problem == "custom":
        # A loaded mesh cannot be refined, so the sweep has that one level.
        levels = 1 if levels is None else levels
        if levels > 1:
            raise UsageError(f"problem 'custom' sweeps its one mesh; got {levels} levels")
        names, where = ["iter"], [f"mesh {cfg.mesh_path}"]
    else:
        levels = 4 if levels is None else levels
        nxs = [4 * 2**lvl for lvl in range(levels)]
        names, where = [f"iter_nx{nx}" for nx in nxs], [f"nx={nx}" for nx in nxs]
    if levels < 1:
        raise UsageError(f"need >= 1 level, got {levels}")

    # Every cell of a level solves on one shared discretization, built
    # here before any cell starts, and every cell of a (level, K_D) group
    # on one shared StaticSystem, which F does not change; the cells only
    # read both.
    opts = cfg.newton_options()
    _, layout, _ = _problem_data(cfg, forchheimer=cfg.F_list[0], K_D=K_D_list[0])
    discs = [
        slv.Discretization.build(_build_mesh(cfg, nx=4 * 2**lvl), layout)
        for lvl in range(levels)
    ]
    groups = [(ki, lvl) for ki in range(len(K_D_list)) for lvl in range(levels)]
    cells = [
        (fi, ki, lvl)
        for fi in range(len(cfg.F_list))
        for ki in range(len(K_D_list))
        for lvl in range(levels)
    ]

    def build(group):
        ki, lvl = group
        params, data, _ = _problem_data(cfg, forchheimer=cfg.F_list[0], K_D=K_D_list[ki])
        return slv.StaticSystem.build(discs[lvl], params, data)

    def run(cell):
        fi, ki, lvl = cell
        params, data, _ = _problem_data(cfg, forchheimer=cfg.F_list[fi], K_D=K_D_list[ki])
        linear = statics[(ki, lvl)].result()
        fields, report = slv.newton_solve(discs[lvl], params, data, opts, linear)
        if not report.converged:
            raise slv.SolverError(
                f"no convergence for F={cfg.F_list[fi]:g}, "
                f"K_D={_format_tensor(K_D_list[ki])}, {where[lvl]}"
            )
        return report.iterations

    # SuperLU releases the interpreter lock, so cells overlap up to one
    # thread per core; more threads only add memory.  The pool starts
    # tasks in the order they are submitted, so every StaticSystem is
    # being built before any cell waits for it.
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(cells))) as pool:
        statics = {group: pool.submit(build, group) for group in groups}
        futures = {cell: pool.submit(run, cell) for cell in cells}

    lines = ["F,K_D," + ",".join(names)]
    failure = None
    for fi, F in enumerate(cfg.F_list):
        for ki, K_D in enumerate(K_D_list):
            counts = []
            for lvl in range(levels):
                try:
                    counts.append(str(futures[(fi, ki, lvl)].result()))
                except slv.SolverError as exc:
                    failure = failure or exc
                    counts.append("--")
            lines.append(f"{F:g},{_format_tensor(K_D)}," + ",".join(counts))

    csv_path = _out_path(out_dir, cfg.csv_name or "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _say(quiet, f"wrote {csv_path}")
    if not quiet:
        sys.stdout.write("\n".join(lines) + "\n")
    if failure is not None:
        raise failure
    return EXIT_OK


def cmd_mesh_gen(cfg, out_dir, quiet):
    if cfg.problem == "custom":
        raise UsageError("mesh-gen needs a rectangle problem (example1_variant or example2)")
    mesh = _build_mesh(cfg)
    path = _out_path(out_dir, cfg.mesh_path or "mesh.txt")
    msh.save_mesh(mesh, path)
    _say(quiet, f"wrote {path} ({mesh.num_vertices} vertices, "
                f"{mesh.num_triangles} triangles)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _make_parser():
    parser = _Parser(prog="bfdarcy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in ("solve", "convergence", "sweep", "mesh-gen"):
        p = sub.add_parser(name)
        p.add_argument(
            "--config", metavar="PATH", required=True, help="key = value configuration file"
        )
        p.add_argument("--levels", type=int, metavar="N", help="number of refinement levels")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory")
        p.add_argument("--vtk", action="store_true", help="write VTK field files")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None):
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required: solve | convergence | sweep | mesh-gen")
        cfg = parse_config(args.config)
        if args.quiet:
            cfg.quiet = True
        cfg.resolved()
        levels = args.levels if args.levels is not None else cfg.levels

        if args.command == "solve":
            return cmd_solve(cfg, args.out, args.vtk, cfg.quiet)
        if args.command == "convergence":
            return cmd_convergence(cfg, 5 if levels is None else levels, args.out, cfg.quiet)
        if args.command == "sweep":
            return cmd_sweep(cfg, levels, args.out, cfg.quiet)
        return cmd_mesh_gen(cfg, args.out, cfg.quiet)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (msh.MeshFormatError, msh.MeshConformityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except slv.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
