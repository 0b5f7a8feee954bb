"""The three workloads: inputs built from a seed, one pass, output checks.

Every workload runs ``newton_solve``; they differ in which layer carries
the time.

study    the acceptance manufactured study on squares, F=10, p=3, with
         ``compute_errors`` at every level, cut to nx = 4..32: the fifth
         level (nx=64) alone takes about 40 s.  All boundary data is
         essential, so ``apply_constraints`` borders the system with the
         dense pressure gauge and LU fill dominates.
channel  the acceptance channel-over-aquifer F sweep (nx=32, ny 16+16,
         p=4).  Mixed boundary data, so no gauge border; over its 31
         Newton steps per pass, assembly costs as much as factorization.  Each
         solve is followed by the invariant checks and a VTK export, the
         only file output of the three.
sweep    ``bfdarcy sweep`` through ``cli.main``: 5 F x 2 K_D x 4 levels,
         the only path through config parsing and the CLI's thread pool.
         Many small meshes make per-solve set-up a larger share.

The benchmark reaches the program only through module attributes
(``bf.solver.newton_solve``, ``bf.cli.main``, ...) looked up at call
time, so that a traced run can wrap them.

Seed 0 keeps the canonical order.  Any other seed permutes the order of
the independent solves (study levels, channel F values, the sweep's
F_list and K_D_list); every output is still checked against the same
per-case references.
"""

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

STUDY_RECT_B = (-0.5, 0.5, 0.5, 1.5)
STUDY_RECT_D = (-0.5, 0.5, -0.5, 0.5)
SWEEP_LEVELS = 4

# The acceptance gate's thresholds for a converged run.
FLUX_TOL = 1e-8
DIV_TOL = 1e-9
MEAN_TOL = 1e-8
# Pinned floating-point outputs must agree to this relative tolerance.
RTOL = 1e-6

NOT_FINITE = {b"nan", b"-nan", b"inf", b"-inf"}

ERROR_NORMS = ("e_uB", "e_pB", "e_uD", "e_pD", "e_lam")


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def seeded_order(items, rng, seed):
    items = list(items)
    if seed != 0:
        rng.shuffle(items)
    return items


class Tally:
    """Operations attempted and failed; each failure is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", flush=True)


def _close(name, got, want, problems):
    if not abs(got - want) <= RTOL * abs(want):
        problems.append(f"{name} = {got!r}, reference {want!r}")


def _equal(name, got, want, problems):
    if got != want:
        problems.append(f"{name} = {got!r}, reference {want!r}")


def _below(name, got, bound, problems):
    if not abs(got) <= bound:
        problems.append(f"|{name}| = {abs(got):.3e} exceeds {bound:g}")


def _invariants(bf, fields, data, problems):
    _below("interface flux residual", bf.verification.interface_flux_residual(fields),
           FLUX_TOL, problems)
    _below("divergence residual", bf.verification.divergence_residual(fields, data),
           DIV_TOL, problems)
    return bf.verification.pressure_mean(fields)


@dataclass
class Case:
    label: str
    ref: dict
    mesh: object
    params: object
    data: object
    exact: object = None


# ------------------------------------------------------------------ set-up


def setup(bf, name, seed, workdir, refs):
    """Build every input of workload ``name`` before its first solve."""
    rng = random.Random(seed)
    if name == "study":
        cases = []
        for ref in seeded_order(refs["study"], rng, seed):
            nx = ref["nx"]
            params = bf.assembly.PhysicalParams(
                mu=1.0, forchheimer=10.0, power=3.0, K_B=1.0, K_D=0.1
            )
            exact, data = bf.verification.manufactured_problem(params)
            mesh = bf.mesh.generate_stacked_rect(STUDY_RECT_B, STUDY_RECT_D, nx, nx, nx)
            cases.append(Case(f"study nx={nx}", ref, mesh, params, data, exact))
        return cases
    if name == "channel":
        cases = []
        for ref in seeded_order(refs["channel"], rng, seed):
            params, data, (rect_B, rect_D) = bf.verification.heterogeneous_flow_problem(ref["F"])
            mesh = bf.mesh.generate_stacked_rect(rect_B, rect_D, 32, 16, 16)
            cases.append(Case(f"channel F={ref['F']:g}", ref, mesh, params, data))
        return cases
    if name == "sweep":
        sweep = refs["sweep"]
        F_list = seeded_order(sweep["F_list"], rng, seed)
        K_D_list = seeded_order(sweep["K_D_list"], rng, seed)
        config = os.path.join(workdir, "sweep.cfg")
        with open(config, "w") as fh:
            fh.write(
                "problem = example2\n"
                f"F_list = {','.join(format(v, 'g') for v in F_list)}\n"
                f"K_D_list = {','.join(format(v, 'g') for v in K_D_list)}\n"
            )
        return {"config": config, "F_list": F_list, "K_D_list": K_D_list}
    raise ValueError(f"unknown workload {name!r}")


# -------------------------------------------------------------------- pass


def run_pass(bf, name, inputs, workdir, refs, tally):
    """One pass of workload ``name``; records one op per solve or sweep cell."""
    if name == "study":
        _study_pass(bf, inputs, tally)
    elif name == "channel":
        _channel_pass(bf, inputs, workdir, tally)
    else:
        _sweep_pass(bf, inputs, workdir, refs["sweep"], tally)


def _solve(bf, case, problems):
    try:
        fields, report = bf.solver.newton_solve(case.mesh, case.params, case.data)
    except bf.solver.SolverError as exc:
        problems.append(f"solve failed: {exc}")
        return None, None
    if not report.converged:
        problems.append(f"not converged: {report}")
    _equal("iterations", report.iterations, case.ref["iterations"], problems)
    return fields, report


def _study_pass(bf, cases, tally):
    for case in cases:
        problems = []
        fields, report = _solve(bf, case, problems)
        if fields is not None:
            _equal("dof", report.dof, case.ref["dof"], problems)
            err = bf.verification.compute_errors(fields, case.exact, report)
            for norm in ERROR_NORMS:
                _close(norm, getattr(err, norm), case.ref[norm], problems)
            _below("pressure mean", _invariants(bf, fields, case.data, problems),
                   MEAN_TOL, problems)
        tally.record(case.label, problems)


def _channel_pass(bf, cases, workdir, tally):
    for case in cases:
        problems = []
        fields, _ = _solve(bf, case, problems)
        if fields is not None:
            _close("pressure mean", _invariants(bf, fields, case.data, problems),
                   case.ref["pressure_mean"], problems)
            base = os.path.join(workdir, f"channel_F{case.ref['F']:g}")
            bf.vtk.write_solution_vtk(base + ".vtk", fields)
            bf.vtk.write_multiplier_vtk(base + "_multiplier.vtk", fields)
            for path in (base + ".vtk", base + "_multiplier.vtk"):
                with open(path, "rb") as fh:
                    tokens = set(fh.read().lower().split())
                if not tokens or tokens & NOT_FINITE:
                    problems.append(f"{os.path.basename(path)} is empty or not finite")
        tally.record(case.label, problems)


def _sweep_pass(bf, inputs, workdir, ref, tally):
    out = os.path.join(workdir, "sweep_out")
    csv = os.path.join(out, "sweep.csv")
    code = bf.cli.main(
        ["sweep", "--config", inputs["config"], "--levels", str(SWEEP_LEVELS),
         "--out", out, "--quiet"]
    )
    text = ""
    if os.path.exists(csv):
        with open(csv) as fh:
            text = fh.read()
    rows = {}
    for line in text.splitlines()[1:]:
        F, K_D, *counts = line.split(",")
        rows[(F, K_D)] = counts

    header = "F,K_D," + ",".join(f"iter_nx{4 * 2**lvl}" for lvl in range(SWEEP_LEVELS))
    expected = [header]
    cells = []
    for F in inputs["F_list"]:
        for K_D in inputs["K_D_list"]:
            key = (format(F, "g"), format(K_D, "g"))
            want = [str(n) for n in ref["iterations"][",".join(key)]]
            expected.append(",".join([*key, *want]))
            got = rows.get(key, []) + ["--"] * SWEEP_LEVELS
            cells.extend((key, lvl, got[lvl], want[lvl]) for lvl in range(SWEEP_LEVELS))
    # A cell's output is its row of the CSV, so a file that is not the
    # reference byte for byte fails every cell.
    shared = []
    if code != 0:
        shared.append(f"bfdarcy sweep exited with {code}")
    if text != "\n".join(expected) + "\n":
        shared.append("sweep.csv differs from the reference bytes")
    for (F, K_D), lvl, got, want in cells:
        problems = list(shared)
        _equal("iterations", got, want, problems)
        tally.record(f"sweep F={F} K_D={K_D} nx={4 * 2**lvl}", problems)
