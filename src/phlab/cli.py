"""Experiment orchestration: subcommands, reports, CSV and plot artifacts.

    phlab <subcommand> <config.json> [--out DIR]

Subcommands: verify-construction, verify-cones, lyapunov, gibbs, skeleton,
product-checks.  Every run writes report.txt (human), report.csv (machine)
and task CSVs into the output directory; exit status is 0 when every check
passes, 1 on any failed check, 2 on a usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import cones as cones_mod
from . import gibbs as gibbs_mod
from . import skeleton as skel_mod
from .config import ExperimentConfig, build_system
from .deformation import _fine_axis_on, _slab_grid, small_partial_sup
from .deformation import center_gap_condition, rate_inequalities
from .bump import compute_M
from .ergodic import (
    OrbitSpec,
    birkhoff_average,
    bundle_exponent,
    bundle_exponent_batch,
    entropy_volume_identity,
    lyapunov_spectrum,
    make_rng,
    push_forward,
)
from .errors import ConfigError, PhlabError
from .product import (
    LinearSystem,
    commuting_diagram_check,
    fiber_pushforward_statistics,
)
from .report import (
    RunReport,
    heatmap_plot_script,
    history_plot_script,
    write_csv,
    write_gnuplot,
)
from .torus import (
    CAT_MAP,
    IntegerMatrix,
    ToralAutomorphism,
    enumerate_periodic,
    fixed_point_count,
    torus_distance,
)

TASKS = {}


def task(name):
    def wrap(fn):
        TASKS[name] = fn
        return fn

    return wrap


def _require_deformed(system, name):
    if not hasattr(system, "chart_p") or not hasattr(system, "params"):
        raise ConfigError(f"{name} needs a deformed or tilde system config")


def _fd_jacobian(system, pts):
    """Fourth-order difference ambient Jacobians for a batch of points.

    (4 D(h) - D(2h)) / 3 of central differences D, at h = 5e-4 of the bump's
    transition width delta/k.  The quotient must resolve the steepest part of
    the deformation, where a plain central difference needs a step so small
    that rounding spoils it; with the fourth-order form, a longer step keeps
    rounding below 1e-5 down to delta/k = 1e-7.  h is capped at 1e-2/luu so
    that the images of x +- 2h stay far less than a torus period apart.
    """
    from .torus import torus_displacement

    h = min(5e-4 * system.params.delta / system.params.k, 1e-2 / system.luu)
    pts = np.atleast_2d(pts)
    n, d = pts.shape
    jac = np.zeros((n, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        d1, d2 = (torus_displacement(system.step(pts + s * e), system.step(pts - s * e)) / (2 * s * h)
                  for s in (1, 2))
        jac[:, :, i] = (4 * d1 - d2) / 3
    return jac


# ----------------------------------------------------------------------------


@task("verify-construction")
def run_verify_construction(config: ExperimentConfig, report: RunReport, out_dir: str):
    system, resolved = build_system(config)
    _require_deformed(system, "verify-construction")
    report.set_params(**resolved)
    params = system.params
    bump = system.bump
    delta = params.delta
    rng = make_rng(config.seed)

    n_bump = config.task_value("bump_samples", 1000)
    xs = np.linspace(0.0, delta / 2.0, n_bump)
    report.add("bump-plateau", np.all(bump(xs) == 1.0), float(np.min(bump(xs))), "= 1")
    xs = np.linspace(delta, 4.0 * delta, n_bump)
    report.add("bump-support", np.all(bump(xs) == 0.0), float(np.max(bump(xs))), "= 0")
    # strict decrease saturates in float64 at the flat band endpoints, so
    # demand "never increases" on the full band and strictness on its core
    xs = np.linspace(delta / 2.0, delta, n_bump + 2)[1:-1]
    diffs = np.diff(bump(xs))
    core = np.linspace(delta / 2.0 + delta / 20.0, delta - delta / 20.0, n_bump)
    core_diffs = np.diff(bump(core))
    report.add("bump-monotone", np.all(diffs <= 0.0) and np.all(core_diffs < 0.0),
               float(np.max(core_diffs)), "< 0 on the core, <= 0 everywhere")
    vals = bump(rng.random(100_000) * 2 * delta)
    report.add("bump-range", np.all((vals >= 0) & (vals <= 1)),
               float(np.max(np.abs(vals - 0.5))), "<= 0.5", "0 <= s <= 1")

    # analytic derivative vs centered differences; in the flat tails of the
    # transition both fall below double-precision resolution of s, so an
    # absolute floor takes over there
    xs = np.linspace(0.0, 2 * delta, n_bump)
    keep = (np.abs(xs - delta / 2.0) > 1e-4) & (np.abs(xs - delta) > 1e-4)
    xs = xs[keep]
    h = 1e-7
    fd = (bump(xs + h) - bump(xs - h)) / (2 * h)
    an = bump.derivative(xs)
    err = np.abs(an - fd)
    ok = (err <= 1e-6 * np.abs(fd)) | (err <= 1e-9)
    report.add("bump-derivative-fd", np.all(ok), float(np.max(err)),
               "rel 1e-6 or abs 1e-9")

    bound = compute_M(bump)
    report.set_params(M=bound.M, M_argmin=list(bound.argmin))
    for name, lhs, rhs, holds in rate_inequalities(bound.M, params.n, params.m):
        report.add(f"rate-inequality-{name}", holds, lhs, f"<= {rhs:.10g}")
    value, low, high, holds = center_gap_condition(params.eps1, system.lu)
    report.add("center-gap-condition", holds, value, "> 0",
               f"factors {low:.6f} < 1 < {high:.6f}")
    sup = small_partial_sup(system)
    report.add("cross-partials-sup", sup < params.eps0, sup, f"< {params.eps0}")

    # monotone derivative bounds on the chart grid, random points, and the
    # active slab where the extremes actually live
    gp = config.task_value("grid_points", 11)
    tol = 1e-9
    g = np.linspace(-2 * delta, 2 * delta, gp)
    mesh = np.stack(np.meshgrid(g, g, g, g, indexing="ij"), axis=-1).reshape(-1, 4)
    n_rand = config.task_value("random_chart_points", 20_000)
    rand_pts = (rng.random((n_rand, 4)) - 0.5) * 4 * delta
    slab = _slab_grid(delta, params.k, n_c=41, n_abd=9)
    allpts = np.concatenate([mesh, rand_pts, slab])
    for cube, name, upper in zip(system.cubes, ("dPdc", "dQdd"),
                                 (system.luu / 2, 1 / (2 * system.lss))):
        dy = system.field_gradient(cube, _fine_axis_on(allpts, cube.j))[..., cube.j]
        report.add(f"splitting-{name}-lower", np.min(dy) >= 1.0 - tol, float(np.min(dy)), ">= 1")
        report.add(f"splitting-{name}-upper", np.max(dy) <= upper + tol,
                   float(np.max(dy)), f"<= {upper:.10g}")

    n_round = config.task_value("roundtrip_points", 10_000)
    n_chart = config.task_value("roundtrip_chart_points", 1000)
    pts = rng.random((n_round, 4))
    chart_coords = (rng.random((n_chart, 4)) - 0.5) * 4 * delta
    pts = np.concatenate([
        pts,
        system.chart_p.from_chart(chart_coords),
        system.chart_q.from_chart(chart_coords),
    ])
    err_i = np.max(torus_distance(system.deform_inverse(system.deform(pts)), pts))
    report.add("bijectivity-deformation", err_i < 1e-10, float(err_i), "< 1e-10")
    err_f = np.max(torus_distance(system.step_inverse(system.step(pts)), pts))
    report.add("bijectivity-map", err_f < 1e-10, float(err_f), "< 1e-10")

    jp, jq = system.fixed_point_jacobians()
    target_p = np.diag([system.luu, system.lss, 1.0 - params.eps_tilde, system.ls])
    fourth = 1.0 if params.eps_tilde == 0 else 1.0 / (1.0 - params.eps_tilde)
    target_q = np.diag([system.luu, system.lss, system.lu, fourth])
    report.add("jacobian-at-p", np.max(np.abs(jp - target_p)) < 1e-8,
               float(np.max(np.abs(jp - target_p))), "< 1e-8")
    report.add("jacobian-at-q", np.max(np.abs(jq - target_q)) < 1e-8,
               float(np.max(np.abs(jq - target_q))), "< 1e-8")

    n_fd = config.task_value("fd_points", 1000)
    fd_pts = np.concatenate([
        rng.random((n_fd // 2, 4)),
        system.chart_p.from_chart((rng.random((n_fd // 4, 4)) - 0.5) * 4 * delta),
        system.chart_q.from_chart((rng.random((n_fd // 4, 4)) - 0.5) * 4 * delta),
    ])
    ja = system.jacobian(fd_pts)
    jf = _fd_jacobian(system, fd_pts)
    rel = np.linalg.norm(ja - jf, axis=(1, 2)) / np.linalg.norm(ja, axis=(1, 2))
    report.add("jacobian-fd", np.max(rel) < 1e-5, float(np.max(rel)), "< 1e-5")

    # smooth gluing: the deformation vanishes identically near the cube faces,
    # so points offset 1e-6 inside must map by the plain automorphism and the
    # Jacobians inside/outside must agree
    off = 1e-6
    face = (rng.random((500, 3)) - 0.5) * 4 * delta
    worst = 0.0
    for roll in range(4):
        cin = np.roll(np.concatenate([np.full((500, 1), 2 * delta - off), face], axis=1),
                      roll, axis=1)
        cout = cin.copy()
        cout[:, roll] = 2 * delta + off
        a = system.chart_p.from_chart(cin)
        b = system.chart_p.from_chart(cout)
        d_def = np.max(torus_distance(system.deform(a), a))
        d_jac = np.max(np.abs(system.jacobian(a) - system.jacobian(b)))
        worst = max(worst, float(d_def), float(d_jac))
    report.add("boundary-gluing", worst < 1e-4, worst, "< 1e-4",
               "deformation and Jacobian jump across the cube face")

    pts = rng.random((500, 4))
    prod = system.jacobian_inverse(system.step(pts)) @ system.jacobian(pts)
    err = np.max(np.abs(prod - np.eye(4)))
    report.add("jacobian-inverse-chain", err < 1e-9, float(err), "< 1e-9")

    tilde = system if params.eps_tilde > 0 else system.make_tilde(
        config.task_value("eps_tilde_check", 0.05))
    jpt, jqt = tilde.fixed_point_jacobians()
    idx_p = int(np.sum(np.abs(np.diag(jpt)) < 1.0))
    idx_q = int(np.sum(np.abs(np.diag(jqt)) < 1.0))
    report.add("tilde-index-p", idx_p == 3, idx_p, "= 3")
    report.add("tilde-index-q", idx_q == 1, idx_q, "= 1")
    gap = float(min(np.min(np.abs(np.abs(np.diag(jpt)) - 1.0)),
                    np.min(np.abs(np.abs(np.diag(jqt)) - 1.0))))
    report.add("tilde-hyperbolicity", gap > 1e-6, gap, "> 1e-6")


@task("verify-cones")
def run_verify_cones(config: ExperimentConfig, report: RunReport, out_dir: str):
    system, resolved = build_system(config)
    _require_deformed(system, "verify-cones")
    report.set_params(**resolved)
    n_points = config.task_value("n_points", 2000)
    n_vectors = config.task_value("n_vectors", 5)
    sandwich_steps = config.task_value("sandwich_steps", 20)
    cones = cones_mod.standard_cones(system)
    plan = [
        ("uu-forward", "forward", True),
        ("ss-backward", "backward", True),
        ("center-u", "forward", False),
        ("center-s", "backward", False),
    ]
    rows = [("cone", "direction", "theta", "gamma", "violation", "samples",
             "witness_point")]
    for i, (name, direction, needs_growth) in enumerate(plan):
        rep = cones_mod.verify_invariance(
            system, cones[name], direction,
            n_points=n_points, n_vectors=n_vectors, rng=make_rng(config.seed, i),
        )
        witness = ";".join(f"{v:.17g}" for v in rep.witness_point)
        rows.append((name, direction, rep.theta, rep.growth_gamma,
                     rep.worst_violation, rep.samples, witness))
        report.add(f"cone-{name}-invariant", rep.theta < 1.0, rep.theta, "theta < 1")
        if needs_growth:
            report.add(f"cone-{name}-growth", rep.growth_gamma > 1.0,
                       rep.growth_gamma, "gamma > 1")
        if rep.worst_violation > 0:
            report.warn(f"cone {name}: image left the cone by {rep.worst_violation:.3e}")
    resid = cones_mod.plane_invariance_residual(system, n_points, rng=make_rng(config.seed, 17))
    report.add("center-plane-invariance", resid < 1e-12, resid, "< 1e-12")
    write_csv(os.path.join(out_dir, "cones.csv"), rows)

    cone = cones.get("uu-forward")
    v = cone.sample(make_rng(config.seed, 23), 1)[0]
    x = make_rng(config.seed, 29).random(4)
    lo, val, hi = cones_mod.growth_sandwich_check(system, x, v, sandwich_steps, cone, system.luu)
    report.add("growth-sandwich", lo * (1 - cones_mod.SANDWICH_RTOL) <= val <= hi, val / lo,
               f"in [1 - {cones_mod.SANDWICH_RTOL:g}, {np.sqrt(cone.width ** 2 + 1):.9f}]",
               "||Df^n v|| between rate^n |v_core| and sqrt(w^2+1) of it, "
               f"less {cones_mod.SANDWICH_RTOL:g} relative rounding at the lower end")


@task("lyapunov")
def run_lyapunov(config: ExperimentConfig, report: RunReport, out_dir: str):
    system, resolved = build_system(config)
    _require_deformed(system, "lyapunov")
    report.set_params(**resolved)
    n_orbits = config.task_value("n_orbits", 20)
    length = config.task_value("orbit_length", 20_000)
    transient = config.task_value("transient", 200)
    if length <= transient:
        raise ConfigError(f"task.orbit_length: must exceed task.transient ({transient})")
    horizon = config.task_value("pesin_horizon", 4)
    starts = make_rng(config.seed, 1).random((n_orbits, 4))

    cu_vals, cu_conv = bundle_exponent_batch(system, starts, length, transient, "cu")
    cs_vals, cs_conv = bundle_exponent_batch(system, starts, length, transient, "cs_ss")
    rows = [("orbit", "cu_exponent", "cu_converged", "cs_ss_exponent", "cs_ss_converged")]
    for i in range(n_orbits):
        rows.append((i, cu_vals[i], bool(cu_conv[i]), cs_vals[i], bool(cs_conv[i])))
    write_csv(os.path.join(out_dir, "bundle_exponents.csv"), rows)
    n_pos = int(np.sum(cu_vals > 0))
    n_neg = int(np.sum(cs_vals < 0))
    need = config.task_value("min_good_orbits", n_orbits - 1)
    report.add("cu-exponent-positive", n_pos >= need, n_pos, f">= {need} of {n_orbits}")
    report.add("cs-exponent-negative", n_neg >= need, n_neg, f">= {need} of {n_orbits}")
    report.add("convergence-flags", bool(np.all(cu_conv) and np.all(cs_conv)),
               int(np.sum(cu_conv) + np.sum(cs_conv)), f"= {2 * n_orbits}")

    at_p = bundle_exponent(
        system, OrbitSpec(start=system.chart_p.center, length=2000, transient=0), "cu")
    report.add("cu-exponent-at-p", abs(at_p.value) < 1e-6, at_p.value, "|.| < 1e-6")

    spec = lyapunov_spectrum(
        system, OrbitSpec(start=starts[0], length=min(length, 20_000), transient=transient))
    report.add("spectrum-sum-vs-det", abs(spec.total - spec.log_det) < 1e-8,
               abs(spec.total - spec.log_det), "< 1e-8",
               "sum of exponents equals Birkhoff average of log|det Df|")

    # finite-horizon Pesin block: generic points are members below the center
    # gap, the flattened fixed point is expelled immediately
    from .ergodic import PesinBlockQuery, pesin_block_membership

    alpha = 0.5 * float(np.log(system.lu))
    q = PesinBlockQuery(alpha=alpha, l=1, horizon=horizon)
    member, _ = pesin_block_membership(system, starts[0], q)
    report.add("pesin-member-generic", member, member, "member",
               f"alpha = log(lu)/2 = {alpha:.4f}")
    member_p, first = pesin_block_membership(system, system.chart_p.center, q)
    report.add("pesin-excluded-at-p", (not member_p) and first == 1,
               first if first is not None else -1, "first failure at n = 1")

    est, log_rate, gap = entropy_volume_identity(
        system, OrbitSpec(start=starts[1], length=length, transient=0))
    report.add("skew-volume-identity", gap < 0.05, gap, "< 0.05",
               f"estimate {est:.6f} vs log(luu) {log_rate:.6f}")
    hist_rows = [("step", "exp1", "exp2", "exp3", "exp4")]
    hist_rows += [tuple(r) for r in spec.history]
    write_csv(os.path.join(out_dir, "lyapunov_history.csv"), hist_rows)
    write_gnuplot(
        os.path.join(out_dir, "lyapunov_history.gp"),
        history_plot_script("lyapunov_history.csv",
                            ["exp1", "exp2", "exp3", "exp4"],
                            "running Lyapunov estimates", "lyapunov_history.png"),
    )


@task("gibbs")
def run_gibbs(config: ExperimentConfig, report: RunReport, out_dir: str):
    system, resolved = build_system(config)
    _require_deformed(system, "gibbs")
    report.set_params(**resolved)
    rng = make_rng(config.seed, 3)
    n_samples = config.task_value("plaque_samples", 10_000)
    n_steps = config.task_value("cesaro_steps", 2000)
    grid_side = config.task_value("grid_side", 16)
    half_length = config.task_value("plaque_half_length", 0.1)
    integral_orbit = config.task_value("integral_orbit", 20_000)
    if integral_orbit <= 200:
        raise ConfigError("task.integral_orbit: must exceed the 200-step transient")

    anchor = rng.random(4)
    plaque = gibbs_mod.seed_plaque(system, anchor, half_length, n_samples)
    # the base projection of the plaque must carry the uniform segment measure
    from .torus import torus_displacement

    base_dir = plaque.direction[:2] / np.linalg.norm(plaque.direction[:2])
    proj = torus_displacement(plaque.points(), plaque.anchor)[:, :2] @ base_dir
    t = (np.sort(proj) - proj.min()) / (proj.max() - proj.min())
    ks = float(np.max(np.abs(t - (np.arange(n_samples) + 0.5) / n_samples)))
    report.add("plaque-base-uniform", ks < 0.02, ks, "< 0.02",
               "KS statistic of the projected segment parameter")

    slab = gibbs_mod.SlabMassTracker(system)
    center = gibbs_mod.CenterGrowthTracker(system, n_samples,
                                           warmup=config.task_value("tracker_warmup", 50))
    grid = (grid_side,) * 4
    state = gibbs_mod.cesaro_push(system, plaque, n_steps, grid, trackers=(slab, center))
    report.add("cesaro-mass", abs(state.accumulated.total - 1.0) < 1e-12,
               abs(state.accumulated.total - 1.0), "< 1e-12")
    base = gibbs_mod.pushforward_base(state.accumulated, 2)
    tv = gibbs_mod.total_variation(
        base, gibbs_mod.EmpiricalMeasure.uniform(base.grid))
    report.add("base-marginal-uniform", tv < 0.05, tv, "< 0.05")
    report.add("slab-mass", slab.value <= 0.01 + 0.02, slab.value, "<= 0.03",
               "Lebesgue budget of the chart cross-section plus TV tolerance")
    report.add("cesaro-invariance-gap", state.invariance_gap() < 0.05,
               state.invariance_gap(), "< 0.05")
    report.add("cu-integral-cesaro", center.value > 0.0, center.value, "> 0")

    orbit = OrbitSpec(start=None, seed=config.seed + 11, length=integral_orbit, transient=200)
    cu = bundle_exponent(system, orbit, "cu")
    cs = bundle_exponent(system, orbit, "cs")
    report.add("cu-integral-orbit", cu.value > 0.0, cu.value, "> 0",
               "time average of log|det Df restricted to F^cu|")
    report.add("cs-inverse-integral-orbit", -cs.value > 0.0, -cs.value, "> 0",
               "time average of log|det Df^{-1} restricted to F^cs|")

    chart = system.chart_p
    occupancy = birkhoff_average(
        system, orbit, lambda x: float(chart.to_chart(x)[1]))
    report.add("chart-occupancy-birkhoff", occupancy.value <= 0.01 + 0.02,
               occupancy.value, "<= 0.03",
               "orbit time in the p-cube vs the Lebesgue budget")

    rows = [("i", "j", "mass")]
    for idx in np.argwhere(base.mass > 0):
        rows.append((int(idx[0]), int(idx[1]), base.mass[tuple(idx)]))
    write_csv(os.path.join(out_dir, "base_marginal.csv"), rows)
    write_gnuplot(os.path.join(out_dir, "base_marginal.gp"),
                  heatmap_plot_script("base_marginal.csv",
                                      "base marginal of the Cesaro estimate",
                                      "base_marginal.png"))
    rows = [("i", "j", "k", "l", "mass")]
    rows += state.accumulated.to_rows()
    write_csv(os.path.join(out_dir, "cesaro_measure.csv"), rows)


@task("skeleton")
def run_skeleton(config: ExperimentConfig, report: RunReport, out_dir: str):
    system, resolved = build_system(config)
    report.set_params(**resolved)
    cat = LinearSystem(ToralAutomorphism(CAT_MAP))
    d_mat = IntegerMatrix(CAT_MAP)
    max_period = config.task_value("census_max_period", 5)
    rng = make_rng(config.seed, 5)
    rows = [("period", "expected", "found")]
    census_ok = True
    for n in range(1, max_period + 1):
        guesses = enumerate_periodic(d_mat, n)
        recs = []
        for g in guesses:
            recs.append(skel_mod.newton_periodic(
                cat, g + 1e-3 * rng.standard_normal(2), n))
        recs = skel_mod.distinct_records(recs)
        expected = fixed_point_count(d_mat, n)
        rows.append((n, expected, len(recs)))
        census_ok = census_ok and (len(recs) == expected)
    write_csv(os.path.join(out_dir, "census.csv"), rows)
    report.add("periodic-census", census_ok, rows[-1][2], f"counts match |det(D^n - I)|")

    # mutual homoclinic relations collapse same-index fixed points to one
    target = config.task_value("arc_length", 3.0)
    resolution = config.task_value("arc_resolution", 1e-3)
    fixed3 = enumerate_periodic(d_mat, 3)
    others = [p for p in fixed3 if np.linalg.norm(p) > 1e-9]
    second = max(others, key=lambda p: float(torus_distance(p, np.zeros(2))))
    recs = [
        skel_mod.newton_periodic(cat, np.zeros(2), 1),
        skel_mod.newton_periodic(cat, second, 3),
    ]
    arcs = {
        i: {
            "unstable": skel_mod.grow_fan(cat, r, "unstable", target, resolution),
            "stable": skel_mod.grow_fan(cat, r, "stable", target, resolution),
        }
        for i, r in enumerate(recs)
    }
    cand = skel_mod.extract_skeleton(recs, arcs, tol=config.task_value("tol", 1e-4))
    report.add("skeleton-mutual-collapse", len(cand.members) == 1,
               len(cand.members), "= 1",
               "fully connected pair keeps the lower-period member")
    for w in cand.warnings:
        report.warn(w)
    if config.task_value("dump_arcs", False):
        arc_rows = [("record", "kind", "ray", "x0", "x1")]
        for i, group in arcs.items():
            for kind in ("unstable", "stable"):
                for ray, arc in enumerate(group[kind]):
                    for pt in arc.polyline:
                        arc_rows.append((i, kind, ray, pt[0], pt[1]))
        write_csv(os.path.join(out_dir, "arcs.csv"), arc_rows)
    ev_rows = [("i", "j", "min_distance", "connected")]
    n = len(recs)
    for i in range(n):
        for j in range(n):
            if i != j:
                ev_rows.append((i, j, cand.distance_matrix[i, j],
                                bool(cand.connection_matrix[i, j])))
    write_csv(os.path.join(out_dir, "heteroclinic_evidence.csv"), ev_rows)

    if hasattr(system, "make_tilde"):
        tilde = system if system.params.eps_tilde > 0 else system.make_tilde(0.05)
        rec_p = skel_mod.newton_periodic(tilde, tilde.chart_p.center, 1)
        rec_q = skel_mod.newton_periodic(tilde, tilde.chart_q.center, 1)
        report.add("tilde-stable-index-p", rec_p.stable_index == 3,
                   rec_p.stable_index, "= 3")
        report.add("tilde-stable-index-q", rec_q.stable_index == 1,
                   rec_q.stable_index, "= 1")
        gap = min(float(np.min(np.abs(rec_p.multipliers - 1))),
                  float(np.min(np.abs(rec_q.multipliers - 1))))
        report.add("tilde-multiplier-gap", gap > 1e-6, gap, "> 1e-6")


@task("product-checks")
def run_product_checks(config: ExperimentConfig, report: RunReport, out_dir: str):
    system, resolved = build_system(config)
    if not hasattr(system, "fiber"):
        raise ConfigError("product-checks needs a product system config")
    report.set_params(**resolved)
    res = commuting_diagram_check(system, config.task_value("diagram_points", 2000),
                                  rng=make_rng(config.seed, 7))
    report.add("diagram-base", res["base"] < 1e-14, res["base"], "< 1e-14")
    report.add("diagram-fiber", res["fiber"] < 1e-14, res["fiber"], "< 1e-14")

    spec = lyapunov_spectrum(
        system, OrbitSpec(start=make_rng(config.seed, 9).random(system.dim),
                          length=3000, transient=100))
    base_logs = np.log(np.abs(system.base.auto.splitting.eigenvalues))
    fiber_logs = np.log(np.abs(system.fiber.splitting.eigenvalues))
    expected = np.sort(np.concatenate([base_logs, fiber_logs]))[::-1]
    err = float(np.max(np.abs(spec.exponents - expected)))
    report.add("spectrum-union", err < 1e-8, err, "< 1e-8",
               "product exponents are the multiset union of factor logs")

    # strong-unstable leaf of the product is (base leaf) x point
    v, _ = push_forward(system, make_rng(config.seed, 15).random(system.dim),
                        make_rng(config.seed, 13).standard_normal(system.dim), 60)
    fiber_comp = float(np.linalg.norm(v[system.d1:]))
    report.add("uu-leaf-fiber-component", fiber_comp < 1e-8, fiber_comp, "< 1e-8")

    est, log_rate, gap = entropy_volume_identity(
        system, OrbitSpec(start=make_rng(config.seed, 17).random(system.dim),
                          length=config.task_value("identity_orbit", 5000), transient=0))
    report.add("unstable-volume-identity", gap < 1e-10, gap, "< 1e-10",
               f"estimate {est:.12f} vs log rate {log_rate:.12f}")

    # distinct fiber seeds separate fiber marginals faster than base marginals
    grid_side = config.task_value("grid_side", 12)
    n_samples = config.task_value("plaque_samples", 4000)
    n_steps = config.task_value("cesaro_steps", 400)
    axis, _ = system.base.skew_unstable_bundle()
    direction = np.concatenate([axis, np.zeros(system.d2)])
    tvs = {}
    marg = {}
    for tag, w in (("w1", 0.15), ("w2", 0.65)):
        anchor = np.concatenate([[0.3, 0.7], [w, w]])
        plq = gibbs_mod.UnstablePlaque(anchor=anchor, direction=direction,
                                       half_length=0.2, sample_count=n_samples)
        state = gibbs_mod.cesaro_push(system, plq, n_steps, (grid_side,) * system.dim)
        marg[tag] = fiber_pushforward_statistics(system, state.accumulated)
    tv_base = gibbs_mod.total_variation(marg["w1"][0], marg["w2"][0])
    tv_fiber = gibbs_mod.total_variation(marg["w1"][1], marg["w2"][1])
    report.add("fiber-seed-separation", tv_fiber > tv_base, tv_fiber,
               f"> base TV {tv_base:.6f}",
               "distinct fiber atoms give distinct fiber marginals")
    rows = [("marginal", "index", "mass")]
    for tag in ("w1", "w2"):
        for idx in np.argwhere(marg[tag][1].mass > 0):
            rows.append((tag, "-".join(str(int(i)) for i in idx),
                         marg[tag][1].mass[tuple(idx)]))
    write_csv(os.path.join(out_dir, "fiber_marginals.csv"), rows)


# ----------------------------------------------------------------------------


def run_task(name: str, config: ExperimentConfig, out_dir: str | None = None) -> RunReport:
    """In-process entry point used by the CLI and the test suite."""
    if name not in TASKS:
        raise ConfigError(f"unknown subcommand {name!r}; choose from {sorted(TASKS)}")
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    report = RunReport(task=name, seed=config.seed)
    TASKS[name](config, report, out)
    report.write(out)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phlab",
        description="verification experiments for deformed hyperbolic toral maps",
    )
    parser.add_argument("subcommand", choices=sorted(TASKS))
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--out", help="output directory (overrides config)")
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        report = run_task(args.subcommand, config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.print_summary()
    if report.all_passed:
        print("ALL CHECKS PASSED")
        return 0
    print("CHECK FAILURES PRESENT", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
