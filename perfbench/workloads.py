"""The benchmark's workloads: generated phlab configs keyed by name and seed.

Each workload is a batch job made of one or more ``run_task`` calls.  The
benchmark writes the workload seed into every generated config; the program
sees only the config.  ``size="smoke"`` shrinks the run lengths for the
benchmark's own tests and keeps every code path of the full size.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20240601

#: the system of the shipped configs/deformed.json (auto-selected parameters)
DEFORMED = {"kind": "deformed", "auto_params": True, "delta": 0.025}
#: the system of the shipped configs/product.json
PRODUCT = {"kind": "product", "base_id": "cat^3", "fiber_matrix": [[2, 1], [1, 1]]}


@dataclass(frozen=True)
class Workload:
    name: str
    #: (subcommand, system, full-size task keys, smoke-size task keys)
    steps: tuple
    #: traced functions the workload must reach; a zero call count there
    #: means a binding escaped the patch, not that the layer was idle
    reached: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="orbits",
            steps=(
                ("lyapunov", DEFORMED,
                 {"n_orbits": 100, "orbit_length": 1000},
                 {"n_orbits": 20, "orbit_length": 400}),
            ),
            reached=(
                "cli.lyapunov", "config.build_system", "deformation.search_params",
                "bump.compute_M", "ergodic.bundle_exponent_batch",
                "ergodic.bundle_exponent", "ergodic.lyapunov_spectrum",
                "ergodic.entropy_volume_identity", "ergodic.pesin_block_membership",
                "cones.extract_splitting", "deformation.step", "deformation.step_inverse",
                "deformation.jacobian_chart", "deformation.jacobian",
                "deformation.jacobian_inverse", "deformation.to_chart",
                "torus.reduce_torus", "torus.ToralAutomorphism.apply", "bump.eval",
                "bump.derivative", "report.write",
            ),
        ),
        Workload(
            name="cesaro",
            steps=(
                ("gibbs", DEFORMED,
                 {"plaque_samples": 10_000, "cesaro_steps": 300, "integral_orbit": 1000},
                 {"plaque_samples": 2000, "cesaro_steps": 120, "integral_orbit": 400}),
            ),
            reached=(
                "cli.gibbs", "gibbs.cesaro_push", "gibbs.seed_plaque", "gibbs.from_points",
                "gibbs.observe", "cones.extract_splitting", "ergodic.bundle_exponent",
                "ergodic.birkhoff_average", "deformation.step", "deformation.jacobian_chart",
                "torus.reduce_torus", "torus.torus_displacement", "report.write",
            ),
        ),
        Workload(
            name="skeleton",
            steps=(
                ("skeleton", DEFORMED,
                 {"arc_resolution": 0.006, "tol": 0.006},
                 {"census_max_period": 3, "arc_length": 2.0,
                  "arc_resolution": 0.02, "tol": 0.02}),
            ),
            reached=(
                "cli.skeleton", "skeleton.heteroclinic_test", "skeleton.grow_manifold",
                "skeleton.newton_periodic", "skeleton.extract_skeleton",
                "product.LinearSystem.step", "product.LinearSystem.jacobian",
                "torus.ToralAutomorphism.apply_inverse", "deformation.step",
                "deformation.jacobian", "report.write",
            ),
        ),
        Workload(
            name="checks",
            steps=(
                ("verify-construction", DEFORMED,
                 {"roundtrip_points": 100_000, "roundtrip_chart_points": 20_000,
                  "random_chart_points": 100_000, "fd_points": 4000},
                 {"roundtrip_points": 5000, "roundtrip_chart_points": 1000,
                  "random_chart_points": 5000, "fd_points": 400}),
                ("verify-cones", DEFORMED,
                 {"n_points": 3000},
                 {"n_points": 300}),
                ("product-checks", PRODUCT,
                 {"diagram_points": 20_000, "identity_orbit": 8000},
                 {"diagram_points": 2000, "identity_orbit": 1000,
                  "plaque_samples": 1000, "cesaro_steps": 100}),
            ),
            reached=(
                "cli.verify-construction", "cli.verify-cones", "cli.product-checks",
                "cones.verify_invariance", "cones.growth_sandwich_check",
                "deformation.deform", "deformation.deform_inverse",
                "deformation.jacobian_inverse", "deformation.to_chart",
                "product.ProductSystem.step", "product.ProductSystem.jacobian",
                "ergodic.lyapunov_spectrum", "ergodic.entropy_volume_identity",
                "gibbs.cesaro_push", "gibbs.from_points", "report.write",
            ),
        ),
    )
}


def generate(name: str, seed: int, size: str = "full"):
    """The workload's run_task calls as [{"task": ..., "config": {...}}, ...]."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if size not in ("full", "smoke"):
        raise ValueError(f"size must be full or smoke, got {size!r}")
    calls = []
    for task, system, full, smoke in WORKLOADS[name].steps:
        calls.append({
            "task": task,
            "config": {
                "seed": int(seed),
                "system": dict(system),
                "task": dict(full if size == "full" else smoke),
            },
        })
    return calls
