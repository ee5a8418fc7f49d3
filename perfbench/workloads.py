"""The benchmark's three workloads.

Each runs in one process as a closed loop with one client: the next pipeline
run starts when the previous one has finished.  A workload makes its inputs
from the seed, sets up, runs its timed pipeline and checks the outputs
against fixed tolerances.  Calls go through module attributes at call time,
so the traced pass can put its shims in front of them.

cube6-o2  The README pipeline through rotspec.cli.main, in-process: simulate
          the cutoff-6 cube (80 modes, random-gevrey data, Omega = 5,
          v-form), expand to order 2, report.  The time splits between the
          RK4 solver with the dense convolution at M = 80, the trajectory
          write and read, and the per-sample resonant fit; the S-polynomials
          stay small (6 and 48 terms).
cube6-o4  expand to order 4 and report, on a sparsely recorded cube-6
          trajectory whose simulate is set-up.  Nearly all the time is the
          symbolic bilinear product of S-polynomials (thousands of terms at
          order 4); solver, I/O and fit are small, so a fields or solver
          change should not move it.
ray30-u   Library integrate in u-form (Omega = 10) at cutoff 30 (738 modes,
          254,376 triads) on invariant-line data with three harmonics,
          checked against the closed form.  The large-M side of the
          convolution cost and the rotation propagator, with no I/O and no
          S-polynomials.  Its input is sparse (6 of 738 modes non-zero)
          where the cube's is dense, so a gain that depends on sparsity
          shows on one and not the other.

Every workload records with a stride that divides its step count.  When it
does not, integrate leaves a ragged final sample and expand rejects the run
as non-uniform; that defect is open and is not a case this benchmark covers.
"""

from __future__ import annotations

import json
import os

import numpy as np

import rotspec.cli
import rotspec.fields
import rotspec.lattice
import rotspec.solver
import rotspec.special


def triad_count(lat) -> int:
    """Ordered mode pairs (a, b) with k_a + k_b also on the lattice."""
    ks = lat.ks
    span = 2 * int(np.abs(ks).max())
    base = 2 * span + 1

    def code(k):
        k = k + span
        return (k[:, 0] * base + k[:, 1]) * base + k[:, 2]

    member = np.zeros(base ** 3, dtype=bool)
    member[code(ks)] = True
    return int(sum(member[code(ks + ka)].sum() for ka in ks))


def first_step(tr, u0, config):
    """One RK4 step from u0: the first convolution builds the lattice's plan.

    Going through integrate keeps set-up independent of the name of the
    convolution routine."""
    one = rotspec.solver.SolverConfig(dt=config.dt, t_end=config.dt,
                                      omega=config.omega, form=config.form)
    with tr.span("fields.first_call"):
        rotspec.solver.integrate(u0, one)


def nonzero_share(coeffs: np.ndarray) -> float:
    return float(np.any(coeffs != 0, axis=1).mean())


class Checks:
    """Named correctness checks; a check passes when value <= tol."""

    def __init__(self):
        self.rows = {}  # name -> [attempted, failed, worst value, tol]

    def add(self, name: str, value: float, tol: float):
        value = float(value)
        row = self.rows.setdefault(name, [0, 0, value, tol])
        row[0] += 1
        if not value <= tol:  # NaN fails
            row[1] += 1
        if not value <= row[2]:
            row[2] = value

    @property
    def attempted(self) -> int:
        return sum(r[0] for r in self.rows.values())

    @property
    def failed(self) -> int:
        return sum(r[1] for r in self.rows.values())

    def lines(self):
        for name, (n, bad, worst, tol) in self.rows.items():
            yield (f"check {name}: worst {worst:.6g} <= {tol:g} "
                   f"({n} attempted, {bad} failed)")


class _CubeWorkload:
    """Shared set-up and checks of the two cutoff-6 CLI workloads."""

    cutoff = 6
    omega = 5.0
    # Share of the time that slows with the host probe (hostspeed.py); the
    # measurements are in README.md.
    host_share = {"setup": 1.0, "op": 1.0}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed % 2**32
        self.config_path = os.path.join(workdir, "run.json")
        self.traj_path = os.path.join(workdir, "traj.jsonl")
        self.exp_path = os.path.join(workdir, "expansion.json")
        self.csv_path = os.path.join(workdir, "remainders.csv")
        self.config = {
            "lattice": {"cutoff": self.cutoff},
            "omega": self.omega,
            "initial": {"kind": "random-gevrey", "seed": self.seed, "amplitude": 0.1},
            "solver": {"dt": self.dt, "t_end": 12.0, "form": "v",
                       "record_stride": self.stride},
            "expansion": {"xi_windows": [[6.0, 8.0], [8.0, 10.0]]},
        }

    @property
    def params(self) -> dict:
        return {"config": self.config, "order": self.order}

    def cli(self, tr, argv) -> int:
        with tr.span("cli." + argv[0]):
            return rotspec.cli.main(argv)

    def setup(self, tr):
        with tr.span("lattice.build"):
            self.lat = rotspec.lattice.build_lattice(cutoff=self.cutoff)
        with tr.span("fields.random_gevrey"):
            u0 = rotspec.fields.random_gevrey(self.lat, seed=self.seed, amplitude=0.1)
        first_step(tr, u0, rotspec.solver.SolverConfig(dt=self.dt, omega=self.omega))
        self.share = nonzero_share(u0.coeffs)
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def simulate(self, tr) -> int:
        return self.cli(tr, ["simulate", "--config", self.config_path,
                             "--out", self.traj_path])

    def expand_and_report(self, tr):
        return [
            self.cli(tr, ["expand", "--traj", self.traj_path, "--order", str(self.order),
                          "--out", self.exp_path]),
            self.cli(tr, ["report", "--report", self.exp_path, "--out", self.csv_path]),
        ]

    def check(self, tr, codes, checks: Checks):
        checks.add("exit_code_max", max(codes), 0)
        with open(self.exp_path) as fh:
            doc = json.load(fh)
        want = [str(n) for n in range(1, self.order + 1)]
        checks.add("mus_mismatch", 0 if doc["mus"] == want else 1, 0)
        checks.add("verify_residual", doc["verify"]["max_residual"], 1e-12)
        warnings = sum(1 for d in doc["diagnostics"] for k, v in d.items()
                       if k.startswith("xi_") and k.endswith("_warning") and v)
        checks.add("xi_warnings", warnings, 0)
        return doc

    def counts(self) -> dict:
        return {
            "fields.triads": triad_count(self.lat),
            "input.nonzero_share": self.share,
            "solver.traj_bytes": os.path.getsize(self.traj_path),
            "cli.report_bytes": (os.path.getsize(self.exp_path)
                                 + os.path.getsize(self.csv_path)),
        }


class Cube6O2(_CubeWorkload):
    name = "cube6-o2"
    order = 2
    dt = 0.005
    stride = 2
    n_setup = 15

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.integrated = None

    def capture(self):
        """Keep the trajectory rotspec.cli.integrate returns, for the round trip."""
        original = rotspec.cli.integrate

        def keep(*args, **kwargs):
            self.integrated = original(*args, **kwargs)
            return self.integrated

        rotspec.cli.integrate = keep
        return lambda: setattr(rotspec.cli, "integrate", original)

    def op(self, tr):
        return [self.simulate(tr)] + self.expand_and_report(tr)

    def check(self, tr, codes, checks: Checks):
        doc = super().check(tr, codes, checks)
        for rate in doc["rates"]:
            checks.add(f"slope_error_o{rate['order']}",
                       abs(rate["slope"] - rate["expected"]), 1e-2)

    def final_check(self, checks: Checks):
        """The trajectory file reads back bit-equal to what was integrated."""
        with open(self.traj_path) as fh:
            back, _ = rotspec.solver.trajectory_from_jsonl(fh)
        ref = self.integrated
        same = (ref is not None and np.array_equal(back.times, ref.times)
                and np.array_equal(back.coeffs, ref.coeffs))
        checks.add("jsonl_roundtrip_mismatch", 0 if same else 1, 0)


class Cube6O4(_CubeWorkload):
    name = "cube6-o4"
    order = 4
    dt = 0.01
    stride = 2
    n_setup = 3

    def setup(self, tr):
        super().setup(tr)
        self.setup_code = self.simulate(tr)

    def op(self, tr):
        return self.expand_and_report(tr)

    def check(self, tr, codes, checks: Checks):
        super().check(tr, codes + [self.setup_code], checks)


class Ray30U:
    name = "ray30-u"
    n_setup = 3
    # The large array operations slow less than the probe (README.md).
    host_share = {"setup": 0.8, "op": 0.4}
    cutoff = 30
    omega = 10.0
    rays = [(1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, 1, 1)]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed % 2**32
        self.k = self.rays[self.seed % len(self.rays)]
        self.solver_config = rotspec.solver.SolverConfig(
            dt=1e-3, t_end=0.05, omega=self.omega, form="u")

    @property
    def params(self) -> dict:
        c = self.solver_config
        return {"cutoff": self.cutoff, "ray": self.k, "harmonics": [1, 2, 3],
                "dt": c.dt, "t_end": c.t_end, "omega": c.omega, "form": c.form}

    def setup(self, tr):
        with tr.span("lattice.build"):
            self.lat = rotspec.lattice.build_lattice(cutoff=self.cutoff)
        with tr.span("special.ray_data"):
            vk = rotspec.special.VkData.random(self.k, (1, 2, 3), self.seed, self.lat)
            self.u0 = vk.field(self.lat)
        first_step(tr, self.u0, self.solver_config)
        ray = {tuple(m * c for c in self.k) for m in (-3, -2, -1, 1, 2, 3)}
        self.off_ray = np.array([i for i, k in enumerate(self.lat.ks)
                                 if tuple(int(c) for c in k) not in ray])

    def op(self, tr):
        return tr.call("solver.integrate", rotspec.solver.integrate,
                       self.u0, self.solver_config)

    def check(self, tr, traj, checks: Checks):
        exact = tr.call("special.reference", rotspec.special.linear_evolution,
                        self.u0, float(traj.times[-1]), self.omega)
        got = traj.field(traj.n_samples - 1)
        checks.add("closed_form_rel_l2_error", (got - exact).norm() / exact.norm(), 1e-8)
        leak = float(np.abs(traj.coeffs[:, self.off_ray, :]).max()) \
            / float(np.abs(traj.coeffs).max())
        checks.add("off_ray_leak", leak, 1e-12)

    def counts(self) -> dict:
        return {"fields.triads": triad_count(self.lat),
                "input.nonzero_share": nonzero_share(self.u0.coeffs)}


WORKLOADS = {w.name: w for w in (Cube6O2, Cube6O4, Ray30U)}
