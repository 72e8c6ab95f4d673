"""Structure oracle and SCF solver behavior.

The oracle section integrates the classical second-order structure ODE with
adaptive Runge-Kutta, independently of the grid pipeline, and pins its known
closed forms.  The solver section checks the multiplier solve, single-step
algebra, verdict taxonomy, determinism, and grid-refinement consistency of
the converged radius against that oracle.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import corequilib as cq
from corequilib.scan import cell_config
from test_acceptance import SCAN_CONFIG


def le_spec(n, r_max=2.0, omega=0.0, core=None, mu=0.0, guess=None):
    """Reference nonrotating problem, optionally perturbed."""
    grid = cq.CylGrid(r_max, r_max, n, n)
    if core is None:
        core = cq.CoreRegion.spheroid(0.02, 0.02, 0.0)
    kwargs = {}
    if guess is not None:
        kwargs["initial_guess"] = guess
    return cq.ProblemSpec(
        eos=cq.Polytrope(1.0, 2.0),
        grid=grid,
        core=core,
        mu=mu,
        rotation=cq.RotationLaw.constant(omega),
        mass=1.0,
        **kwargs,
    )


def recorded_residuals(monkeypatch):
    """The residuals the solver computes from now on, in call order."""
    got = []

    def recorded(*args):
        got.append(cq.residual_with_potential(*args))
        return got[-1]

    monkeypatch.setattr(cq.solver, "residual_with_potential", recorded)
    return got


def third_multiplier_fails(monkeypatch):
    """Make the third evaluation, of iterate 2, find no multiplier after 5
    mass evaluations; returns the list of the multiplier solves' args."""
    solve_lambda = cq.solver.solve_lambda
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise cq.LambdaBracketError("no multiplier", 5)
        return solve_lambda(*args, **kwargs)

    monkeypatch.setattr(cq.solver, "solve_lambda", third_fails)
    return calls


def equator_edge_radius(outcome, grid):
    """Support radius with the staircase removed.

    The raw support extent is quantized to cell centers; extrapolating the
    equatorial profile linearly to the support threshold recovers the radius
    to second order, which is what the refinement test needs.
    """
    j = grid.n_z // 2
    prof = outcome.state.rho.values[:, j]
    thr = 1e-8 * outcome.state.rho.values.max()
    k = int(np.nonzero(prof > thr)[0].max())
    return float(grid.r[k] + grid.dr * prof[k] / (prof[k - 1] - prof[k]))


class TestStructureOracle:
    def test_index_one_closed_form(self):
        xi1, slope = cq.integrate_lane_emden(1.0)
        assert xi1 == pytest.approx(np.pi, abs=1e-8)
        assert slope == pytest.approx(1.0 / np.pi, abs=1e-8)

    def test_index_zero_closed_form(self):
        xi1, slope = cq.integrate_lane_emden(0.0)
        assert xi1 == pytest.approx(np.sqrt(6.0), abs=1e-8)
        assert slope == pytest.approx(np.sqrt(6.0) / 3.0, abs=1e-8)

    def test_literature_zeros(self):
        assert cq.integrate_lane_emden(1.5)[0] == pytest.approx(3.65375, abs=1e-4)
        assert cq.integrate_lane_emden(3.0)[0] == pytest.approx(6.89685, abs=1e-4)

    def test_indices_without_a_zero_are_rejected(self):
        with pytest.raises(ValueError):
            cq.integrate_lane_emden(5.0)
        with pytest.raises(ValueError):
            cq.integrate_lane_emden(-0.5)

    def test_gamma_two_structure(self):
        st = cq.polytrope_structure(2.0, 1.0)
        assert st.n == pytest.approx(1.0)
        # the radius of this structure is independent of central density
        assert st.radius(0.3) == pytest.approx(st.radius(3.0), rel=1e-12)
        assert st.radius(1.0) == pytest.approx(
            np.pi * np.sqrt(1.0 / (2.0 * np.pi)), rel=1e-8
        )
        rho_c = st.central_density_for_mass(1.0)
        assert rho_c == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-8)
        assert st.mass(rho_c) == pytest.approx(1.0, rel=1e-10)

    def test_mass_relation_roundtrip(self):
        st = cq.polytrope_structure(5.0 / 3.0, 0.8)
        for mass in (0.5, 1.0, 2.7):
            rho_c = st.central_density_for_mass(mass)
            assert st.mass(rho_c) == pytest.approx(mass, rel=1e-10)

    def test_inversion_needs_subcritical_index(self):
        st = cq.polytrope_structure(1.3, 1.0)
        assert st.n > 3.0
        with pytest.raises(ValueError):
            st.central_density_for_mass(1.0)
        with pytest.raises(ValueError):
            cq.polytrope_structure(1.0, 1.0)


class TestMultiplierSolve:
    def setup_method(self):
        self.grid = cq.CylGrid(1.0, 1.0, 24, 24)
        self.eos = cq.Polytrope(1.0, 2.0)
        self.mask = np.zeros((24, 24), dtype=bool)

    def test_deep_cutoff_gives_zero_mass(self):
        phi = cq.kernel_for(self.grid).apply(
            cq.random_blob_field(self.grid, np.random.default_rng(1)).values
        )
        lam = -float(np.max(phi)) - 1.0
        assert cq.mass_of_lambda(phi, lam, self.eos, self.mask, self.grid)[0] == 0.0

    def test_monotone_in_lambda(self):
        phi = cq.kernel_for(self.grid).apply(
            cq.random_blob_field(self.grid, np.random.default_rng(2)).values
        )
        lams = np.linspace(-3.0, 3.0, 25)
        masses = [
            cq.mass_of_lambda(phi, float(l), self.eos, self.mask, self.grid)[0]
            for l in lams
        ]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_constant_potential_closed_form(self):
        # phi + lambda = 1 gives rho = ((gamma-1)*1/(gamma*k))**(1/(gamma-1))
        phi = np.full((24, 24), 0.7)
        expected_rho = 0.5
        volume = float(np.sum(self.grid.vol * np.ones((24, 24))))
        got = cq.mass_of_lambda(phi, 0.3, self.eos, self.mask, self.grid)[0]
        assert got == pytest.approx(expected_rho * volume, rel=1e-12)

    def test_masked_cells_hold_no_mass(self):
        phi = np.full((24, 24), 0.7)
        mask = np.zeros((24, 24), dtype=bool)
        mask[:12, :] = True
        volume_open = float(np.sum(self.grid.vol * ~mask[:, :]))
        got = cq.mass_of_lambda(phi, 0.3, self.eos, mask, self.grid)[0]
        assert got == pytest.approx(0.5 * volume_open, rel=1e-12)

    def test_solve_lambda_recovers_closed_form_multiplier(self):
        phi = np.full((24, 24), 0.7)
        volume = float(np.sum(self.grid.vol * np.ones((24, 24))))
        target = 0.8 * volume          # rho = 0.8 needs phi + lambda = 1.6
        lam, _, _ = cq.solve_lambda(phi, target, self.eos, self.mask, self.grid)
        assert lam == pytest.approx(0.9, abs=1e-9)
        recovered = cq.mass_of_lambda(phi, lam, self.eos, self.mask, self.grid)[0]
        assert abs(recovered - target) <= 1e-10 * target

    def test_solve_lambda_is_deterministic(self):
        phi = cq.kernel_for(self.grid).apply(
            cq.random_blob_field(self.grid, np.random.default_rng(3)).values
        )
        args = (phi, 0.25, self.eos, self.mask, self.grid)
        lam_a, rho_a, evals_a = cq.solve_lambda(*args)
        lam_b, rho_b, evals_b = cq.solve_lambda(*args)
        assert (lam_a, evals_a) == (lam_b, evals_b)
        np.testing.assert_array_equal(rho_a, rho_b)

    def test_solve_lambda_holds_no_reference_to_the_potential(self):
        # without the cyclic collector, a potential kept alive by the root
        # finder would pile up, one per SCF iteration
        phi = cq.kernel_for(self.grid).apply(
            cq.random_blob_field(self.grid, np.random.default_rng(4)).values
        )
        ref = weakref.ref(phi)
        gc.collect()
        gc.disable()
        try:
            cq.solve_lambda(phi, 0.25, self.eos, self.mask, self.grid)
            del phi
            assert ref() is None
        finally:
            gc.enable()

    def test_bounded_table_cannot_hold_huge_mass(self):
        s = np.geomspace(1e-3, 5e-2, 24)
        table = cq.TabulatedEos(s, s**2)
        phi = np.full((24, 24), 0.01)
        with pytest.raises(cq.LambdaBracketError):
            cq.solve_lambda(phi, 1e6, table, self.mask, self.grid)

    def test_a_newton_step_past_the_bracket_probes_hi(self, monkeypatch):
        # from lam0 just above lo = -max(phi) the mass is tiny, so the Newton
        # step overshoots the bracket and the second probe is hi itself
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        R, Z = grid.meshes()
        phi = 1.0 / np.sqrt(R**2 + Z**2 + 0.1)
        mask = np.zeros((16, 16), dtype=bool)
        lam0 = -float(np.max(phi)) + 1e-3
        probes = []
        mass_of_lambda = cq.solver.mass_of_lambda

        def recorded(phi_tot, lam, *args):
            probes.append(lam)
            return mass_of_lambda(phi_tot, lam, *args)

        monkeypatch.setattr(cq.solver, "mass_of_lambda", recorded)
        eos = cq.Polytrope(1.0, 5.0 / 3.0)
        volume = float(np.sum(grid.vol * np.ones((16, 16))))
        hi = float(eos.enthalpy(1.0 / volume)) - float(np.min(phi))
        cq.solve_lambda(phi, 1.0, eos, mask, grid, lam0)
        assert probes[0] == lam0
        assert probes[1] == pytest.approx(hi, rel=1e-14)
        # why: a table that ends short of the mass is found short at hi, a
        # bracket failure, not a collapse of the bracket below it
        s = np.geomspace(1e-3, 1.0, 24)
        table = cq.TabulatedEos(s, s ** (5.0 / 3.0))
        del probes[:]
        with pytest.raises(cq.LambdaBracketError) as err:
            cq.solve_lambda(phi, 1.0, table, mask, grid, lam0)
        assert err.value.evals == 2
        assert probes == [lam0, table.h_max - float(np.max(phi))]

    def test_converged_potential_holds_target_mass(self, le_problem, le_outcome):
        rho = le_outcome.state.rho
        env = cq.Environment.build(le_problem)
        phi_tot = env.kernel.apply(rho.values) + env.J + env.phi_core
        got = cq.mass_of_lambda(
            phi_tot, le_outcome.state.lam, le_problem.eos, rho.mask,
            le_problem.grid,
        )[0]
        assert abs(got - le_problem.mass) <= 1e-10 * le_problem.mass


class TestProblemSpec:
    """``ProblemSpec`` refuses what the CLI refuses, with its messages."""

    GRID = cq.CylGrid(1.0, 1.0, 8, 8)   # cell centres from r, |z| = 0.0625

    def spec(self, core, rotation=cq.RotationLaw.constant(0.0)):
        return cq.ProblemSpec(
            eos=cq.Polytrope(1.0, 2.0), grid=self.GRID, core=core, mu=1.0,
            rotation=rotation, mass=1.0,
        )

    def test_a_dense_core_must_cover_a_cell_centre(self):
        with pytest.raises(ValueError) as err:
            self.spec(cq.CoreRegion.spheroid(0.05, 0.05, 10.0))
        assert str(err.value) == (
            "core covers no cell centre of the 8 x 8 grid with r_max 1 and "
            "z_max 1"
        )
        spec = self.spec(cq.CoreRegion.spheroid(0.05, 0.05, 0.0))
        assert not spec.guess_field.mask.any()

    def test_a_rotation_profile_must_reach_the_grid_edge(self):
        short = cq.RotationLaw.profile([0.0, 0.1, 0.25, 0.5], [0.3, 0.2, 0.1, 0.0])
        with pytest.raises(ValueError) as err:
            self.spec(cq.CoreRegion.spheroid(0.0, 0.0, 0.0), short)
        assert str(err.value) == (
            "rotation profile sampled only to s = 0.5, grid needs 0.9375"
        )


class TestScfStep:
    def test_fixed_point_makes_a_tiny_update(self, le_problem, le_outcome):
        config = cq.ScfConfig()
        env = cq.Environment.build(le_problem)
        state = cq.solver.evaluate(le_outcome.state.rho, le_problem, env)
        mixer = cq.solver.AndersonMixer(
            le_problem.grid.vol, state.rho.values.shape, config.alpha
        )
        nxt = cq.scf_step(state, le_problem, env, mixer)
        assert nxt.update_norm <= 3.0 * config.tol_density
        assert nxt.iteration == 1
        assert nxt.mass_err <= cq.solver.MASS_TOL

    def test_half_damping_is_the_midpoint_mix(self, le_problem, le_outcome):
        # a step with no Anderson history is the beta-damped mix
        rho = le_outcome.state.rho
        env = cq.Environment.build(le_problem)
        phi_tot = env.kernel.apply(rho.values) + env.J + env.phi_core
        lam, _, _ = cq.solve_lambda(
            phi_tot, le_problem.mass, le_problem.eos, rho.mask, le_problem.grid
        )
        h = np.where(rho.mask, -1.0, phi_tot + lam)
        rho_hat = le_problem.eos.enthalpy_inverse(h)

        state = cq.solver.evaluate(rho, le_problem, env)
        np.testing.assert_array_equal(state.rho_hat, rho_hat)
        for alpha, mix in ((1.0, rho_hat), (0.5, 0.5 * rho.values + 0.5 * rho_hat)):
            mixer = cq.solver.AndersonMixer(
                le_problem.grid.vol, rho.values.shape, alpha
            )
            stepped = cq.scf_step(state, le_problem, env, mixer)
            expected = cq.rescale_to_mass(
                cq.DensityField(le_problem.grid, mix, rho.mask), le_problem.mass
            )
            np.testing.assert_allclose(
                stepped.rho.values, expected.values, rtol=1e-12, atol=1e-300
            )

    def test_stepped_state_matches_a_fresh_evaluation_of_its_density(
        self, le_problem, le_outcome, monkeypatch
    ):
        config = cq.ScfConfig()
        eos = le_problem.eos
        env = cq.Environment.build(le_problem)
        rho = le_outcome.state.rho
        state = cq.solver.evaluate(rho, le_problem, env)
        assert state.energy == cq.energy_with_potential(
            rho, eos, env, env.kernel.apply(rho.values)
        )
        mixer = cq.solver.AndersonMixer(
            le_problem.grid.vol, state.rho.values.shape, config.alpha
        )
        nxt = cq.scf_step(state, le_problem, env, mixer)
        assert nxt.iteration == state.iteration + 1
        # the same warm start gives the same multiplier, bit for bit
        fresh = cq.solver.evaluate(nxt.rho, le_problem, env, state)
        assert nxt.lam == fresh.lam
        assert nxt.energy == fresh.energy
        np.testing.assert_array_equal(nxt.phi_tot, fresh.phi_tot)
        assert nxt.energy != state.energy
        # a step from nxt computes nxt's residual only once its update is
        # small, and from nxt's potential kept since its evaluation
        residuals = recorded_residuals(monkeypatch)
        small = dataclasses.replace(fresh, update_norm=config.tol_density)
        large = dataclasses.replace(fresh, update_norm=2.0 * config.tol_density)
        assert not cq.solver._is_converged(nxt, large, config, eos)
        assert residuals == []
        cq.solver._is_converged(nxt, small, config, eos)
        phi_tot = env.kernel.apply(nxt.rho.values) + env.J + env.phi_core
        assert residuals == [
            cq.residual_with_potential(nxt.rho, nxt.lam, eos, phi_tot)
        ]

    def test_zero_multiplier_can_converge(self, le_outcome, monkeypatch):
        # the residual tolerance scales with the mean enthalpy, not only
        # |lambda|: at lambda 0 the kept potential leaves a residual of 1e-12
        eos = cq.Polytrope(1.0, 2.0)
        rho = le_outcome.state.rho
        prev = dataclasses.replace(
            le_outcome.state, lam=0.0, phi_tot=eos.enthalpy(rho.values) - 1e-12
        )
        state = dataclasses.replace(le_outcome.state, update_norm=1e-12)
        residuals = recorded_residuals(monkeypatch)
        assert cq.solver._is_converged(prev, state, cq.ScfConfig(), eos)
        assert residuals == [
            cq.residual_with_potential(rho, 0.0, eos, prev.phi_tot)
        ]
        assert residuals[0].eq_max > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cq.ScfConfig(alpha=0.0)
        with pytest.raises(ValueError):
            cq.ScfConfig(alpha=1.5)
        with pytest.raises(ValueError):
            cq.ScfConfig(tol_density=0.0)
        with pytest.raises(ValueError):
            cq.ScfConfig(max_iter=0)

    def test_initial_guess_validation(self):
        with pytest.raises(ValueError):
            cq.InitialGuess(kind="mystery")
        with pytest.raises(ValueError):
            cq.InitialGuess(kind="from-file")


class TestSolve:
    def test_reference_matches_structure_oracle(self, le_outcome):
        st = cq.polytrope_structure(2.0, 1.0)
        rho_c = st.central_density_for_mass(1.0)
        radius = st.radius(rho_c)
        cell = le_outcome.state.rho.grid.dz
        assert le_outcome.verdict == "Converged"
        assert le_outcome.state.iteration <= 200
        # support extents are cell-center quantized, so allow one cell on top
        # of the physical tolerance at this coarse unit-test resolution
        assert le_outcome.d_r == pytest.approx(radius, rel=0.03, abs=1.2 * cell)
        assert le_outcome.d_z == pytest.approx(radius, rel=0.03, abs=1.2 * cell)
        assert le_outcome.state.rho.values.max() == pytest.approx(rho_c, rel=0.03)
        assert le_outcome.state.lam < 0.0
        assert le_outcome.mass_err_max <= 1e-10

    def test_anderson_reaches_the_tight_fixed_point_quickly(
        self, le_problem, le_outcome
    ):
        # damped iteration took 56 iterations here, and its multiplier sat
        # 2e-9 from the tight-tolerance one
        assert le_outcome.state.iteration <= 28
        tight = cq.solve(
            le_problem, cq.ScfConfig(tol_density=1e-13, tol_residual=1e-9)
        )
        assert tight.verdict == "Converged"
        assert abs(le_outcome.state.lam - tight.state.lam) <= 1e-9

    def test_a_cell_that_runs_off_when_damped_runs_off_under_anderson(
        self, monkeypatch
    ):
        # extrapolation must not hide a run-off: the acceptance sweep at
        # 32^2, solved with Anderson mixing and then with plain damping
        # (a mixer that keeps no history)
        raw = dict(SCAN_CONFIG, grid=dict(SCAN_CONFIG["grid"], n_r=32, n_z=32))
        base, sweep = cq.effective_config(raw), SCAN_CONFIG["scan"]
        cells = [
            cell_config(base, omega, mu)
            for omega in sweep["omega_values"] for mu in sweep["mu_values"]
        ]

        def verdicts():
            return [cq.solve(*cq.build_problem(cfg)).verdict for cfg in cells]

        anderson = verdicts()
        monkeypatch.setattr(cq.solver.AndersonMixer, "_push", lambda *args: None)
        damped = verdicts()
        runoff = [i for i, verdict in enumerate(damped) if verdict == "MassRunoff"]
        assert len(runoff) >= 10
        assert [anderson[i] for i in runoff] == ["MassRunoff"] * len(runoff)

    def test_determinism(self):
        a = cq.solve(le_spec(32))
        b = cq.solve(le_spec(32))
        assert a.verdict == b.verdict
        assert a.trace == b.trace
        np.testing.assert_array_equal(a.state.rho.values, b.state.rho.values)
        assert a.state.lam == b.state.lam

    def test_core_cells_stay_empty(self):
        core = cq.CoreRegion.spheroid(0.25, 0.15, 5.0)
        out = cq.solve(le_spec(48, core=core, mu=1.0))
        assert out.verdict == "Converged"
        mask = core.mask(cq.CylGrid(2.0, 2.0, 48, 48))
        assert np.any(mask)
        assert np.all(out.state.rho.values[mask] == 0.0)

    def test_small_rotation_with_core_converges_compactly(self):
        core = cq.CoreRegion.spheroid(0.1, 0.1, 10.0)
        out = cq.solve(le_spec(48, omega=0.3, core=core, mu=1.0))
        assert out.verdict == "Converged"
        assert out.d_r <= 0.9 * 2.0
        assert not cq.boundary_mass_exceeds(
            out.rho.values, out.rho.grid, 2, 0.05
        )
        assert out.bound_check is not None and out.bound_check.passed

    def test_fast_rotation_without_core_support_fails(self):
        core = cq.CoreRegion.spheroid(0.1, 0.1, 10.0)
        out = cq.solve(le_spec(32, omega=1.2, core=core, mu=0.0))
        assert out.verdict in ("MassRunoff", "LambdaBracketFail")
        assert out.bound_check is None
        assert not out.retried

    def test_mass_drift_is_a_typed_error(self, monkeypatch):
        rescale = cq.solver.rescale_to_mass

        def off_by_a_millionth(fld, mass):
            return rescale(fld, mass * (1.0 + 1e-6))

        monkeypatch.setattr(cq.solver, "rescale_to_mass", off_by_a_millionth)
        with pytest.raises(cq.MassDriftError, match="drifted to 1e-06 relative"):
            cq.solve(le_spec(24))

    def test_mass_evals_counts_every_multiplier_evaluation(self, monkeypatch):
        calls = []
        evaluate = cq.solver.mass_of_lambda

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cq.solver, "mass_of_lambda", counted)
        s = np.geomspace(1e-3, 5e-2, 24)
        bounded = cq.ProblemSpec(
            eos=cq.TabulatedEos(s, s**2),
            grid=cq.CylGrid(1.0, 1.0, 24, 24),
            core=cq.CoreRegion.spheroid(1e-3, 1e-3, 0.0),
            mu=0.0,
            rotation=cq.RotationLaw.constant(0.0),
            mass=1.0,
        )
        outcomes = {}
        for spec in (le_spec(32), bounded):
            del calls[:]
            out = cq.solve(spec)
            assert out.mass_evals == len(calls) > 0
            outcomes[out.verdict] = out
        assert sorted(outcomes) == ["Converged", "LambdaBracketFail"]
        # the final one included, a warm-started solve takes at most 4 per step
        converged = outcomes["Converged"]
        assert converged.mass_evals <= 4 * (converged.state.iteration + 1)

    def test_an_iterate_without_a_multiplier_ends_the_solve(self, monkeypatch):
        calls = third_multiplier_fails(monkeypatch)
        for max_iter, verdict in ((10, "LambdaBracketFail"), (2, "IterationCap")):
            del calls[:]
            out = cq.solve(le_spec(24), cq.ScfConfig(max_iter=max_iter))
            assert out.verdict == verdict
            assert out.state.iteration == len(out.trace) == 2
            assert out.state.lam is None and out.residual is None
            assert out.state.mass_evals == 5
            assert len(calls) == 3

    def test_iteration_cap(self):
        out = cq.solve(le_spec(32), cq.ScfConfig(max_iter=5))
        assert out.verdict == "IterationCap"
        assert out.state.iteration == 5
        assert len(out.trace) == 5

    def test_bracket_failure_with_bounded_table(self):
        s = np.geomspace(1e-3, 5e-2, 24)
        grid = cq.CylGrid(1.0, 1.0, 24, 24)
        spec = cq.ProblemSpec(
            eos=cq.TabulatedEos(s, s**2),
            grid=grid,
            core=cq.CoreRegion.spheroid(1e-3, 1e-3, 0.0),
            mu=0.0,
            rotation=cq.RotationLaw.constant(0.0),
            mass=1.0,
        )
        out = cq.solve(spec)
        assert out.verdict == "LambdaBracketFail"
        assert out.state.iteration == 0
        assert out.mass_err_max is None
        payload = cq.outcome_to_dict(out)
        assert payload["lambda"] is None
        assert payload["multiplier_bound"] is None
        assert payload["diagnostics"] == {
            "el_residual_max": None,
            "el_residual_mean": None,
            "ineq_violation": None,
        }

    def test_short_table_past_the_first_probe_converges(self):
        # h_max = 10 sits below max(phi) + 10, so a multiplier of 10 would
        # run off this table; the bracket read off the potential stops far
        # below that, and the short table must give the wide table's solution
        def readme_table_solve(s_max):
            s = np.geomspace(1e-4, s_max, 48)
            spec = cq.ProblemSpec(
                eos=cq.TabulatedEos(s, s**2),
                grid=cq.CylGrid(2.0, 2.0, 32, 32),
                core=cq.CoreRegion.spheroid(0.1, 0.1, 10.0),
                mu=1.0,
                rotation=cq.RotationLaw.constant(0.4),
                mass=1.0,
            )
            return spec.eos, cq.solve(spec)

        short_eos, short = readme_table_solve(5.0)
        _, wide = readme_table_solve(100.0)
        assert short_eos.h_max < 10.0 + 1e-9
        assert short.verdict == wide.verdict == "Converged"
        assert short.state.iteration == wide.state.iteration
        assert short.state.lam == pytest.approx(wide.state.lam, rel=1e-8)
        assert short.state.rho.values.max() == pytest.approx(
            wide.state.rho.values.max(), rel=1e-8
        )

    def test_uniform_shell_guess_reaches_the_same_solution(self, le_outcome):
        out = cq.solve(le_spec(48, guess=cq.InitialGuess(kind="uniform-shell")))
        assert out.verdict == "Converged"
        assert out.state.lam == pytest.approx(le_outcome.state.lam, rel=1e-5)

    def test_from_file_guess_restarts_near_the_fixed_point(
        self, le_outcome, tmp_path
    ):
        path = tmp_path / "start.csv"
        cq.write_field_csv(le_outcome.state.rho, path)
        out = cq.solve(
            le_spec(48, guess=cq.InitialGuess(kind="from-file", path=str(path)))
        )
        assert out.verdict == "Converged"
        assert out.state.iteration <= 10

    def test_refinement_consistency_against_oracle(self):
        st = cq.polytrope_structure(2.0, 1.0)
        radius = st.radius(st.central_density_for_mass(1.0))
        raw_errors = []
        edge_errors = []
        for n in (64, 128, 256):
            spec = le_spec(n)
            out = cq.solve(spec)
            assert out.verdict == "Converged"
            raw_errors.append(abs(out.d_r - radius))
            edge_errors.append(abs(equator_edge_radius(out, spec.grid) - radius))
        # the cell-quantized radius converges, twice over across two doublings
        assert raw_errors[0] > raw_errors[1] > raw_errors[2]
        assert raw_errors[0] / raw_errors[2] >= 2.0
        # the dequantized radius halves its error (and better) per doubling
        assert edge_errors[0] / edge_errors[1] >= 2.0
        assert edge_errors[1] / edge_errors[2] >= 2.0

    def test_outcome_serializes_to_json(self, le_outcome):
        import json

        payload = cq.outcome_to_dict(le_outcome)
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert sorted(back) == [
            "diagnostics", "energy", "history_resets", "iterations", "lambda",
            "mass_err_max", "mass_evals", "multiplier_bound", "retried",
            "schema_version", "support", "verdict",
        ]
        assert back["schema_version"] == 5
        assert back["mass_evals"] == le_outcome.mass_evals
        assert back["mass_evals"] >= le_outcome.state.iteration + 1
        assert back["history_resets"] == le_outcome.history_resets
        assert back["verdict"] == "Converged"
        assert back["iterations"] == le_outcome.state.iteration
        assert back["lambda"] == le_outcome.state.lam
        assert sorted(back["energy"]) == [
            "core", "internal", "rotation", "self_gravity", "total",
        ]
        assert back["energy"]["total"] == le_outcome.energy.total
        assert back["support"]["d_r"] == le_outcome.d_r
        assert back["multiplier_bound"]["passed"] is True
        assert back["multiplier_bound"]["margin"] == le_outcome.bound_check.margin
        stats = le_outcome.residual
        assert back["diagnostics"] == {
            "el_residual_max": stats.eq_max,
            "el_residual_mean": stats.eq_mean,
            "ineq_violation": stats.ineq_violation,
        }

    def test_trace_csv_is_the_outcome_trace(self, le_outcome, tmp_path):
        import json

        payload = cq.write_solve_outputs(tmp_path, {}, le_outcome)
        assert payload == cq.outcome_to_dict(le_outcome)
        assert json.loads((tmp_path / "result.json").read_text()) == payload
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,lambda,energy_total,update_norm"
        rows = [
            (int(it), float(lam), float(e_tot), float(upd))
            for it, lam, e_tot, upd in (line.split(",") for line in lines[1:])
        ]
        assert rows == le_outcome.trace
        assert [row[0] for row in rows] == list(
            range(1, le_outcome.state.iteration + 1)
        )


class TestWrittenDensity:
    """What a solve writes is its last iterate's reconstruction, or the
    iterate itself where no multiplier exists."""

    @pytest.mark.parametrize("omega,verdict", [
        (0.3, "Converged"), (1.2, "MassRunoff"),
    ])
    def test_field_csv_is_the_reconstruction(self, tmp_path, omega, verdict):
        core = cq.CoreRegion.spheroid(0.25, 0.25, 5.0)
        spec = le_spec(32, omega=omega, core=core, mu=1.0)
        out = cq.solve(spec)
        assert out.verdict == verdict
        cq.write_solve_outputs(tmp_path, {}, out)
        written = cq.read_field_csv(tmp_path / "field.csv", spec.grid).values
        state = out.state
        np.testing.assert_array_equal(written, state.rho_hat)
        np.testing.assert_array_equal(written, out.rho.values)
        gas = (state.phi_tot + state.lam > 0.0) & ~core.mask(spec.grid)
        assert np.all(written[~gas] == 0.0) and np.all(written[gas] > 0.0)
        assert np.any(state.rho.values[~gas] > 0.0)  # the iterate's mist
        mass = float(np.sum(written * spec.grid.vol))
        assert abs(mass - spec.mass) <= cq.solver.MASS_TOL * spec.mass
        # what result.json reports is read off the written density
        env = cq.Environment.build(spec)
        b_rho = env.kernel.apply(written)
        assert out.energy == cq.energy_with_potential(
            out.rho, spec.eos, env, b_rho
        )
        assert out.residual == cq.residual_with_potential(
            out.rho, state.lam, spec.eos, b_rho + env.J + env.phi_core
        )
        assert (out.d_r, out.d_z) == cq.support_extent(
            out.rho, cq.field.SUPPORT_REL * float(np.max(written))
        )

    def test_a_bracket_failure_writes_its_iterate(self, monkeypatch, tmp_path):
        third_multiplier_fails(monkeypatch)
        spec = le_spec(24)
        out = cq.solve(spec)
        assert out.verdict == "LambdaBracketFail"
        assert out.rho is out.state.rho and out.energy is out.state.energy
        payload = cq.write_solve_outputs(tmp_path, {}, out)
        written = cq.read_field_csv(tmp_path / "field.csv", spec.grid).values
        np.testing.assert_array_equal(written, out.state.rho.values)
        assert payload["energy"]["total"] == out.state.energy.total
        assert set(payload["diagnostics"].values()) == {None}
        threshold = cq.field.SUPPORT_REL * float(np.max(written))
        assert (out.d_r, out.d_z) == cq.support_extent(out.state.rho, threshold)


class TestExactYardstick:
    """The gas round a hard core with no pull, solved in closed form.

    With gamma 2 and k 1 the enthalpy is h = 2 rho.  With no rotation, mu 0
    and a spherical core of radius a, the solution is spherical, and on the
    gas h'' + 2h'/r + 2 pi h = 0, so h = (A sin kr + C cos kr) / r with
    k = sqrt(2 pi).  h'(a) = 0 and h(R) = 0 have a non-zero solution (A, C)
    only where their 2 x 2 system is singular; that outer radius R gives
    lambda = -M / R, since outside the gas the potential is M / r.
    """

    def test_multiplier_at_mu_zero(self):
        from scipy.optimize import brentq

        a, mass = 0.1, 1.0
        kappa = np.sqrt(2.0 * np.pi)
        ka = kappa * a

        def det(radius):
            # rows: R h(R) = 0 and a^2 h'(a) = 0, in the unknowns (A, C)
            s, c = np.sin(kappa * radius), np.cos(kappa * radius)
            return (-s * (ka * np.sin(ka) + np.cos(ka))
                    - c * (ka * np.cos(ka) - np.sin(ka)))

        # det is -ka at R = a and +ka half a period later
        radius = brentq(det, a, a + np.pi / kappa, xtol=1e-14)
        assert radius == pytest.approx(1.255333, abs=1e-6)
        out = cq.solve(le_spec(96, core=cq.CoreRegion.spheroid(a, a, 10.0)))
        assert out.verdict == "Converged"
        assert out.state.lam == pytest.approx(-mass / radius, rel=5e-3)

    def test_multiplier_shift_at_omega_0_1(self):
        """The spherical mean h0 of the enthalpy at omega 0.1, to first order.

        The mean of J = omega^2 s^2 / 2 over a sphere is omega^2 r^2 / 3,
        whose Laplacian 2 omega^2 adds omega^2 / pi to the solution:
        h0 = omega^2 / pi + (A sin kr + C cos kr) / r.  Its conditions,
        h0(R) = 0, h0'(a) = 2 omega^2 a / 3 (the core has no pull) and the
        mass, are linear in (A, C, 1), so R is a zero of their 3 x 3
        determinant, and lambda = -M / R - omega^2 R^2 / 3.
        """
        from scipy.optimize import brentq

        a, mass = 0.1, 1.0
        kappa = np.sqrt(2.0 * np.pi)

        def rows(radius, w2):
            def h(r):       # (sin kr / r, cos kr / r)
                return np.array([np.sin(kappa * r), np.cos(kappa * r)]) / r

            def dh(r):
                return kappa * h(r)[::-1] * [1.0, -1.0] - h(r) / r

            def r2h(r):     # antiderivative of r^2 h
                s, c = np.sin(kappa * r), np.cos(kappa * r)
                return np.array([s - kappa * r * c, c + kappa * r * s]) / kappa**2

            volume = (radius**3 - a**3) / 3.0
            return np.array([
                [*h(radius), w2 / np.pi],
                [*dh(a), -2.0 * w2 * a / 3.0],
                [*(2.0 * np.pi * (r2h(radius) - r2h(a))), 2.0 * w2 * volume - mass],
            ])

        def lam(omega):
            w2 = omega**2
            radius = brentq(
                lambda x: np.linalg.det(rows(x, w2)), a + 1e-3, a + np.pi / kappa,
                xtol=1e-14,
            )
            return -mass / radius - w2 * radius**2 / 3.0

        model = lam(0.1) - lam(0.0)
        assert model == pytest.approx(-2.06453e-3, abs=1e-8)
        core = cq.CoreRegion.spheroid(a, a, 10.0)
        for n, rel in ((96, 5e-3), (192, 2e-3)):
            outs = [cq.solve(le_spec(n, omega=w, core=core)) for w in (0.1, 0.0)]
            assert [out.verdict for out in outs] == ["Converged"] * 2
            shift = outs[0].state.lam - outs[1].state.lam
            assert shift == pytest.approx(model, rel=rel), n
