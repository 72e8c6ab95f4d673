"""Energy functional, equilibrium residuals, bound check, and dilation tests.

The self-gravity term is checked against the closed-form binding energy of a
uniform ball.  Residual statistics are exercised on the converged reference
solve from conftest, where the multiplier and the potential are known to be
mutually consistent to the solver tolerance.
"""

import numpy as np
import pytest

import corequilib as cq


def problem(grid, core, mu, rotation):
    """A ``ProblemSpec`` with these fixed fields; its EOS and mass do not
    enter its ``Environment``."""
    return cq.ProblemSpec(
        eos=cq.Polytrope(1.0, 2.0), grid=grid, core=core, mu=mu,
        rotation=rotation, mass=1.0,
    )


def trivial_env(grid):
    return cq.Environment.build(problem(
        grid,
        cq.CoreRegion.spheroid(1e-3 * grid.r_max, 1e-3 * grid.z_max, 0.0),
        0.0,
        cq.RotationLaw.constant(0.0),
    ))


def ball_field(grid, a, rho0):
    R, Z = grid.meshes()
    return cq.DensityField(grid, np.where(R**2 + Z**2 <= a**2, rho0, 0.0))


class TestEnergyReport:
    def test_zero_field_zero_energy(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        env = trivial_env(grid)
        zero = np.zeros((32, 32))
        rep = cq.energy_with_potential(
            cq.DensityField(grid, zero), cq.Polytrope(1.0, 2.0), env,
            env.kernel.apply(zero),
        )
        assert rep.internal == 0.0
        assert rep.self_gravity == 0.0
        assert rep.rotation == 0.0
        assert rep.core == 0.0
        assert rep.total == 0.0

    def test_uniform_ball_binding_energy(self):
        grid = cq.CylGrid(1.0, 1.0, 128, 128)
        env = trivial_env(grid)
        a, rho0 = 0.2, 1.0
        fld = ball_field(grid, a, rho0)
        mass = (4.0 / 3.0) * np.pi * a**3 * rho0
        rep = cq.energy_with_potential(
            fld, cq.Polytrope(1.0, 2.0), env, env.kernel.apply(fld.values)
        )
        assert rep.self_gravity == pytest.approx(0.6 * mass**2 / a, rel=0.02)

    def test_total_is_the_stored_combination(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        core = cq.CoreRegion.spheroid(0.2, 0.2, 1.5)
        env = cq.Environment.build(
            problem(grid, core, 1.0, cq.RotationLaw.constant(0.5))
        )
        fld = cq.random_blob_field(grid, np.random.default_rng(8), mask=core.mask(grid))
        rep = cq.energy_with_potential(
            fld, cq.Polytrope(1.0, 2.0), env, env.kernel.apply(fld.values)
        )
        assert rep.total == rep.internal - rep.self_gravity - rep.rotation - rep.core
        assert rep.internal > 0.0
        assert rep.self_gravity > 0.0
        assert rep.rotation > 0.0
        assert rep.core > 0.0

    def test_with_potential_variant_matches(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        env = trivial_env(grid)
        fld = cq.random_blob_field(grid, np.random.default_rng(8))
        eos = cq.Polytrope(1.0, 2.0)
        b_rho = env.kernel.apply(fld.values)
        rho, vol = fld.values, grid.vol
        internal = float(np.sum(eos.internal_energy(rho) * vol))
        self_grav = 0.5 * float(np.sum(rho * b_rho * vol))
        rotation = float(np.sum(rho * env.J * vol))
        core = float(np.sum(rho * env.phi_core * vol))
        direct = cq.EnergyReport(
            internal, self_grav, rotation, core,
            internal - self_grav - rotation - core,
        )
        reused = cq.energy_with_potential(fld, eos, env, b_rho)
        assert direct == reused

    def test_core_term_linear_in_mu(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        core = cq.CoreRegion.spheroid(0.2, 0.2, 1.5)
        law = cq.RotationLaw.constant(0.0)
        fld = cq.random_blob_field(grid, np.random.default_rng(4), mask=core.mask(grid))
        eos = cq.Polytrope(1.0, 2.0)
        env1 = cq.Environment.build(problem(grid, core, 1.0, law))
        env2 = cq.Environment.build(problem(grid, core, 2.0, law))
        rep1 = cq.energy_with_potential(fld, eos, env1, env1.kernel.apply(fld.values))
        rep2 = cq.energy_with_potential(fld, eos, env2, env2.kernel.apply(fld.values))
        assert rep2.core == pytest.approx(2.0 * rep1.core, rel=1e-13)
        assert rep2.internal == rep1.internal
        assert rep2.self_gravity == rep1.self_gravity

    def test_rotation_term_closed_form(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        omega = 0.8
        env = cq.Environment.build(problem(
            grid,
            cq.CoreRegion.spheroid(1e-3, 1e-3, 0.0),
            0.0,
            cq.RotationLaw.constant(omega),
        ))
        fld = cq.random_blob_field(grid, np.random.default_rng(4))
        rep = cq.energy_with_potential(
            fld, cq.Polytrope(1.0, 2.0), env, env.kernel.apply(fld.values)
        )
        R, _ = grid.meshes()
        expected = float(np.sum(fld.values * 0.5 * omega**2 * R**2 * grid.vol))
        assert rep.rotation == pytest.approx(expected, rel=1e-12)

    def test_total_nonincreasing_in_omega_and_mu(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        core = cq.CoreRegion.spheroid(0.2, 0.2, 1.5)
        fld = cq.random_blob_field(grid, np.random.default_rng(21), mask=core.mask(grid))
        eos = cq.Polytrope(1.0, 2.0)

        def total(omega, mu):
            env = cq.Environment.build(
                problem(grid, core, mu, cq.RotationLaw.constant(omega))
            )
            b_rho = env.kernel.apply(fld.values)
            return cq.energy_with_potential(fld, eos, env, b_rho).total

        assert total(0.6, 1.0) < total(0.3, 1.0) < total(0.0, 1.0)
        assert total(0.3, 2.0) < total(0.3, 1.0) < total(0.3, 0.0)


class TestResiduals:
    def test_zero_field_has_no_equality_side(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        core = cq.CoreRegion.spheroid(0.2, 0.2, 1.0)
        env = cq.Environment.build(
            problem(grid, core, 1.0, cq.RotationLaw.constant(0.5))
        )
        fld = cq.DensityField(grid, np.zeros((32, 32)), core.mask(grid))
        lam = -float(np.max(env.J + env.phi_core)) - 1.0
        phi_tot = env.kernel.apply(fld.values) + env.J + env.phi_core
        stats = cq.residual_with_potential(
            fld, lam, cq.Polytrope(1.0, 2.0), phi_tot
        )
        assert stats.eq_max is None
        assert stats.eq_mean is None
        assert stats.ineq_violation >= 1.0

    def test_converged_solve_satisfies_both_sides(self, le_problem, le_outcome):
        lam = le_outcome.state.lam
        stats = le_outcome.residual
        assert stats.eq_max is not None
        assert stats.eq_max <= 1e-3 * abs(lam)
        assert stats.ineq_violation >= -1e-3 * abs(lam)

    def test_bumped_cell_shifts_residual_by_enthalpy_difference(
        self, le_problem, le_outcome
    ):
        rho = le_outcome.state.rho
        eos = le_problem.eos
        lam = le_outcome.state.lam
        env = cq.Environment.build(le_problem)
        phi_tot = env.kernel.apply(rho.values) + env.J + env.phi_core

        i, j = np.unravel_index(np.argmax(rho.values), rho.values.shape)
        bumped_vals = rho.values.copy()
        bumped_vals[i, j] *= 1.1
        bumped = rho.copy_with(bumped_vals)

        base = cq.residual_with_potential(rho, lam, eos, phi_tot)
        shifted = cq.residual_with_potential(bumped, lam, eos, phi_tot)
        delta_h = eos.enthalpy(bumped_vals[i, j]) - eos.enthalpy(rho.values[i, j])
        assert shifted.eq_max == pytest.approx(
            delta_h, abs=5.0 * base.eq_max + 1e-12 * delta_h
        )


class TestMultiplierBound:
    def test_margin_formula(self):
        check = cq.multiplier_bound_check(-1.0, 0.5, 1.2, 1e-6)
        assert check.bound == pytest.approx(-0.5 * 0.25 * 1.44, rel=1e-15)
        assert check.slack == pytest.approx(3e-6, rel=1e-15)
        assert check.margin == pytest.approx(check.bound + check.slack + 1.0, rel=1e-12)
        assert check.passed == (check.margin >= 0.0)

    def test_fabricated_violation_fails(self):
        check = cq.multiplier_bound_check(0.0, 1.0, 1.0, 1e-9)
        assert not check.passed
        assert check.margin < 0.0

    def test_converged_nonrotating_solve_passes(self, le_outcome):
        assert le_outcome.state.lam < 0.0
        assert le_outcome.bound_check is not None
        assert le_outcome.bound_check.passed


class DilationRangeError(ValueError):
    """A dilated field would poke out of the grid."""


def resample_dilated(fld, t):
    """The dilated field rho_t(x) = rho(x/t) / t^3 on the same grid.

    Resampling is nearest-cell-center lookup; the raw result conserves mass
    up to the staircase error of the lookup, and callers who need the mass
    exact renormalize afterwards.
    """
    if t < 1.0:
        raise ValueError("dilation factor must be >= 1")
    grid = fld.grid
    d_r, d_z = cq.support_extent(fld, 0.0)
    if t * d_r > grid.r_max or t * d_z > grid.z_max:
        raise DilationRangeError(
            "support (%.3g, %.3g) dilated by %g exceeds the grid" % (d_r, d_z, t)
        )
    src_i = np.clip((grid.r / t / grid.dr).astype(int), 0, grid.n_r - 1)
    src_j = np.clip(
        ((grid.z / t + grid.z_max) / grid.dz).astype(int), 0, grid.n_z - 1
    )
    vals = fld.values[np.ix_(src_i, src_j)] / t**3
    return cq.DensityField(grid, vals, fld.mask)


def scaling_energy_curve(fld, eos, t_values):
    """F(rho_t) = internal - self-gravity along the dilation family.

    For a density with negative F at moderate dilation the self-gravity term
    dominates like 1/t while the internal term decays faster, so the curve
    is negative with |F|*t rising; that shape is what acceptance criterion
    8 asserts.
    """
    kernel = cq.kernel_for(fld.grid)
    mass = cq.total_mass(fld)
    vol = fld.grid.vol
    out = []
    for t in t_values:
        dil = cq.rescale_to_mass(resample_dilated(fld, t), mass)
        internal = float(np.sum(eos.internal_energy(dil.values) * vol))
        self_grav = 0.5 * float(np.sum(dil.values * kernel.apply(dil.values) * vol))
        out.append(internal - self_grav)
    return out


class TestDilation:
    def test_identity_dilation(self):
        grid = cq.CylGrid(1.5, 1.5, 64, 64)
        fld = ball_field(grid, 0.3, 2.0)
        same = resample_dilated(fld, 1.0)
        np.testing.assert_array_equal(same.values, fld.values)

    def test_double_dilation_preserves_mass(self):
        grid = cq.CylGrid(1.5, 1.5, 128, 128)
        fld = ball_field(grid, 0.25, 1.0)
        dil = resample_dilated(fld, 2.0)
        assert cq.total_mass(dil) == pytest.approx(cq.total_mass(fld), rel=1e-3)
        d_r, _ = cq.support_extent(dil)
        assert d_r == pytest.approx(0.5, abs=2.0 * grid.dr)

    def test_out_of_range_dilation_rejected(self):
        grid = cq.CylGrid(1.5, 1.5, 64, 64)
        fld = ball_field(grid, 0.3, 2.0)
        with pytest.raises(DilationRangeError):
            resample_dilated(fld, 10.0)
        with pytest.raises(ValueError):
            resample_dilated(fld, 0.5)

    def test_curve_at_t_one_is_the_functional_itself(self):
        grid = cq.CylGrid(1.5, 1.5, 64, 64)
        fld = ball_field(grid, 0.3, 2.0)
        eos = cq.Polytrope(1.0, 2.0)
        (f1,) = scaling_energy_curve(fld, eos, [1.0])
        env = trivial_env(grid)
        rep = cq.energy_with_potential(fld, eos, env, env.kernel.apply(fld.values))
        assert f1 == pytest.approx(rep.internal - rep.self_gravity, rel=1e-13)



def test_diagnostics_report_keys_and_wiring(le_problem, le_outcome):
    import dataclasses

    env = cq.Environment.build(le_problem)
    rho = le_outcome.rho
    rep = cq.energy_with_potential(
        rho, le_problem.eos, env, env.kernel.apply(rho.values)
    )
    stats = le_outcome.residual
    diag = cq.outcome_to_dict(le_outcome)
    assert diag["energy"] == {
        "internal": rep.internal,
        "self_gravity": rep.self_gravity,
        "rotation": rep.rotation,
        "core": rep.core,
        "total": rep.total,
    }
    assert diag["diagnostics"] == {
        "el_residual_max": stats.eq_max,
        "el_residual_mean": stats.eq_mean,
        "ineq_violation": stats.ineq_violation,
    }
    assert diag["lambda"] == le_outcome.state.lam
    assert diag["support"] == {"d_r": le_outcome.d_r, "d_z": le_outcome.d_z}
    assert diag["multiplier_bound"]["margin"] == le_outcome.bound_check.margin

    bare = dataclasses.replace(
        le_outcome,
        state=dataclasses.replace(le_outcome.state, lam=None),
        residual=None,
        bound_check=None,
    )
    empty = cq.outcome_to_dict(bare)
    assert empty["lambda"] is None
    assert empty["multiplier_bound"] is None
    assert empty["diagnostics"]["el_residual_max"] is None
    assert empty["diagnostics"]["ineq_violation"] is None
