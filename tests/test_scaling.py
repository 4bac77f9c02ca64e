import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rpwf.errors import ValidationError
from rpwf.rng import generator
from rpwf.scaling import (
    Partition,
    ScaledFamilyParams,
    build_family_member,
    eps_delta,
    family_member_for_start,
    native_step_count,
    project_group,
    rescale_time,
)
from rpwf.urn import UrnParams, new_urn, predictive_mean, simulate_urn, step, total_balls


def test_eps_delta_exact_rationals():
    eps, delta = eps_delta(1.0, 1.0, 0.9)
    assert eps == pytest.approx(1.0 / 110.0, abs=1e-15)
    assert delta == pytest.approx(1.0 / 11.0, abs=1e-15)


def test_eps_delta_beta_zero():
    alpha, b = 1.3, 0.7
    eps, delta = eps_delta(alpha, b, 0.0)
    assert eps == pytest.approx(b / (alpha + b))
    assert delta == pytest.approx(alpha / (alpha + b))


def test_eps_delta_ratio_tends_to_b_over_alpha():
    alpha, b = 1.0, 2.0
    for beta, tol in ((0.9, 0.25), (0.99, 0.025), (0.999, 0.01)):
        eps, delta = eps_delta(alpha, b, beta)
        assert abs(eps / delta**2 - b / alpha) / (b / alpha) < tol


def test_eps_delta_rejects_beta_one():
    with pytest.raises(ValidationError):
        eps_delta(1.0, 1.0, 1.0)


def test_build_family_member_constant_total():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.9)
    assert fp.B0_norm == pytest.approx(10.0)
    params = build_family_member(fp)
    for n in (0, 1, 100):
        assert total_balls(params, n) == pytest.approx(12.0, abs=1e-12)


def test_build_family_member_starts_at_p():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 3.0]), beta=0.8)
    params = build_family_member(fp)
    assert np.allclose(predictive_mean(params, new_urn(params)), [0.25, 0.75], atol=1e-15)


def test_family_b0_norm_example():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.99)
    assert fp.B0_norm == pytest.approx(100.0)


def test_family_member_for_interior_start():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.9)
    params = family_member_for_start(fp, np.array([0.3, 0.7]))
    assert np.allclose(predictive_mean(params, new_urn(params)), [0.3, 0.7], atol=1e-14)
    assert total_balls(params, 5) == pytest.approx(fp.r_star, abs=1e-12)


@pytest.mark.parametrize("x0", [[1.0, 0.0], [0.0, 1.0], [np.nan, 1.0], [1.2, -0.2]])
def test_family_member_for_start_rejects_a_start_off_the_interior(x0):
    # a zero coordinate gave b_i + B0_i = 0, rejected by the urn naming B0
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.9)
    with pytest.raises(ValidationError) as exc:
        family_member_for_start(fp, x0)
    assert exc.value.field == "x0"


def test_balanced_dynamics_identity_with_constant_coefficients():
    fp = ScaledFamilyParams(alpha=0.7, b=np.array([0.5, 1.5, 1.0]), beta=0.95)
    params = build_family_member(fp)
    eps, delta = eps_delta(fp.alpha, fp.b_scalar, fp.beta)
    state = new_urn(params)
    rng = generator(13, "balanced")
    for _ in range(3000):
        psi = predictive_mean(params, state)
        state, outcome = step(params, state, rng)
        dM = outcome.one_hot(3) - psi
        residual = (predictive_mean(params, state) - psi) - (-eps * (psi - fp.p) + delta * dM)
        assert np.max(np.abs(residual)) < 1e-12


def test_rescale_time_index_arithmetic():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.9)
    traj = simulate_urn(build_family_member(fp), 120, 3)
    path = rescale_time(traj, t_max=1.0, dt_out=0.5)
    assert np.allclose(path.t_grid, [0.0, 0.5, 1.0])
    assert np.array_equal(path.X[0], traj.psi[0])
    assert np.array_equal(path.X[1], traj.psi[50])
    assert np.array_equal(path.X[2], traj.psi[100])


def test_rescale_time_requires_enough_steps():
    assert native_step_count(0.99, 2.0) == 20_000
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.99)
    traj = simulate_urn(build_family_member(fp), 100, 3)
    with pytest.raises(ValidationError) as exc:
        rescale_time(traj, t_max=2.0, dt_out=0.1)
    assert "20000" in str(exc.value)


@pytest.mark.parametrize("t_max, dt_out", [(np.nan, 0.5), (1.0, np.nan), (np.inf, 0.5), (1.0, np.inf), (-1.0, 0.5), (1.0, 0.0)])
def test_rescale_time_rejects_a_grid_that_is_not_finite_and_positive(t_max, dt_out):
    # a NaN t_max or dt_out used to reach numpy and raise its ValueError
    traj = simulate_urn(build_family_member(ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.9)), 120, 3)
    with pytest.raises(ValidationError) as exc:
        rescale_time(traj, t_max=t_max, dt_out=dt_out)
    assert exc.value.field == "t-max"


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition([[1, 2], [2, 3]])
    with pytest.raises(ValidationError):  # k is the largest color: 2 is missing
        Partition([[1], [3]])
    with pytest.raises(ValidationError):
        Partition([[1], []])
    with pytest.raises(ValidationError):
        Partition([])
    with pytest.raises(ValidationError):
        Partition([[0, 1]])
    assert Partition([[3, 1], [2]]).k == 3


def test_project_group_identity_partition():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 2.0, 1.0]), beta=0.8)
    traj = simulate_urn(build_family_member(fp), 100, 7)
    ident = Partition([[1], [2], [3]])
    grouped = project_group(traj, ident)
    assert np.array_equal(grouped.psi, traj.psi)
    assert np.array_equal(grouped.draws, traj.draws)


def test_project_group_p_additivity():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 2.0, 3.0, 4.0]), beta=0.8)
    traj = simulate_urn(build_family_member(fp), 10, 7)
    grouped = project_group(traj, Partition([[1, 2], [3, 4]]))
    assert np.allclose(grouped.params.p, [0.3, 0.7])


@st.composite
def grouped_members(draw) -> tuple[ScaledFamilyParams, Partition]:
    """A k-colour family member (k = 3..6) and a random partition of its colours into 2..k-1 groups."""
    k = draw(st.integers(3, 6))
    n_groups = draw(st.integers(2, k - 1))
    order = draw(st.permutations(range(1, k + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, k - 1), min_size=n_groups - 1, max_size=n_groups - 1)))
    groups = [order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, k])]
    b = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k)))
    return ScaledFamilyParams(alpha=1.0, b=b, beta=draw(st.floats(0.5, 0.999))), Partition(groups)


@given(member=grouped_members(), n_steps=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
def test_grouped_path_satisfies_grouped_recursion(member, n_steps, seed):
    # aggregated psi follows the grouped recursion on the same draw stream
    fp, part = member
    traj = simulate_urn(build_family_member(fp), n_steps, seed)
    grouped = project_group(traj, part)
    eps, delta = eps_delta(fp.alpha, fp.b_scalar, fp.beta)
    psi = grouped.psi
    onehot = np.zeros((n_steps, len(part.groups)))
    onehot[np.arange(n_steps), grouped.draws - 1] = 1.0
    dM = onehot - psi[:-1]
    residual = psi[1:] - psi[:-1] + eps * (psi[:-1] - grouped.params.p) - delta * dM
    assert np.max(np.abs(residual)) < 1e-12


def test_grouping_commutes_with_rescaling():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0, 2.0]), beta=0.9)
    traj = simulate_urn(build_family_member(fp), 300, 11)
    part = Partition([[1, 2], [3]])
    a = rescale_time(project_group(traj, part), t_max=2.0, dt_out=0.25)
    b = project_group(rescale_time(traj, t_max=2.0, dt_out=0.25), part)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.t_grid, b.t_grid)


# sha256 of project_group on an UrnTrajectory (b, B0, draws, psi) and on a RescaledPath
# (t_grid, X), taken when each input type checked the partition and built its matrix itself
_PROJECT_GROUP_SHA = (
    "b70964406dc40ccff7bd48d2d7f751a81b871e8f8edff8453762bfa75ed01bea",
    "ac553920005c3316070b6f13d132812a0f0263194c7872f78c99a47da2a8867e",
)


def test_project_group_keeps_its_pinned_bytes():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 2.0, 3.0, 0.5]), beta=0.8)
    traj = simulate_urn(build_family_member(fp), 200, 5)
    part = Partition([[1, 3], [2], [4]])
    grouped = project_group(traj, part)
    path = project_group(rescale_time(traj, t_max=4.0, dt_out=0.25), part)
    arrays = ((grouped.params.b, grouped.params.B0, grouped.draws, grouped.psi), (path.t_grid, path.X))
    got = tuple(hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in group)).hexdigest() for group in arrays)
    assert got == _PROJECT_GROUP_SHA


@pytest.mark.parametrize(
    "alpha, b, field",
    [
        (0.0, 1.0, "alpha"),
        (-1.0, 1.0, "alpha"),
        (math.inf, 1.0, "alpha"),
        (math.nan, 1.0, "alpha"),
        (1.0, 0.0, "b"),
        (1.0, -2.0, "b"),
        (1.0, math.inf, "b"),
        (1.0, math.nan, "b"),
    ],
)
def test_eps_delta_rejects_a_scale_that_is_not_finite_and_positive(alpha, b, field):
    # an infinite alpha returned (0.0, nan) and an infinite |b| returned (nan, 0.0)
    with pytest.raises(ValidationError) as exc:
        eps_delta(alpha, b, 0.5)
    assert exc.value.field == field


def test_scaled_family_and_rescaling_reject_beta_one():
    with pytest.raises(ValidationError) as exc:
        ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=1.0)
    assert exc.value.field == "beta"
    traj = simulate_urn(UrnParams(alpha=1.0, beta=1.0, b=np.array([1.0, 1.0]), B0=np.array([1.0, 1.0])), 10, 1)
    with pytest.raises(ValidationError) as exc:
        rescale_time(traj, t_max=1.0, dt_out=0.1)
    assert exc.value.field == "beta"


@pytest.mark.parametrize("rescaled", [False, True])
def test_project_group_rejects_a_partition_of_another_size(rescaled):
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 2.0, 3.0]), beta=0.8)
    obj = simulate_urn(build_family_member(fp), 50, 3)
    if rescaled:
        obj = rescale_time(obj, t_max=1.0, dt_out=0.25)
    with pytest.raises(ValidationError) as exc:
        project_group(obj, Partition([[1, 2], [3, 4]]))
    assert exc.value.field == "partition"
