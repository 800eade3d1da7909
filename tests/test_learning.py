"""Collapsed Gibbs sampler, hyperparameter refits, estimators, BIC structure."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibgn import (
    FULL_SET,
    Instance,
    Interval,
    NULL_RELATION_CODE,
    SamplerState,
    StructureMask,
    TrainConfig,
    bic_family_score,
    build_synthetic_corpus,
    collect_link_counts,
    digamma,
    estimate_phi,
    estimate_theta,
    instance_to_network,
    learn_structure,
    run_gibbs,
    save_bundle,
    train_bundle,
    train_class_model,
    update_hyperparams,
)
from ibgn import learning
from ibgn.errors import ConfigInvalid, DomainError, EmptyCorpus, OrderViolation
from ibgn.generate import _draw, count_seat, seat_next
from conftest import (
    exhaustive_structure_oracle,
    padded_family_counts,
    phi_is_float_tuples,
    random_actions_instance,
    tiny_config,
    two_class_models,
)


def make_instance(*triples, label=None):
    return Instance(
        label=label,
        intervals=tuple(Interval(a, float(s), float(e)) for a, s, e in triples),
    )


def make_state(action_counts, alpha, beta, actions=((0,),), assignments=((0,),)):
    """Scratch sampler state for the conditional oracles: the seating and the
    corpus-wide table/action counts that one node update reads."""
    action_counts = np.asarray(action_counts, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return SimpleNamespace(
        actions=[list(a) for a in actions],
        assignments=[list(a) for a in assignments],
        action_counts=action_counts,
        row_totals=action_counts.sum(axis=1),
        alpha=alpha,
        beta=beta,
    )


class TestDigamma:
    def test_matches_reference_on_grid(self):
        grid = [1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0,
                7.3, 10.0, 25.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e8, 1e12]
        for x in grid:
            expected = float(mpmath.digamma(x))
            assert abs(digamma(x) - expected) < 1e-10, x

    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)

    @given(st.floats(min_value=1e-2, max_value=1e5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-9)

    def test_array_shape_preserved(self):
        x = np.array([[0.5, 1.0], [2.0, 3.0]])
        out = digamma(x)
        assert out.shape == x.shape
        assert out[0, 1] == pytest.approx(-0.5772156649015329, abs=1e-10)

    def test_scalar_returns_float(self):
        assert isinstance(digamma(2.0), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("name", ["clamp_lo", "clamp_hi"])
    def test_clamp_bounds_are_class_constants(self, name):
        assert (TrainConfig.clamp_lo, TrainConfig.clamp_hi) == (1e-6, 1e6)
        assert len(dataclasses.fields(TrainConfig)) == 7
        with pytest.raises(TypeError):
            TrainConfig(**{name: 0.1})

    def test_initial_values_may_sit_on_the_clamp_bounds(self):
        TrainConfig(alpha_init=1e-6, beta_init=1e6)
        with pytest.raises(ConfigInvalid, match=r"^beta_init must lie within the clamp bounds \[1e-06, 1e\+06\]$"):
            TrainConfig(beta_init=1.5e6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(structure="tree"),
            dict(iterations=0),
            dict(avg_window=0),
            dict(burn_in=-1),
            dict(iterations=10, burn_in=5, avg_window=6),
            dict(rho=0.0),
            dict(alpha_init=-1.0),
            dict(beta_init=0.0),
            dict(rho=math.inf),
            dict(rho=math.nan),
            dict(alpha_init=math.nan),
            dict(alpha_init=math.inf),
            dict(beta_init=math.nan),
            dict(beta_init=math.inf),
            dict(alpha_init=1e-320),
            dict(beta_init=1e308),
            dict(alpha_init=2e6),
            dict(beta_init=1e-7),
            dict(rho=1e308),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigInvalid):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(iterations=10.5), "iterations"),
            (dict(burn_in=2.0), "burn_in"),
            (dict(avg_window=True), "avg_window"),
            (dict(iterations="3000"), "iterations"),
            (dict(rho="0.1"), "rho"),
            (dict(alpha_init=True), "alpha_init"),
        ],
    )
    def test_wrong_field_type_names_the_field(self, kwargs, name):
        with pytest.raises(ConfigInvalid, match=f"^{name} must be"):
            TrainConfig(**kwargs)

    def test_numpy_scalars_are_accepted(self):
        config = TrainConfig(
            iterations=np.int64(40), burn_in=np.int32(10), avg_window=np.int64(30), rho=np.float64(0.1)
        )
        assert config.iterations == 40 and config.rho == 0.1


def gibbs_conditional(state, a, occupancy):
    """Seating distribution (normalized) for a node with action column ``a``:
    the readable form of one node update of the ``run_gibbs`` sweep.

    ``occupancy`` holds the per-table counts of the instance's earlier nodes,
    so the node's 1-based position is ``sum(occupancy) + 1``; the node's own
    count must already be removed from ``state``.  Entry ``z`` is table ``z``;
    while the budget allows, the final entry is the next fresh table.  Each
    table weighs its likelihood factor ``(count_za + beta_za) / (count_z. +
    beta_z.)`` times its seating factor: earlier-node occupancy (or alpha,
    for the fresh table) over ``position + alpha_z - 1``.
    """
    na, rows, beta, brows, alpha = (
        state.action_counts, state.row_totals, state.beta, state.beta.sum(axis=1), state.alpha
    )
    occupied = len(occupancy)
    position = int(sum(occupancy)) + 1
    weights = []
    for z in range(occupied):
        like = (na[z, a] + beta[z, a]) / (rows[z] + brows[z])
        weights.append(like * occupancy[z] / (position + alpha[z] - 1.0))
    if occupied < len(state.alpha):
        z = occupied
        like = (na[z, a] + beta[z, a]) / (rows[z] + brows[z])
        weights.append(like * alpha[z] / (position + alpha[z] - 1.0))
    probs = np.asarray(weights, dtype=float)
    return probs / probs.sum()


def prefix_conditional(state, d, n):
    """Oracle for ``gibbs_conditional``: the earlier nodes' occupancy rebuilt
    from ``state.assignments[d][:n]`` on every call, with the same weights."""
    a = state.actions[d][n]
    prefix = state.assignments[d][:n]
    occupied = 0
    for t in prefix:
        if t >= occupied:
            occupied = t + 1
    counts = [0.0] * occupied
    for t in prefix:
        counts[t] += 1.0
    assert 0.0 not in counts, "earlier-node occupancy must form a contiguous table prefix"
    na, rows, beta, brows, alpha = (
        state.action_counts, state.row_totals, state.beta, state.beta.sum(axis=1), state.alpha
    )
    position = n + 1
    weights = []
    for z in range(occupied):
        like = (na[z, a] + beta[z, a]) / (rows[z] + brows[z])
        weights.append(like * counts[z] / (position + alpha[z] - 1.0))
    if occupied < len(state.alpha):
        z = occupied
        like = (na[z, a] + beta[z, a]) / (rows[z] + brows[z])
        weights.append(like * alpha[z] / (position + alpha[z] - 1.0))
    probs = np.asarray(weights, dtype=float)
    return probs / probs.sum()


def prefix_run_gibbs(instances, vocab_size, config, rng, ell=None):
    """Oracle for ``run_gibbs``: the same prior draw and sweep order, each node
    reseated through ``prefix_conditional``, and the window histograms counted
    instance by instance."""
    actions = [[iv.action - 1 for iv in inst.intervals] for inst in instances]
    longest = max(len(a) for a in actions)
    ell = ell or longest
    cap = longest + 1
    state = make_state(
        np.zeros((ell, vocab_size)), np.full(ell, config.alpha_init),
        np.full((ell, vocab_size), config.beta_init), actions, [[-1] * len(a) for a in actions],
    )
    state.window_table = np.zeros((ell, cap))
    state.window_alpha = np.zeros((ell, cap))
    state.window_action = np.zeros((ell, vocab_size, cap))
    state.length_hist = np.bincount([len(a) - 1 for a in actions], minlength=cap).astype(float)
    state.window_sweeps = 0

    def move(d, n, z, step):
        state.assignments[d][n] = z if step > 0 else -1
        state.action_counts[z, actions[d][n]] += step
        state.row_totals[z] += step

    for d, inst_actions in enumerate(actions):
        seated = []
        for n in range(len(inst_actions)):
            move(d, n, seat_next(seated, state.alpha, rng.random()), 1.0)
    tables = np.arange(ell)
    for sweep in range(config.burn_in + config.avg_window):
        for d, inst_actions in enumerate(actions):
            for n in range(len(inst_actions)):
                move(d, n, state.assignments[d][n], -1.0)
                move(d, n, _draw(prefix_conditional(state, d, n), rng.random()), 1.0)
        if sweep < config.burn_in:
            continue
        for seats, inst_actions in zip(state.assignments, actions):
            occupancy = np.zeros(ell, dtype=np.int64)
            counts = np.zeros((ell, vocab_size), dtype=np.int64)
            for z, a in zip(seats, inst_actions):
                occupancy[z] += 1
                counts[z, a] += 1
            state.window_table[tables, occupancy] += 1
            occupancy[seats[0]] -= 1
            state.window_alpha[tables, occupancy] += 1
            state.window_action[tables[:, None], np.arange(vocab_size), counts] += 1
        state.window_sweeps += 1
    fit = SamplerState(
        assignments=state.assignments, alpha=state.alpha, beta=state.beta,
        window_table=state.window_table, window_alpha=state.window_alpha,
        window_action=state.window_action, length_hist=state.length_hist, window_sweeps=state.window_sweeps,
    )
    for _ in range(config.iterations - config.burn_in - config.avg_window):
        update_hyperparams(fit, config)
    return fit


def _occupancy(seats):
    occupancy = []
    for z in seats:
        count_seat(occupancy, z)
    return occupancy


class TestGibbsConditional:
    def test_worked_example(self):
        state = make_state(
            action_counts=[[2.0, 0.0], [0.0, 0.0]],
            alpha=[1.0, 1.0],
            beta=[[0.5, 0.5], [0.5, 0.5]],
        )
        probs = gibbs_conditional(state, 0, [1.0])
        np.testing.assert_allclose(probs, [0.625, 0.375])

    def test_tiny_alpha_sticks_to_occupied_table(self):
        state = make_state(
            action_counts=[[2.0, 0.0], [0.0, 0.0]],
            alpha=[1e-12, 1e-12],
            beta=[[0.5, 0.5], [0.5, 0.5]],
        )
        probs = gibbs_conditional(state, 0, [1.0])
        assert probs[0] > 1.0 - 1e-9

    def test_symmetric_tables_are_equally_likely(self):
        state = make_state(
            action_counts=[[3.0, 1.0], [3.0, 1.0], [0.0, 0.0]],
            alpha=[2.0, 2.0, 2.0],
            beta=np.full((3, 2), 0.5),
        )
        probs = gibbs_conditional(state, 0, [1.0, 1.0])
        assert probs[0] == pytest.approx(probs[1], rel=1e-12)

    def test_exhausted_budget_has_no_fresh_entry(self):
        state = make_state(
            action_counts=[[1.0, 0.0], [0.0, 1.0]],
            alpha=[1.0, 1.0],
            beta=np.full((2, 2), 0.5),
        )
        probs = gibbs_conditional(state, 0, [1.0, 1.0])
        assert len(probs) == 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalized(self):
        rng = np.random.default_rng(0)
        state = make_state(
            action_counts=rng.integers(0, 5, size=(4, 3)).astype(float),
            alpha=rng.random(4) + 0.1,
            beta=rng.random((4, 3)) + 0.1,
        )
        probs = gibbs_conditional(state, 0, [2.0, 1.0])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(probs) == 3  # two occupied + one fresh

    def test_matches_prefix_rebuild_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            ell = int(rng.integers(1, 13))
            m = int(rng.integers(1, 6))
            length = int(rng.integers(1, ell + 1))
            alpha = rng.random(ell) * 3.0 + 0.05
            seated = []
            seats = [seat_next(seated, alpha, rng.random()) for _ in range(length)]
            actions = rng.integers(0, m, size=length).tolist()
            for n in range(length):
                state = make_state(
                    action_counts=rng.integers(0, 6, size=(ell, m)).astype(float),
                    alpha=alpha,
                    beta=rng.random((ell, m)) * 2.0 + 0.05,
                    actions=[actions],
                    assignments=[seats[:n] + [-1] * (length - n)],
                )
                got = gibbs_conditional(state, actions[n], _occupancy(seats[:n]))
                assert got.tobytes() == prefix_conditional(state, 0, n).tobytes()


def state_with_samples(occupancy, first_seats, action_counts, alpha, beta):
    """Build a sampler state whose refit window holds the given samples.

    ``occupancy``: (sweeps, instances, tables) per-instance occupancy;
    ``first_seats``: (sweeps, instances) table of each instance's first seat;
    ``action_counts``: (sweeps, instances, tables, actions).  The arrays are
    converted into per-sweep count histograms, whose window sums the refit
    consumes.
    """
    occupancy = np.asarray(occupancy, dtype=np.int64)
    first_seats = np.asarray(first_seats, dtype=np.int64)
    action_counts = np.asarray(action_counts, dtype=np.int64)
    size, count, ell = occupancy.shape
    m = action_counts.shape[3]
    cap = int(occupancy.sum(axis=2).max()) + 1
    rest = occupancy.copy()
    for s in range(size):
        rest[s, np.arange(count), first_seats[s]] -= 1
    hist_table = np.zeros((size, ell, cap))
    hist_alpha = np.zeros((size, ell, cap))
    hist_action = np.zeros((size, ell, m, cap))
    for s in range(size):
        for z in range(ell):
            hist_table[s, z] = np.bincount(occupancy[s, :, z], minlength=cap)
            hist_alpha[s, z] = np.bincount(rest[s, :, z], minlength=cap)
            for i in range(m):
                hist_action[s, z, i] = np.bincount(
                    action_counts[s, :, z, i], minlength=cap
                )
    return SamplerState(
        assignments=[[0]],
        alpha=np.asarray(alpha, dtype=float),
        beta=np.asarray(beta, dtype=float),
        window_table=hist_table.sum(axis=0),
        window_alpha=hist_alpha.sum(axis=0),
        window_action=hist_action.sum(axis=0),
        length_hist=np.bincount(occupancy[0].sum(axis=1) - 1, minlength=cap).astype(float),
        window_sweeps=size,
    )


# over-dispersed sample set: every table sees repeated multi-count samples
# whose proportions swing between sweeps, so the maximum-likelihood
# concentrations are finite and the multiplicative iteration settles inside
# the clamp bounds
_PHASES = (
    # (occupancy, first seats, {(instance, table): action counts})
    ([[6, 0, 0], [2, 4, 0]], [0, 1], {(0, 0): [4, 2], (1, 0): [0, 2], (1, 1): [4, 0]}),
    ([[2, 0, 4], [0, 6, 0]], [2, 1], {(0, 0): [2, 0], (0, 2): [0, 4], (1, 1): [2, 4]}),
    ([[6, 0, 0], [2, 4, 0]], [0, 1], {(0, 0): [2, 4], (1, 0): [2, 0], (1, 1): [0, 4]}),
    ([[2, 0, 4], [0, 6, 0]], [2, 1], {(0, 0): [0, 2], (0, 2): [2, 2], (1, 1): [4, 2]}),
)


def overdispersed_samples(size, ell=3, m=2):
    occupancy = np.zeros((size, 2, ell), dtype=np.int64)
    first_seats = np.zeros((size, 2), dtype=np.int64)
    action_counts = np.zeros((size, 2, ell, m), dtype=np.int64)
    for s in range(size):
        occ, first, actions = _PHASES[s % 4]
        occupancy[s] = occ
        first_seats[s] = first
        for (d, z), counts in actions.items():
            action_counts[s, d, z] = counts
    return occupancy, first_seats, action_counts


def reference_update_hyperparams(state, config):
    """The refit as digamma differences: each side of the ratio sums
    ``digamma(count + param) - digamma(param)`` over the count histograms."""
    size = state.window_sweeps
    hist_sum, alpha_sum_hist, action_sum = state.window_table, state.window_alpha, state.window_action
    alpha, beta = state.alpha, state.beta
    lo, hi = config.clamp_lo, config.clamp_hi
    cap = hist_sum.shape[1]
    support = np.arange(1, cap, dtype=float)
    if float(alpha_sum_hist.sum()) == 0.0:
        new_alpha = alpha.copy()
    else:
        alpha_sum = float(alpha.sum())
        num = (
            alpha_sum_hist[:, 1:]
            * (digamma(support[None, :] + alpha[:, None]) - digamma(alpha)[:, None])
        ).sum(axis=1)
        bins = np.nonzero(state.length_hist)[0]
        den = size * float(
            (state.length_hist[bins] * (digamma(bins.astype(float) + alpha_sum) - digamma(alpha_sum))).sum()
        )
        new_alpha = np.clip(alpha * num / den, lo, hi) if den > 0.0 else alpha.copy()
    beta_rows = beta.sum(axis=1)
    support_a = np.arange(1, action_sum.shape[2], dtype=float)
    bnum = (
        action_sum[:, :, 1:]
        * (digamma(support_a[None, None, :] + beta[:, :, None]) - digamma(beta)[:, :, None])
    ).sum(axis=2)
    bden = (
        hist_sum[:, 1:]
        * (digamma(support[None, :] + beta_rows[:, None]) - digamma(beta_rows)[:, None])
    ).sum(axis=1)
    safe = np.where(bden > 0.0, bden, 1.0)
    new_beta = np.where(bden[:, None] > 0.0, np.clip(beta * bnum / safe[:, None], lo, hi), beta)
    state.alpha = new_alpha
    state.beta = new_beta
    return new_alpha, new_beta


@st.composite
def recorded_windows(draw):
    """A sampler state whose window holds random seatings: instances of 1-6
    nodes over up to 4 tables and 3 actions, each node at any table but the
    first at table 0, recorded over 1-4 sweeps; alpha and beta start
    log-uniform in [1e-3, 1e3]."""
    ell, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    sweeps = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupancy = np.zeros((sweeps, len(lengths), ell), dtype=np.int64)
    action_counts = np.zeros((sweeps, len(lengths), ell, m), dtype=np.int64)
    for s in range(sweeps):
        for d, length in enumerate(lengths):
            seats = np.concatenate([[0], rng.integers(0, ell, size=length - 1)])
            for z, a in zip(seats, rng.integers(0, m, size=length)):
                occupancy[s, d, z] += 1
                action_counts[s, d, z, a] += 1
    return state_with_samples(
        occupancy, np.zeros((sweeps, len(lengths)), dtype=np.int64), action_counts,
        alpha=10.0 ** rng.uniform(-3, 3, size=ell), beta=10.0 ** rng.uniform(-3, 3, size=(ell, m)),
    )


class TestPolyaStep:
    @pytest.mark.parametrize("x", [1e-6, 1.0, 1e6])
    def test_increments_match_mpmath_digamma(self, x):
        got = learning._psi_increments(x, 12)
        with mpmath.workdps(40):
            for c in range(1, 13):
                want = mpmath.digamma(c + mpmath.mpf(x)) - mpmath.digamma(mpmath.mpf(x))
                assert abs(got[c - 1] - want) <= 1e-15 * abs(want), (x, c)

    @settings(max_examples=60, deadline=None)
    @given(recorded_windows())
    def test_matches_digamma_reference(self, state):
        config = TrainConfig()
        copy = SamplerState(**{**vars(state), "alpha": state.alpha.copy(), "beta": state.beta.copy()})
        for steps in (1, 99):
            for _ in range(steps):
                update_hyperparams(state, config)
                reference_update_hyperparams(copy, config)
            np.testing.assert_allclose(state.alpha, copy.alpha, rtol=1e-9, atol=0)
            np.testing.assert_allclose(state.beta, copy.beta, rtol=1e-9, atol=0)

    def test_refits_make_no_digamma_call(self, monkeypatch):
        def refuse(x):
            raise AssertionError("the refit called digamma")

        monkeypatch.setattr(learning, "digamma", refuse)
        rng = np.random.default_rng(120)
        corpus = [random_actions_instance(rng, int(rng.integers(1, 6)), 3) for _ in range(8)]
        config = tiny_config(iterations=60)  # 20 refit steps after the window
        state = run_gibbs(corpus, 3, config, np.random.default_rng(0))
        assert not np.array_equal(state.alpha, np.full_like(state.alpha, config.alpha_init))
        model = train_class_model(corpus, ["x", "y", "z"], config, np.random.default_rng(0))
        np.testing.assert_array_equal(model.alpha, state.alpha)


class TestUpdateHyperparams:
    def test_requires_history(self):
        state = SamplerState(
            assignments=[[0]], alpha=np.ones(1), beta=np.full((1, 1), 0.5),
            window_table=np.zeros((1, 2)), window_alpha=np.zeros((1, 2)),
            window_action=np.zeros((1, 1, 2)), length_hist=np.zeros(2), window_sweeps=0,
        )
        with pytest.raises(ValueError):
            update_hyperparams(state, TrainConfig())

    def test_empty_history_leaves_parameters_unchanged(self):
        state = SamplerState(
            assignments=[[0]], alpha=np.asarray([1.0, 2.0]), beta=np.full((2, 2), 0.5),
            window_table=np.zeros((2, 4)), window_alpha=np.zeros((2, 4)),
            window_action=np.zeros((2, 2, 4)), length_hist=np.zeros(4), window_sweeps=3,
        )
        new_alpha, new_beta = update_hyperparams(state, TrainConfig())
        np.testing.assert_array_equal(new_alpha, [1.0, 2.0])
        np.testing.assert_array_equal(new_beta, np.full((2, 2), 0.5))

    def test_zero_count_table_row_unchanged(self):
        # table 1 is never occupied, so its beta row has no samples
        occupancy = [[[3, 0]], [[3, 0]]]
        first_seats = [[0], [0]]
        action_counts = [[[[2, 1], [0, 0]]], [[[1, 2], [0, 0]]]]
        state = state_with_samples(
            occupancy, first_seats, action_counts,
            alpha=[1.0, 1.0], beta=np.full((2, 2), 0.5),
        )
        _, new_beta = update_hyperparams(state, TrainConfig())
        np.testing.assert_array_equal(new_beta[1], [0.5, 0.5])
        assert not np.array_equal(new_beta[0], [0.5, 0.5])

    def test_clamped_to_bounds(self):
        # identical samples every sweep: zero dispersion, so the unclamped
        # fit runs away upward for table 0 and to zero for unused table 1
        occupancy = [[[5, 0]], [[5, 0]]]
        first_seats = [[0], [0]]
        action_counts = [[[[3, 2], [0, 0]]], [[[3, 2], [0, 0]]]]
        state = state_with_samples(
            occupancy, first_seats, action_counts,
            alpha=[1.0, 1.0], beta=np.full((2, 2), 1.0),
        )
        for _ in range(60):  # update_hyperparams's two steps, at bounds narrower than TrainConfig's
            state.alpha = learning._polya_step(
                state.alpha, state.window_alpha, state.window_sweeps * state.length_hist, 0.5, 2.0
            )
            state.beta = learning._polya_step(state.beta, state.window_action, state.window_table, 0.5, 2.0)
        assert state.alpha[0] == 2.0  # hit the upper clamp
        assert state.alpha[1] == 0.5  # no occupancy beyond first seats: lower clamp
        assert state.beta[0, 0] == 2.0  # dominant action hits the upper clamp
        assert 0.5 <= state.beta[0, 1] <= 2.0
        np.testing.assert_array_equal(state.beta[1], [1.0, 1.0])  # no samples: unchanged

    def test_refit_clamps_to_the_config_constants(self):
        # the same zero-dispersion samples, with table 0's beta row on the upper
        # bound: unclamped, its dominant action would step to 1.2e6
        state = state_with_samples(
            [[[5, 0]], [[5, 0]]], [[0], [0]], [[[[3, 2], [0, 0]]], [[[3, 2], [0, 0]]]],
            alpha=[1.0, 1.0], beta=[[1e6, 1e6], [1.0, 1.0]],
        )
        update_hyperparams(state, TrainConfig())
        assert state.alpha[1] == 1e-6  # no occupancy beyond first seats: lower clamp
        assert state.beta[0, 0] == 1e6  # upper clamp
        assert state.beta[0, 1] < 1e6

    def test_fixed_point_factor_converges_to_one(self):
        occupancy, first_seats, action_counts = overdispersed_samples(40)
        state = state_with_samples(
            occupancy, first_seats, action_counts,
            alpha=np.ones(3), beta=np.full((3, 2), 0.5),
        )
        config = TrainConfig()
        for _ in range(5000):
            old_alpha = state.alpha.copy()
            old_beta = state.beta.copy()
            update_hyperparams(state, config)
            drift = max(
                np.max(np.abs(state.alpha / old_alpha - 1.0)),
                np.max(np.abs(state.beta / old_beta - 1.0)),
            )
            if drift < 1e-10:
                break
        assert np.all(np.abs(state.alpha / old_alpha - 1.0) < 1e-8)
        assert np.all(np.abs(state.beta / old_beta - 1.0) < 1e-8)
        assert np.all(state.alpha < 100.0)  # interior, not a clamp artifact


class TestRunGibbs:
    def _corpus(self, rng, count=12, vocab_size=3):
        return [
            random_actions_instance(rng, int(rng.integers(2, 5)), vocab_size)
            for _ in range(count)
        ]

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(100)
        corpus = self._corpus(rng)
        config = tiny_config()
        r1 = run_gibbs(corpus, 3, config, np.random.default_rng(1))
        r2 = run_gibbs(corpus, 3, config, np.random.default_rng(1))
        np.testing.assert_array_equal(r1.averaged_na, r2.averaged_na)
        assert r1.assignments == r2.assignments
        np.testing.assert_array_equal(r1.alpha, r2.alpha)
        np.testing.assert_array_equal(r1.beta, r2.beta)

    def test_shapes_and_mass_conservation(self):
        rng = np.random.default_rng(101)
        corpus = self._corpus(rng, count=8)
        result = run_gibbs(corpus, 3, tiny_config(), np.random.default_rng(2))
        longest = max(len(inst) for inst in corpus)
        assert result.averaged_na.shape == (longest, 3)
        assert len(result.assignments) == len(corpus)
        # every node is seated somewhere at the end of the run
        for d, inst in enumerate(corpus):
            seats = result.assignments[d]
            assert len(seats) == len(inst) and all(0 <= z < longest for z in seats)
        assert result.averaged_na.sum() == pytest.approx(
            sum(len(inst) for inst in corpus)
        )

    def test_window_sums_count_every_instance_and_node(self):
        rng = np.random.default_rng(103)
        corpus = self._corpus(rng, count=9, vocab_size=3)
        config = tiny_config()
        state = run_gibbs(corpus, 3, config, np.random.default_rng(4))
        window, count = config.avg_window, len(corpus)
        ell, m, cap = state.window_action.shape
        assert state.window_sweeps == window
        assert state.window_table.shape == state.window_alpha.shape == (ell, cap)
        # each recorded sweep adds one sample per instance to every histogram
        np.testing.assert_array_equal(state.window_table.sum(axis=1), window * count)
        np.testing.assert_array_equal(state.window_alpha.sum(axis=1), window * count)
        np.testing.assert_array_equal(state.window_action.sum(axis=2), window * count)
        # the histogram of occupancy counts weighs back to every seated node
        nodes = sum(len(inst) for inst in corpus)
        assert (state.window_table * np.arange(cap)).sum() == window * nodes
        assert (state.window_alpha * np.arange(cap)).sum() == window * (nodes - count)
        assert (state.window_action * np.arange(cap)).sum() == window * nodes
        # a one-sweep window ending the run holds the final state's histograms,
        # table by table and cell by cell
        state = run_gibbs(
            corpus, 3, tiny_config(iterations=11, burn_in=10, avg_window=1), np.random.default_rng(5)
        )
        occupancy = np.zeros((count, ell), dtype=np.int64)
        per_instance = np.zeros((count, ell, m), dtype=np.int64)
        for d, (seats, inst) in enumerate(zip(state.assignments, corpus)):
            for z, a in zip(seats, (iv.action - 1 for iv in inst.intervals)):
                occupancy[d, z] += 1
                per_instance[d, z, a] += 1
        rest = occupancy.copy()
        for d, seats in enumerate(state.assignments):
            rest[d, seats[0]] -= 1
        for z in range(ell):
            np.testing.assert_array_equal(state.window_table[z], np.bincount(occupancy[:, z], minlength=cap))
            np.testing.assert_array_equal(state.window_alpha[z], np.bincount(rest[:, z], minlength=cap))
            for i in range(m):
                np.testing.assert_array_equal(
                    state.window_action[z, i], np.bincount(per_instance[:, z, i], minlength=cap)
                )

    def test_refit_tail_runs_no_sweeps(self):
        rng = np.random.default_rng(105)
        corpus = self._corpus(rng, count=8)
        closed = tiny_config()  # the window closes on the last iteration
        tail = 25
        tailed_rng = np.random.default_rng(7)
        state = run_gibbs(corpus, 3, tiny_config(iterations=closed.iterations + tail), tailed_rng)
        closed_rng = np.random.default_rng(7)
        reference = run_gibbs(corpus, 3, closed, closed_rng)
        # only the burn-in and window sweeps reseat nodes: the tail draws nothing
        assert tailed_rng.bit_generator.state == closed_rng.bit_generator.state
        # the tail is exactly `tail` refit steps over the closed window
        for _ in range(tail):
            update_hyperparams(reference, closed)
        np.testing.assert_array_equal(state.averaged_na, reference.averaged_na)
        np.testing.assert_array_equal(state.alpha, reference.alpha)
        np.testing.assert_array_equal(state.beta, reference.beta)
        assert state.assignments == reference.assignments

    def test_matches_prefix_rebuild_oracle(self):
        # the long-instance cases (lengths 8-13, a large alpha_init) cover updates
        # that weigh 8 or more tables: about a fifth of their node updates do
        # the last case takes fractional alpha_init and beta_init, which the sweep weighs as scalars
        for seed, ell, lengths, alpha_init, beta_init in (
            (0, None, (1, 7), 1.0, 0.5), (1, None, (1, 7), 1.0, 0.5), (2, 3, (1, 7), 1.0, 0.5),
            (3, None, (8, 14), 20.0, 0.5), (4, 9, (8, 14), 20.0, 0.5), (5, None, (1, 7), 0.3, 0.7),
        ):
            rng = np.random.default_rng(110 + seed)
            corpus = [
                random_actions_instance(rng, int(rng.integers(*lengths)), 4) for _ in range(10)
            ]
            # 15 refit steps after the window
            config = tiny_config(iterations=55, alpha_init=alpha_init, beta_init=beta_init)
            got = run_gibbs(corpus, 4, config, np.random.default_rng(seed), ell=ell)
            want = prefix_run_gibbs(corpus, 4, config, np.random.default_rng(seed), ell=ell)
            assert got.assignments == want.assignments
            for name in ("averaged_na", "alpha", "beta", "window_alpha"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_budget_override(self):
        rng = np.random.default_rng(102)
        corpus = self._corpus(rng, count=6)
        result = run_gibbs(corpus, 3, tiny_config(), np.random.default_rng(3), ell=2)
        assert result.averaged_na.shape[0] == 2
        for seats in result.assignments:
            assert set(seats) <= {0, 1}

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            run_gibbs([], 3, tiny_config(), np.random.default_rng(0))
        with pytest.raises(EmptyCorpus):
            run_gibbs(
                [Instance(label=None, intervals=())],
                3,
                tiny_config(),
                np.random.default_rng(0),
            )

    def test_empty_instance_rejected_by_index_before_any_draw(self):
        rng = np.random.default_rng(0)
        corpus = [make_instance((1, 0, 1), (2, 1, 3)), Instance(label="a", intervals=())]
        with pytest.raises(EmptyCorpus, match="instance 1 is empty"):
            run_gibbs(corpus, 2, TrainConfig(10, 2, 4), rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_unknown_action_rejected(self):
        inst = make_instance((9, 0, 1))
        with pytest.raises(ValueError):
            run_gibbs([inst], 3, tiny_config(), np.random.default_rng(0))

    @pytest.mark.parametrize("ell", [0, -1])
    def test_table_budget_below_one_rejected(self, ell):
        corpus = [make_instance((1, 0, 1), (2, 1, 3))]
        with pytest.raises(ValueError, match=f"ell={ell}"):
            run_gibbs(corpus, 2, tiny_config(), np.random.default_rng(0), ell=ell)

    def test_invalid_config_rejected(self):
        inst = make_instance((1, 0, 1))
        with pytest.raises(ConfigInvalid):
            run_gibbs(
                [inst], 1, TrainConfig(structure="bogus"), np.random.default_rng(0)
            )


class TestEstimators:
    def test_theta_example(self):
        theta = estimate_theta(np.array([[3.0, 1.0]]), np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(theta, [[0.7, 0.3]])

    def test_theta_rows_normalized(self):
        rng = np.random.default_rng(0)
        na = rng.random((4, 5)) * 10
        beta = rng.random((4, 5)) + 0.1
        theta = estimate_theta(na, beta)
        np.testing.assert_allclose(theta.sum(axis=1), np.ones(4), atol=1e-12)

    def test_phi_exact_fractions(self):
        rho = 1e-5
        phi = estimate_phi({(1, 2, FULL_SET.bits): np.array([3.0, 1.0, 0.0])}, rho)
        vec = phi[(1, 2, FULL_SET.bits)]
        expected = [
            Fraction(3) + Fraction(1, 100_000),
            Fraction(1) + Fraction(1, 100_000),
            Fraction(0) + Fraction(1, 100_000),
        ]
        total = Fraction(4) + 3 * Fraction(1, 100_000)
        for got, num in zip(vec, expected):
            assert got == pytest.approx(float(num / total), abs=1e-15)

    def test_phi_singleton_is_exactly_one(self):
        phi = estimate_phi({(1, 1, 0b1): np.array([5.0])}, 1e-5)
        assert phi[(1, 1, 0b1)][0] == 1.0

    def test_collect_link_counts_chain(self):
        corpus = [
            make_instance((1, 0, 1), (2, 2, 3)),
            make_instance((1, 0, 1), (2, 1, 3)),
            make_instance((2, 0, 1), (1, 2, 3)),
        ]
        counts = collect_link_counts(corpus, StructureMask.chain(2))
        key12 = (1, 2, FULL_SET.bits)
        key21 = (2, 1, FULL_SET.bits)
        assert set(counts) == {key12, key21}
        # b is member 0, m is member 1 of the full set
        np.testing.assert_array_equal(counts[key12], [1, 1, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(counts[key21], [1, 0, 0, 0, 0, 0, 0])

    def test_collect_link_counts_uses_resolved_constraints(self):
        # meets then starts: constraint on the outer pair is the singleton {m}
        corpus = [make_instance((1, 0, 2), (2, 2, 3), (3, 2, 5))]
        counts = collect_link_counts(corpus, StructureMask.full(3))
        singleton_keys = [key for key in counts if bin(key[2]).count("1") == 1]
        assert any(key[2] == 0b10 for key in singleton_keys)  # {m}
        for key, vec in counts.items():
            assert vec.sum() >= 1


class TestBic:
    def test_null_relation_code(self):
        assert NULL_RELATION_CODE == 7

    def test_constant_relation_without_parents(self):
        assert bic_family_score({((1, 1), 0): 10}, 2, False) == pytest.approx(
            -math.log(10) / 2.0 * 7.0
        )

    def test_hand_computed_scores(self):
        joint = {((1, 2), 0): 3, ((1, 2), 2): 1, ((2, 1), 2): 4}
        unit = math.log(8) / 2.0 * 7.0
        ll_joint = 3 * math.log(3 / 4) + 1 * math.log(1 / 4) + 4 * math.log(4 / 4)
        ll_marg = 3 * math.log(3 / 8) + 5 * math.log(5 / 8)
        assert bic_family_score(joint, 2, True) == pytest.approx(ll_joint - unit * 9)
        assert bic_family_score(joint, 2, False) == pytest.approx(ll_marg - unit)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyCorpus):
            bic_family_score({}, 2, True)

    @staticmethod
    def _dependent_corpus(copies):
        """Relation is a deterministic function of the two actions."""
        blocks = [
            make_instance((1, 0, 1), (1, 2, 3)),  # (1,1) -> before
            make_instance((1, 0, 2), (2, 1, 3)),  # (1,2) -> overlaps
            make_instance((2, 0, 1), (1, 1, 2)),  # (2,1) -> meets
            make_instance((2, 0, 3), (2, 1, 2)),  # (2,2) -> contains
        ]
        return blocks * copies

    def test_strong_dependence_links_when_data_suffices(self):
        mask = learn_structure(self._dependent_corpus(100), vocab_size=2)
        assert (0, 1) in mask

    def test_same_dependence_unlinked_on_small_data(self):
        mask = learn_structure(self._dependent_corpus(5), vocab_size=2)
        assert (0, 1) not in mask

    def test_independent_relations_stay_unlinked(self):
        rng = np.random.default_rng(7)
        corpus = [random_actions_instance(rng, 3, 2) for _ in range(60)]
        mask = learn_structure(corpus, vocab_size=2)
        assert len(mask) == 0 or all(j < 3 for _, j in mask.links)

    def test_matches_exhaustive_mask_search(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            corpus = [
                random_actions_instance(rng, int(rng.integers(1, 4)), 2)
                for _ in range(25)
            ]
            assert learn_structure(corpus, 2) == exhaustive_structure_oracle(corpus, 2)

    @staticmethod
    def _ragged_dependent_corpus(rng, count):
        """Instances of 1-5 intervals; each relation to the previous interval
        is before on a repeated action and overlaps otherwise."""
        corpus = []
        for _ in range(count):
            actions = [int(a) for a in rng.integers(1, 3, size=int(rng.integers(1, 6)))]
            start, end = 0.0, 2.0
            intervals = [Interval(actions[0], start, end)]
            for previous, action in zip(actions, actions[1:]):
                if action == previous:
                    start, end = end + 1.0, end + 3.0
                else:
                    start, end = start + 1.0, end + 1.0
                intervals.append(Interval(action, start, end))
            corpus.append(Instance(label=None, intervals=tuple(intervals)))
        return corpus

    def test_family_counts_read_nodes_past_the_end_as_null(self):
        """Oracle: pad every network's actions with the null action to k*
        and count (parents, relation code) over the padded networks."""
        rng = np.random.default_rng(31)
        corpora = [self._ragged_dependent_corpus(rng, int(rng.integers(150, 400))) for _ in range(6)]
        assert all(len(learn_structure(corpus, 2)) > 0 for corpus in corpora)
        # tied integer endpoints give every relation, not only before and overlaps
        corpora += [[random_actions_instance(rng, int(rng.integers(1, 6)), 2) for _ in range(80)] for _ in range(6)]
        codes = set()
        for corpus in corpora:
            networks = [instance_to_network(inst) for inst in corpus]
            k_star = max(net.size for net in networks)
            assert min(net.size for net in networks) < k_star
            got = learning._family_counts(corpus, k_star)
            assert list(got) == [(i, j) for i in range(k_star) for j in range(i + 1, k_star)]
            for (i, j), joint in got.items():
                expected = padded_family_counts(networks, i, j)
                assert list(joint.items()) == list(expected.items())  # same counts, same first-occurrence order
                codes.update(code for _parents, code in joint)
        assert codes == set(range(NULL_RELATION_CODE + 1))

    def test_ragged_instances_padded(self):
        corpus = [make_instance((1, 0, 1)), make_instance((1, 0, 1), (2, 2, 3))]
        mask = learn_structure(corpus, vocab_size=2)
        assert all(j <= 1 for _, j in mask.links)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpus):
            learn_structure([], 2)

    def test_all_empty_instances_rejected(self):
        with pytest.raises(EmptyCorpus):
            learn_structure([Instance(label=None, intervals=())] * 2, 2)

    def test_non_canonical_instance_rejected(self):
        """Learned-mode training reads every pair of every instance, so an
        instance out of canonical order cannot slip through."""
        swapped = Instance(None, (Interval(1, 2.0, 3.0), Interval(1, 0.0, 1.0)))
        with pytest.raises(OrderViolation):
            learn_structure([swapped], 1)
        with pytest.raises(OrderViolation):
            train_class_model([swapped], ["x"], TrainConfig(structure="learned"), np.random.default_rng(0))


class TestTrainClassModel:
    def _corpus(self, seed=0, count=14):
        rng = np.random.default_rng(seed)
        return [
            random_actions_instance(rng, int(rng.integers(2, 5)), 3, label="c")
            for _ in range(count)
        ]

    def test_produces_valid_model(self):
        corpus = self._corpus()
        model = train_class_model(
            corpus, ["x", "y", "z"], tiny_config(), np.random.default_rng(1)
        )
        model.validate()
        assert model.k_star == max(len(inst) for inst in corpus)
        assert model.ell == model.k_star
        assert model.action_vocab == ("x", "y", "z")
        assert sum(model.size_histogram.values()) == len(corpus)
        assert isinstance(model.occupied_tables, int)

    @pytest.mark.parametrize("mode", ["chain", "full", "learned"])
    def test_structure_modes(self, mode):
        corpus = self._corpus(seed=3)
        model = train_class_model(
            corpus, ["x", "y", "z"], tiny_config(structure=mode),
            np.random.default_rng(1),
        )
        k = model.k_star
        if mode == "chain":
            assert model.structure == StructureMask.chain(k)
        elif mode == "full":
            assert model.structure == StructureMask.full(k)
        else:
            assert all(j < k for _, j in model.structure.links)

    def test_full_structure_phi_is_float_tuples(self):
        model = train_class_model(
            self._corpus(seed=3), ["x", "y", "z"], tiny_config(structure="full"),
            np.random.default_rng(1),
        )
        assert model.phi and phi_is_float_tuples(model)

    def test_single_instance_trains(self):
        model = train_class_model(
            [make_instance((1, 0, 1), (2, 2, 3))],
            ["x", "y"],
            tiny_config(),
            np.random.default_rng(0),
        )
        model.validate()
        assert model.k_star == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_class_model([], ["x"], tiny_config(), np.random.default_rng(0))

    def test_empty_instances_filtered(self):
        corpus = [Instance(label=None, intervals=()), make_instance((1, 0, 1))]
        model = train_class_model(
            corpus, ["x"], tiny_config(), np.random.default_rng(0)
        )
        assert model.size_histogram == {1: 1}
        with pytest.raises(EmptyCorpus):
            train_class_model(
                [Instance(label=None, intervals=())],
                ["x"],
                tiny_config(),
                np.random.default_rng(0),
            )


class TestTrainBundle:
    def test_jobs_capped_at_class_count(self, monkeypatch, tmp_path):
        """A pool gets one worker per class at most; no real process starts."""
        import concurrent.futures

        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        corpus = build_synthetic_corpus(two_class_models(), 3, seed=1)
        save_bundle(tmp_path / "pool.json", train_bundle(corpus, tiny_config(), [0], jobs=64))
        save_bundle(tmp_path / "serial.json", train_bundle(corpus, tiny_config(), [0], jobs=1))
        assert seen == [2]
        assert (tmp_path / "pool.json").read_bytes() == (tmp_path / "serial.json").read_bytes()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_training(self, monkeypatch, jobs):
        monkeypatch.setattr(learning, "_fit_class", lambda payload: pytest.fail("trained a class"))
        corpus = build_synthetic_corpus(two_class_models(), 3, seed=1)
        with pytest.raises(ConfigInvalid, match=f"^jobs must be at least 1, got {jobs}$"):
            train_bundle(corpus, tiny_config(), [0], jobs=jobs)
