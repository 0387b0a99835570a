"""Tests for the bottleneck routing game (Thm. 1) and imbalance model (Thm. 2)."""

import numpy as np
import pytest

from repro.theory import (
    BottleneckGame,
    GameUser,
    ImbalanceEstimate,
    complete_leaf_spine_game,
    effective_rate,
    figure17_gadget,
    flowlet_split_sampler,
    imbalance_bound,
    sampler_from_distribution,
    simulate_imbalance,
)
from repro.workloads import DATA_MINING, WEB_SEARCH


class TestGameBasics:
    def _simple_game(self):
        return complete_leaf_spine_game(
            2, 2, [GameUser(0, 1, 1.0)], up_capacity=1.0, down_capacity=1.0
        )

    def test_validate_flows(self):
        game = self._simple_game()
        flows = np.array([[0.5, 0.5]])
        assert game.validate_flows(flows) is not None
        with pytest.raises(ValueError):
            game.validate_flows(np.array([[0.4, 0.4]]))  # demand unmet
        with pytest.raises(ValueError):
            game.validate_flows(np.array([[1.5, -0.5]]))  # negative

    def test_network_bottleneck(self):
        game = self._simple_game()
        assert game.network_bottleneck(np.array([[1.0, 0.0]])) == pytest.approx(1.0)
        assert game.network_bottleneck(np.array([[0.5, 0.5]])) == pytest.approx(0.5)

    def test_user_bottleneck_counts_only_used_links(self):
        game = complete_leaf_spine_game(
            2, 2, [GameUser(0, 1, 1.0), GameUser(0, 1, 1.0)]
        )
        flows = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert game.user_bottleneck(flows, 0) == pytest.approx(1.0)

    def test_best_response_spreads_single_user(self):
        game = self._simple_game()
        vector, bottleneck = game.best_response(np.array([[1.0, 0.0]]), 0)
        assert bottleneck == pytest.approx(0.5)
        assert vector == pytest.approx([0.5, 0.5])

    def test_optimal_bottleneck_single_user(self):
        assert self._simple_game().optimal_bottleneck() == pytest.approx(0.5)

    def test_user_validation(self):
        with pytest.raises(ValueError):
            GameUser(0, 0, 1.0)
        with pytest.raises(ValueError):
            GameUser(0, 1, 0.0)

    def test_game_validation(self):
        with pytest.raises(ValueError):
            BottleneckGame(np.ones((2, 2)), np.ones((3, 3)), [GameUser(0, 1, 1.0)])
        with pytest.raises(ValueError):
            complete_leaf_spine_game(2, 2, [])
        with pytest.raises(ValueError):
            complete_leaf_spine_game(2, 2, [GameUser(0, 5, 1.0)])

    def test_missing_link_not_usable(self):
        up = np.array([[1.0, 0.0]])  # leaf 0 only reaches spine 0
        down = np.array([[0.0, 1.0], [0.0, 1.0]])
        # one leaf? need 2 leaves: up shape (2, 2)
        up = np.array([[1.0, 0.0], [1.0, 1.0]])
        down = np.array([[1.0, 1.0], [1.0, 1.0]])
        game = BottleneckGame(up, down, [GameUser(0, 1, 1.0)])
        with pytest.raises(ValueError):
            game.validate_flows(np.array([[0.0, 1.0]]))


class TestNashAndPoa:
    def test_figure17_nash_bottleneck_is_one(self):
        game, nash = figure17_gadget()
        assert game.network_bottleneck(nash) == pytest.approx(1.0)

    def test_figure17_flow_is_nash(self):
        game, nash = figure17_gadget()
        assert game.is_nash(nash)

    def test_figure17_optimal_is_half(self):
        game, _nash = figure17_gadget()
        assert game.optimal_bottleneck() == pytest.approx(0.5)

    def test_figure17_poa_is_exactly_two(self):
        """Theorem 1: the Price of Anarchy bound of 2 is attained."""
        game, nash = figure17_gadget()
        assert game.price_of_anarchy(nash) == pytest.approx(2.0)

    def test_best_response_dynamics_reaches_nash(self):
        game, _ = figure17_gadget()
        flows = game.best_response_dynamics()
        assert game.is_nash(flows)

    def test_best_response_dynamics_from_even_split_is_optimal_here(self):
        """Starting from even splits (CONGA's initial state), dynamics stay
        at the good equilibrium — the worst case needs an adversarial start."""
        game, _ = figure17_gadget()
        flows = game.best_response_dynamics()
        assert game.network_bottleneck(flows) <= 1.0

    def test_symmetric_network_poa_is_one(self):
        users = [GameUser(0, 1, 1.0), GameUser(1, 0, 1.0)]
        game = complete_leaf_spine_game(2, 3, users)
        nash = game.best_response_dynamics()
        assert game.is_nash(nash)
        assert game.price_of_anarchy(nash) == pytest.approx(1.0, abs=1e-6)

    def test_poa_never_exceeds_two_on_random_instances(self):
        """Theorem 1's upper bound, checked over random games and
        best-response Nash flows from random starting points."""
        rng = np.random.default_rng(0)
        for trial in range(10):
            num_leaves = int(rng.integers(2, 4))
            num_spines = int(rng.integers(2, 4))
            up = rng.uniform(0.5, 2.0, size=(num_leaves, num_spines))
            down = rng.uniform(0.5, 2.0, size=(num_spines, num_leaves))
            users = []
            for _ in range(int(rng.integers(1, 5))):
                src, dst = rng.choice(num_leaves, size=2, replace=False)
                users.append(GameUser(int(src), int(dst), float(rng.uniform(0.2, 2.0))))
            game = BottleneckGame(up, down, users)
            start = np.zeros((len(users), num_spines))
            for index, user in enumerate(users):
                weights = rng.uniform(0.05, 1.0, size=num_spines)
                weights /= weights.sum()
                start[index] = user.demand * weights
            nash = game.best_response_dynamics(start=start)
            assert game.is_nash(nash)
            assert game.price_of_anarchy(nash) <= 2.0 + 1e-6

    def test_nash_not_worse_after_improvement_step(self):
        game, nash = figure17_gadget()
        improved = game.best_response_dynamics(start=nash)
        # A locked Nash cannot be improved by best responses.
        assert game.network_bottleneck(improved) == pytest.approx(1.0)


class TestTheorem2:
    def test_effective_rate_formula(self):
        # lambda_e = lambda / (8 n log n (1 + cov^2))
        value = effective_rate(100.0, 4, 1000.0, 1.0)
        expected = 100.0 / (8 * 4 * np.log(4) * 2.0)
        assert value == pytest.approx(expected)

    def test_bound_decays_like_sqrt_t(self):
        b1 = imbalance_bound(100.0, 4, 1000.0, 1.0, t=10.0)
        b2 = imbalance_bound(100.0, 4, 1000.0, 1.0, t=40.0)
        assert b2 == pytest.approx(b1 / 2.0)

    def test_higher_cov_weakens_bound(self):
        light = imbalance_bound(100.0, 4, 1000.0, 0.5, t=10.0)
        heavy = imbalance_bound(100.0, 4, 1000.0, 5.0, t=10.0)
        assert heavy > light

    def test_simulation_respects_bound_exponential_sizes(self):
        sampler = lambda rng, n: rng.exponential(1000.0, size=n)
        estimate = simulate_imbalance(
            arrival_rate=200.0, num_links=4, mean_size=1000.0, cov=1.0,
            t=50.0, sampler=sampler, trials=100, seed=3,
        )
        assert estimate.mean_imbalance <= estimate.bound + 3 * estimate.std_error

    def test_simulation_respects_bound_for_workloads(self):
        for dist in (WEB_SEARCH, DATA_MINING):
            estimate = simulate_imbalance(
                arrival_rate=500.0,
                num_links=4,
                mean_size=dist.mean(),
                cov=dist.coefficient_of_variation(),
                t=20.0,
                sampler=sampler_from_distribution(dist),
                trials=60,
                seed=4,
            )
            assert estimate.mean_imbalance <= estimate.bound + 3 * estimate.std_error

    def test_imbalance_decays_with_time(self):
        sampler = lambda rng, n: rng.exponential(1000.0, size=n)
        short = simulate_imbalance(
            arrival_rate=200.0, num_links=4, mean_size=1000.0, cov=1.0,
            t=5.0, sampler=sampler, trials=100, seed=5,
        )
        long = simulate_imbalance(
            arrival_rate=200.0, num_links=4, mean_size=1000.0, cov=1.0,
            t=80.0, sampler=sampler, trials=100, seed=5,
        )
        assert long.mean_imbalance < short.mean_imbalance

    def test_heavier_workload_balances_worse(self):
        """6.2: CoV drives imbalance — data-mining worse than web-search."""
        results = {}
        for dist in (WEB_SEARCH, DATA_MINING):
            estimate = simulate_imbalance(
                arrival_rate=500.0,
                num_links=4,
                mean_size=dist.mean(),
                cov=dist.coefficient_of_variation(),
                t=30.0,
                sampler=sampler_from_distribution(dist),
                trials=80,
                seed=6,
            )
            results[dist.name] = estimate.mean_imbalance
        assert results["data-mining"] > results["web-search"]

    def test_flowlet_splitting_improves_balance(self):
        """Splitting flows into <=500KB pieces slashes the imbalance,
        which is the theoretical story behind flowlet switching."""
        base = sampler_from_distribution(DATA_MINING)
        whole = simulate_imbalance(
            arrival_rate=300.0, num_links=4,
            mean_size=DATA_MINING.mean(),
            cov=DATA_MINING.coefficient_of_variation(),
            t=30.0, sampler=base, trials=60, seed=7,
        )
        split = simulate_imbalance(
            arrival_rate=300.0, num_links=4,
            mean_size=DATA_MINING.mean(),
            cov=DATA_MINING.coefficient_of_variation(),
            t=30.0, sampler=flowlet_split_sampler(base, 500_000.0),
            trials=60, seed=7,
        )
        assert split.mean_imbalance < 0.5 * whole.mean_imbalance

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_rate(0.0, 4, 100.0, 1.0)
        with pytest.raises(ValueError):
            imbalance_bound(1.0, 4, 100.0, 1.0, t=0.0)
        with pytest.raises(ValueError):
            simulate_imbalance(
                arrival_rate=1.0, num_links=4, mean_size=100.0, cov=1.0,
                t=1.0, sampler=lambda r, n: np.ones(n), trials=1,
            )
