"""Theorem 1 / Figure 17: the Price of Anarchy for CONGA is 2.

CONGA's uncoordinated leaf decisions form a bottleneck routing game [6].
Theorem 1: in Leaf-Spine networks the worst-case ratio between a Nash
flow's network bottleneck and the optimal bottleneck is exactly 2.  This
benchmark

* evaluates the worst-case gadget (a locked Nash at bottleneck 1 against an
  optimum of 1/2, attaining PoA = 2);
* verifies the upper bound over random asymmetric instances solved by
  best-response dynamics from adversarial random starting points;
* shows that from CONGA's natural starting point (even splits), dynamics
  land at the *good* equilibrium — which is why the paper says practice is
  "much closer to optimal" than the worst case.
"""

import numpy as np
import pytest
from conftest import report

from repro.theory import BottleneckGame, GameUser, figure17_gadget


def _run():
    game, nash = figure17_gadget()
    gadget = {
        "nash_bottleneck": game.network_bottleneck(nash),
        "optimal_bottleneck": game.optimal_bottleneck(),
        "poa": game.price_of_anarchy(nash),
        "is_nash": game.is_nash(nash),
    }
    natural = game.best_response_dynamics()
    gadget["natural_dynamics_bottleneck"] = game.network_bottleneck(natural)

    rng = np.random.default_rng(123)
    random_poas = []
    for _ in range(20):
        leaves = int(rng.integers(2, 4))
        spines = int(rng.integers(2, 4))
        up = rng.uniform(0.5, 2.0, size=(leaves, spines))
        down = rng.uniform(0.5, 2.0, size=(spines, leaves))
        users = []
        for _ in range(int(rng.integers(1, 5))):
            src, dst = rng.choice(leaves, size=2, replace=False)
            users.append(GameUser(int(src), int(dst), float(rng.uniform(0.2, 2.0))))
        game_r = BottleneckGame(up, down, users)
        start = np.zeros((len(users), spines))
        for index, user in enumerate(users):
            weights = rng.uniform(0.05, 1.0, size=spines)
            start[index] = user.demand * weights / weights.sum()
        nash_r = game_r.best_response_dynamics(start=start)
        random_poas.append(game_r.price_of_anarchy(nash_r))
    return gadget, np.array(random_poas)


def test_theorem1_price_of_anarchy():
    gadget, random_poas = _run()
    report(
        "Theorem 1 / Figure 17: Price of Anarchy",
        ["quantity", "paper", "measured"],
        [
            ["worst-case gadget B(Nash)", "1", gadget["nash_bottleneck"]],
            ["worst-case gadget B(opt)", "1/2", gadget["optimal_bottleneck"]],
            ["worst-case gadget PoA", "2", gadget["poa"]],
            ["gadget flow is Nash", "yes", gadget["is_nash"]],
            [
                "dynamics from even split",
                "near-optimal",
                gadget["natural_dynamics_bottleneck"],
            ],
            ["random instances: max PoA", "<= 2", float(random_poas.max())],
            ["random instances: mean PoA", "close to 1", float(random_poas.mean())],
        ],
    )
    assert gadget["is_nash"]
    assert gadget["poa"] == pytest.approx(2.0, abs=1e-6)
    assert random_poas.max() <= 2.0 + 1e-6
    # Typical-case near-optimality (the paper's practical claim).
    assert random_poas.mean() < 1.2
