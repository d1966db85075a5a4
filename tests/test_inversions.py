"""Each public call does its shared work once.

A threshold call inverts the alpha tail exactly once.  T_nu^{-1}(1 - alpha)
is formed as -T_nu^{-1}(alpha), so the call asks for p = alpha itself and
tiny alpha keeps its bits.  A call that takes N checks it exactly once and
passes u = qN down, checked.
"""

import sys

import pytest

from distnull import criterion, distributional, point, special
from distnull.criterion import Criteria, NoSolution, QInterval
from distnull.distributional import DistributionalNull

ALPHA, NU, N = 0.05, 19.0, 20
NULL = DistributionalNull(0.1)
CRITERIA = Criteria(alpha=ALPHA, beta=0.8)

CALLS = {
    "point_test": lambda: point.point_test(0.5, N, NU, ALPHA),
    "dist_t_crit": lambda: distributional.dist_t_crit(ALPHA, NU, N, NULL),
    "dist_test_from_t": lambda: distributional.dist_test_from_t(2.0, NU, N, NULL, ALPHA),
    "replication_probability": lambda: distributional.replication_probability(
        2.0, ALPHA, NU, N, NULL
    ),
    "rule_of_thumb": lambda: criterion.rule_of_thumb(ALPHA, NU),
    "minimize_r": lambda: criterion.minimize_r(CRITERIA, NU, N),
    "r_crit": lambda: criterion.r_crit(CRITERIA, NU, N, 0.1),
    "t_rep": lambda: criterion.t_rep(CRITERIA, NU, N, 0.1),
}


def _first_args(monkeypatch, owner, attr):
    """The first argument of every call of ``owner.attr``, through whichever module binding."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "distnull" and hasattr(module, attr):
            monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def inverted(monkeypatch):
    """The p of every t_quantile call."""
    return _first_args(monkeypatch, special, "t_quantile")


@pytest.fixture
def n_checked(monkeypatch):
    """The n of every _check_n call."""
    return _first_args(monkeypatch, point, "_check_n")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_one_alpha_inversion_per_call(name, inverted):
    CALLS[name]()
    assert inverted.count(ALPHA) == 1


@pytest.mark.parametrize("t1, outcome", [(8.0, QInterval), (1.0, NoSolution)])
def test_q_interval_inverts_each_quantile_once(t1, outcome, inverted):
    assert isinstance(criterion.q_interval(t1, CRITERIA, NU, N), outcome)
    assert sorted(inverted) == [ALPHA, CRITERIA.beta]


N_TAKERS = {
    "point_p_value": lambda: point.point_p_value(0.5, N, NU),
    "point_z_crit": lambda: point.point_z_crit(ALPHA, N, NU),
    "point_test": lambda: point.point_test(0.5, N, NU, ALPHA),
    "dist_p_value": lambda: distributional.dist_p_value(2.0, NU, N, NULL),
    "dist_t_crit": lambda: distributional.dist_t_crit(ALPHA, NU, N, NULL),
    "dist_z_crit": lambda: distributional.dist_z_crit(ALPHA, NU, N, NULL),
    "dist_test_from_t": lambda: distributional.dist_test_from_t(2.0, NU, N, NULL, ALPHA),
    "replication_probability": lambda: distributional.replication_probability(
        2.0, ALPHA, NU, N, NULL
    ),
    "posterior_update": lambda: distributional.posterior_update(1.5, N, NULL),
    "r_crit": lambda: criterion.r_crit(CRITERIA, NU, N, 0.1),
    "r_curve": lambda: criterion.r_curve(CRITERIA, NU, N, [0.1] * 1000),  # once, not per q
    "minimize_r": lambda: criterion.minimize_r(CRITERIA, NU, N),
    "q_interval": lambda: criterion.q_interval(8.0, CRITERIA, NU, N),
}


@pytest.mark.parametrize("name", sorted(N_TAKERS))
def test_one_n_check_per_call(name, n_checked):
    N_TAKERS[name]()
    assert n_checked == [N]
