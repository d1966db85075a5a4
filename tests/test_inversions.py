"""Each public threshold call inverts the alpha tail exactly once.

T_nu^{-1}(1 - alpha) is formed as -T_nu^{-1}(alpha), so the call asks for
p = alpha itself and tiny alpha keeps its bits.
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


@pytest.fixture
def inverted(monkeypatch):
    """The p of every t_quantile call, through whichever module binding."""
    calls = []
    t_quantile = special.t_quantile

    def counted(p, nu):
        calls.append(p)
        return t_quantile(p, nu)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "distnull" and hasattr(module, "t_quantile"):
            monkeypatch.setattr(module, "t_quantile", counted)
    return calls


@pytest.mark.parametrize("name", sorted(CALLS))
def test_one_alpha_inversion_per_call(name, inverted):
    CALLS[name]()
    assert inverted.count(ALPHA) == 1


@pytest.mark.parametrize("t1, outcome", [(8.0, QInterval), (1.0, NoSolution)])
def test_q_interval_inverts_each_quantile_once(t1, outcome, inverted):
    assert isinstance(criterion.q_interval(t1, CRITERIA, NU, N), outcome)
    assert sorted(inverted) == [ALPHA, CRITERIA.beta]
