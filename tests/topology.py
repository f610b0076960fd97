"""The ring topology the tests share, and the order in which an aggregate sums its members."""

import numpy as np

from hvnet.network import AgentNetwork


def ring(agent_ids) -> AgentNetwork:
    """The agents of ``agent_ids`` in a ring, in that order, each joined to the next."""
    n = len(agent_ids)
    omega = np.zeros((n, n), dtype=np.int64)
    for p in range(n):
        omega[p, (p + 1) % n] = omega[(p + 1) % n, p] = 1
    np.fill_diagonal(omega, 0)
    return AgentNetwork(omega=omega, agent_ids=tuple(agent_ids))


def sorted_neighborhood(network, p) -> list[int]:
    """p's neighbors and p itself in agent-id order: the members of p's aggregate."""
    members = set(np.flatnonzero(network.omega[p]).tolist()) | {p}
    return sorted(members, key=lambda s: network.agent_ids[s])
