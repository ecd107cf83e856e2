"""Linux-style scheduling domains built from the machine topology.

Each CPU is associated with a stack of domains, lowest to highest:

* **SMT** — the hardware threads of its physical core (only on SMT2 machines);
* **MC** (the paper's "die") — every CPU sharing the last-level cache, i.e.
  the socket on all modelled machines;
* **NUMA** — every CPU in the machine (only on multi-socket machines).

Each domain has *groups*: one per child-domain unit.  The CFS fork path walks
down from the highest domain, picking the idlest group at each level (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from ..hw.topology import Topology


@dataclass(frozen=True)
class Domain:
    """One scheduling domain seen from a particular CPU."""

    name: str                      # "SMT", "MC" or "NUMA"
    level: int                     # 0 = lowest
    span: Tuple[int, ...]          # all CPUs in the domain
    groups: Tuple[Tuple[int, ...], ...]  # partition of span


#: Per-cpu domain stacks, lowest level first.
Stacks = Tuple[Tuple[Domain, ...], ...]


class DomainHierarchy:
    """Per-CPU domain stacks for one machine.

    The stacks are a pure function of the (frozen) topology, so every
    hierarchy on the same topology shares one set of immutable tuples.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._per_cpu = _build(topology)

    def domains_of(self, cpu: int) -> Tuple[Domain, ...]:
        """Domain stack for ``cpu``, lowest level first."""
        return self._per_cpu[cpu]


@lru_cache(maxsize=64)
def _build(topo: Topology) -> Stacks:
    """The per-cpu stacks of ``topo``.

    Memoized: a sweep builds a kernel per run on a handful of machines.
    The MC span of a cpu is the topology's own die-span tuple.
    """
    smt = topo.smt == 2
    smt_domains = {}        # physical core -> its SMT domain
    mc_domains = []         # socket -> its MC domain, built once
    for span, pcs in zip(topo.cpus_of_socket, topo.pcs_of_socket):
        groups = tuple(topo.threads_of_pc[pc] for pc in pcs)
        if smt:
            for pc, sibs in zip(pcs, groups):
                smt_domains[pc] = Domain(name="SMT", level=0, span=sibs,
                                         groups=tuple((s,) for s in sibs))
        mc_domains.append(Domain(name="MC", level=1 if smt else 0,
                                 span=span, groups=groups))
    numa = None
    if topo.n_sockets > 1:
        numa = Domain(name="NUMA", level=2 if smt else 1,
                      span=tuple(range(topo.n_cpus)),
                      groups=topo.cpus_of_socket)

    stacks = []
    for cpu in range(topo.n_cpus):
        stack = []
        if smt:
            stack.append(smt_domains[topo.pc_of_cpu[cpu]])
        stack.append(mc_domains[topo.die_of_cpu[cpu]])
        if numa is not None:
            stack.append(numa)
        stacks.append(tuple(stack))
    return tuple(stacks)
