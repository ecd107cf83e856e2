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
        self._per_cpu, self._die_span = _build(topology)

    def domains_of(self, cpu: int) -> Tuple[Domain, ...]:
        """Domain stack for ``cpu``, lowest level first."""
        return self._per_cpu[cpu]

    def top_domain(self, cpu: int) -> Domain:
        return self._per_cpu[cpu][-1]

    def llc_domain(self, cpu: int) -> Domain:
        """The die-level (last-level-cache) domain of ``cpu``."""
        for dom in self._per_cpu[cpu]:
            if dom.name == "MC":
                return dom
        raise RuntimeError("no MC domain")  # pragma: no cover

    def die_span(self, cpu: int) -> Tuple[int, ...]:
        """The CPUs sharing ``cpu``'s last-level cache (its MC span)."""
        return self._die_span[cpu]


@lru_cache(maxsize=64)
def _build(topo: Topology) -> Tuple[Stacks, Tuple[Tuple[int, ...], ...]]:
    """The per-cpu stacks and die spans of ``topo``.

    Memoized: a sweep builds a kernel per run on a handful of machines.
    """
    smt = topo.smt == 2
    machine_span = tuple(range(topo.n_cpus))
    socket_spans = tuple(tuple(sorted(topo.cpus_in_socket(s)))
                         for s in topo.sockets())
    smt_domains = {}        # physical core -> its SMT domain
    mc_domains = []         # socket -> its MC domain, built once
    for span in socket_spans:
        if smt:
            groups = []
            for c in span:
                if topo.thread_of(c) == 0:
                    sibs = tuple(sorted(topo.smt_siblings(c)))
                    groups.append(sibs)
                    smt_domains[topo.physical_core_of(c)] = Domain(
                        name="SMT", level=0, span=sibs,
                        groups=tuple((s,) for s in sibs))
            mc_groups = tuple(groups)
        else:
            mc_groups = tuple((c,) for c in span)
        mc_domains.append(Domain(name="MC", level=1 if smt else 0,
                                 span=span, groups=mc_groups))
    numa = None
    if topo.n_sockets > 1:
        numa = Domain(name="NUMA", level=2 if smt else 1, span=machine_span,
                      groups=socket_spans)

    stacks = []
    die_spans = []
    for cpu in machine_span:
        mc = mc_domains[topo.socket_of(cpu)]
        stack = []
        if smt:
            stack.append(smt_domains[topo.physical_core_of(cpu)])
        stack.append(mc)
        if numa is not None:
            stack.append(numa)
        stacks.append(tuple(stack))
        die_spans.append(mc.span)
    return tuple(stacks), tuple(die_spans)
