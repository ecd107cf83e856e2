"""Machine topology: sockets, physical cores, SMT hardware threads.

Follows the paper's terminology (§1, Terminology): a "core" is a hardware
thread; two hardware threads sharing a physical core are "hyperthreads" of
each other; all cores sharing a last-level cache are "on the same die".  On
every machine in the paper a die coincides with a socket.

CPU numbering mirrors Linux on the Intel testbed: hardware threads
``0 .. S*C-1`` are the first thread of each physical core, socket-major, and
threads ``S*C .. 2*S*C-1`` are their SMT siblings in the same order.  E.g. on
the 2-socket 6130 (2x16x2): cpus 0-15 are socket 0, 16-31 socket 1, 32-47 the
socket-0 siblings, 48-63 the socket-1 siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class Topology:
    """Immutable description of the processor layout.

    This is the only module that knows the cpu numbering: the kernel, the
    frequency and energy models, the scheduling domains and the policies
    read the tables below instead of re-deriving ids.
    """

    n_sockets: int
    cores_per_socket: int       # physical cores per socket
    smt: int = 2                # hardware threads per physical core

    #: Derived counts and tables, built once in ``__post_init__``: these are
    #: read in the simulator's innermost loops, where a property or
    #: validated method call per read is measurable.  ``compare=False``
    #: keeps them out of ``eq``/``hash``/``repr``.
    n_physical_cores: int = field(init=False, repr=False, compare=False)
    n_cpus: int = field(init=False, repr=False, compare=False)
    #: Per cpu: its physical core, its socket (== die) and its SMT sibling
    #: (itself on SMT1), and the sorted cpus of its die.
    pc_of_cpu: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    die_of_cpu: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    sibling_of_cpu: Tuple[int, ...] = field(init=False, repr=False,
                                            compare=False)
    die_span_of_cpu: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)
    #: Per physical core: its hardware threads (ascending, thread 0 first)
    #: and its socket.
    threads_of_pc: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)
    socket_of_pc: Tuple[int, ...] = field(init=False, repr=False,
                                          compare=False)
    #: Per socket: its sorted cpus and its physical cores.
    cpus_of_socket: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)
    pcs_of_socket: Tuple[range, ...] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self) -> None:
        if self.n_sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("topology must have at least one core")
        if self.smt not in (1, 2):
            raise ValueError("only SMT1 and SMT2 are modelled")
        cps = self.cores_per_socket
        npc = self.n_sockets * cps
        pcs_of_socket = tuple(range(s * cps, (s + 1) * cps)
                              for s in range(self.n_sockets))
        threads_of_pc = tuple(tuple(pc + t * npc for t in range(self.smt))
                              for pc in range(npc))
        socket_of_pc = tuple(pc // cps for pc in range(npc))
        cpus_of_socket = tuple(
            tuple(sorted(c for pc in pcs for c in threads_of_pc[pc]))
            for pcs in pcs_of_socket)
        pc_of_cpu = tuple(c % npc for c in range(npc * self.smt))
        die_of_cpu = tuple(socket_of_pc[pc] for pc in pc_of_cpu)
        sibling_of_cpu = tuple(
            threads_of_pc[pc][-1] if c == threads_of_pc[pc][0]
            else threads_of_pc[pc][0]
            for c, pc in enumerate(pc_of_cpu))
        tables = dict(
            n_physical_cores=npc, n_cpus=npc * self.smt,
            pc_of_cpu=pc_of_cpu, die_of_cpu=die_of_cpu,
            sibling_of_cpu=sibling_of_cpu,
            die_span_of_cpu=tuple(cpus_of_socket[d] for d in die_of_cpu),
            threads_of_pc=threads_of_pc, socket_of_pc=socket_of_pc,
            cpus_of_socket=cpus_of_socket, pcs_of_socket=pcs_of_socket)
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    # ---- per-cpu lookups --------------------------------------------------

    def socket_of(self, cpu: int) -> int:
        self._check(cpu)
        return self.die_of_cpu[cpu]

    def physical_core_of(self, cpu: int) -> int:
        """Physical-core index in [0, n_physical_cores)."""
        self._check(cpu)
        return self.pc_of_cpu[cpu]

    def thread_of(self, cpu: int) -> int:
        """SMT thread index (0 or 1) of this hardware thread."""
        return self.smt_siblings(cpu).index(cpu)

    def sibling_of(self, cpu: int) -> int:
        """The other hardware thread on the same physical core.

        On SMT1 machines a cpu is its own sibling (matching the kernel's
        cpu_smt_mask semantics of a singleton mask).
        """
        self._check(cpu)
        return self.sibling_of_cpu[cpu]

    def die_of(self, cpu: int) -> int:
        """Die index (== socket on all modelled machines)."""
        return self.socket_of(cpu)

    # ---- group enumerations ----------------------------------------------

    def cpus_in_socket(self, socket: int) -> List[int]:
        if not 0 <= socket < self.n_sockets:
            raise ValueError(f"bad socket {socket}")
        return list(self.cpus_of_socket[socket])

    def smt_siblings(self, cpu: int) -> Tuple[int, ...]:
        """All hardware threads of the physical core containing ``cpu``."""
        self._check(cpu)
        return self.threads_of_pc[self.pc_of_cpu[cpu]]

    def all_cpus(self) -> List[int]:
        return list(range(self.n_cpus))

    def sockets(self) -> List[int]:
        return list(range(self.n_sockets))

    def _check(self, cpu: int) -> None:
        if not 0 <= cpu < self.n_cpus:
            raise ValueError(f"bad cpu {cpu} (n_cpus={self.n_cpus})")

    def describe(self) -> str:
        return (f"{self.n_sockets}x{self.cores_per_socket}x{self.smt} = "
                f"{self.n_cpus} hardware threads")
