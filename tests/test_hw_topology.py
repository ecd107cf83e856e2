"""Tests for the topology model."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.topology import Topology


class TestCounts:
    def test_6130_2s(self):
        t = Topology(2, 16, 2)
        assert t.n_physical_cores == 32
        assert t.n_cpus == 64

    def test_e7_4s(self):
        t = Topology(4, 20, 2)
        assert t.n_cpus == 160

    def test_smt1(self):
        t = Topology(1, 8, 1)
        assert t.n_cpus == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            Topology(0, 4)
        with pytest.raises(ValueError):
            Topology(1, 4, smt=4)


class TestNumbering:
    """Linux-style: thread-0 cpus first (socket-major), then siblings."""

    def test_socket_of_first_threads(self):
        t = Topology(2, 16, 2)
        assert t.socket_of(0) == 0
        assert t.socket_of(15) == 0
        assert t.socket_of(16) == 1
        assert t.socket_of(31) == 1

    def test_socket_of_siblings(self):
        t = Topology(2, 16, 2)
        assert t.socket_of(32) == 0
        assert t.socket_of(48) == 1

    def test_sibling_pairs(self):
        t = Topology(2, 16, 2)
        assert t.sibling_of(0) == 32
        assert t.sibling_of(32) == 0
        assert t.sibling_of(17) == 49

    def test_sibling_smt1_is_self(self):
        t = Topology(1, 4, 1)
        assert t.sibling_of(2) == 2

    def test_physical_core_shared_by_siblings(self):
        t = Topology(2, 16, 2)
        assert t.physical_core_of(5) == t.physical_core_of(37) == 5

    def test_thread_of(self):
        t = Topology(2, 16, 2)
        assert t.thread_of(5) == 0
        assert t.thread_of(37) == 1

    def test_smt_siblings(self):
        t = Topology(2, 16, 2)
        assert t.smt_siblings(37) == (5, 37)

    def test_cpus_in_socket(self):
        t = Topology(2, 2, 2)
        assert t.cpus_in_socket(0) == [0, 1, 4, 5]
        assert t.cpus_in_socket(1) == [2, 3, 6, 7]

    def test_bad_cpu_rejected(self):
        t = Topology(1, 2, 2)
        with pytest.raises(ValueError):
            t.socket_of(4)
        with pytest.raises(ValueError):
            t.cpus_in_socket(1)

    def test_die_equals_socket(self):
        t = Topology(2, 16, 2)
        for cpu in t.all_cpus():
            assert t.die_of(cpu) == t.socket_of(cpu)


@given(st.integers(1, 4), st.integers(1, 20), st.sampled_from([1, 2]))
def test_partition_properties(sockets, cores, smt):
    """Property: sockets partition the cpus; sibling is an involution on
    the same physical core and socket.  Every table agrees with its
    validated method and with the Linux numbering of the module docstring
    (thread-0 cpus socket-major, then their siblings in the same order)."""
    t = Topology(sockets, cores, smt)
    npc = sockets * cores
    seen = []
    for s in t.sockets():
        seen.extend(t.cpus_in_socket(s))
    assert sorted(seen) == t.all_cpus()
    for cpu in t.all_cpus():
        sib = t.sibling_of(cpu)
        assert t.sibling_of(sib) == cpu
        assert t.physical_core_of(sib) == t.physical_core_of(cpu)
        assert t.socket_of(sib) == t.socket_of(cpu)

        pc, socket = cpu % npc, (cpu % npc) // cores
        assert t.pc_of_cpu[cpu] == t.physical_core_of(cpu) == pc
        assert t.die_of_cpu[cpu] == t.die_of(cpu) == t.socket_of(cpu) \
            == socket
        linux_sib = cpu if smt == 1 else (cpu + npc) % (2 * npc)
        assert t.sibling_of_cpu[cpu] == sib == linux_sib
        assert t.die_span_of_cpu[cpu] == tuple(t.cpus_in_socket(socket))
        assert t.thread_of(cpu) == cpu // npc
    for pc in range(npc):
        threads = tuple(pc + k * npc for k in range(smt))
        assert t.threads_of_pc[pc] == t.smt_siblings(pc) == threads
        assert t.socket_of_pc[pc] == t.socket_of(pc) == pc // cores
    assert len(t.threads_of_pc) == len(t.socket_of_pc) == npc
    for s in t.sockets():
        first = list(range(s * cores, (s + 1) * cores))
        linux = first + [c + npc for c in first] if smt == 2 else first
        assert t.cpus_of_socket[s] == tuple(t.cpus_in_socket(s)) \
            == tuple(linux)
        assert t.pcs_of_socket[s] == range(s * cores, (s + 1) * cores)
    assert len(t.cpus_of_socket) == len(t.pcs_of_socket) == sockets
    assert all(len(table) == t.n_cpus for table in (
        t.pc_of_cpu, t.die_of_cpu, t.sibling_of_cpu, t.die_span_of_cpu))
    # The tables stay out of eq, hash and repr (result-cache keys and the
    # memoized domain stacks depend on that).
    assert t == Topology(sockets, cores, smt)
    assert hash(t) == hash((sockets, cores, smt))
    assert repr(t) == (f"Topology(n_sockets={sockets}, "
                       f"cores_per_socket={cores}, smt={smt})")
