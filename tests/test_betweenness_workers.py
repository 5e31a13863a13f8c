"""Betweenness shared among forked workers: equal bits, no process left behind."""

from __future__ import annotations

import builtins
import os
import random
import threading
from itertools import repeat

import pytest

from influnet import DirectedGraph, betweenness_centrality
from influnet import centrality
from influnet.centrality import _BLOCK, _betweenness_acc, _brandes, _processes

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from strategies import sparse_digraphs  # noqa: E402

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> list[str] | None:
    """This process's open file descriptors where /proc lists them (Linux), else None."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def whole_range(adj: tuple[tuple[int, ...], ...]) -> list[float]:
    """One kernel call over every source into one row: the bits any process count must give."""
    acc = [0.0] * len(adj)
    _brandes(adj, range(len(adj)), repeat(acc))
    return acc


def random_graph(rng: random.Random, n: int, p: float, gap: int = 1) -> DirectedGraph:
    arcs = [(gap * u, gap * v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return DirectedGraph(arcs, nodes=(gap * v for v in range(n)))


@PROPERTY
@given(sparse_digraphs(), st.sampled_from([1, 2, 3]))
def test_workers_return_the_one_process_bits(g, processes):
    one = whole_range(g.out)
    assert _betweenness_acc(g.out, processes) == one
    assert_no_child_left()


@pytest.mark.parametrize(
    "n, processes",
    [
        (_BLOCK - 3, 2),  # below one block: nothing to share
        (_BLOCK, 3),  # exactly one block
        (2 * _BLOCK + 3, 2),  # not a multiple of the block
        (2 * _BLOCK - 1, 3),  # more workers than blocks
        (7 * _BLOCK + 5, 3),  # several blocks per worker
    ],
)
def test_block_edges_return_the_one_process_bits(n, processes):
    g = random_graph(random.Random(n), n, 0.15, gap=7)
    assert _betweenness_acc(g.out, processes) == whole_range(g.out)
    assert_no_child_left()


def test_unreachable_pairs_and_isolated_node_return_the_one_process_bits():
    rng = random.Random(3)
    arcs = [(10 * u, 10 * v) for u in range(30) for v in range(30) if u != v and rng.random() < 0.1]
    arcs += [(1000 + u, 1000 + u + 1) for u in range(20)]  # a second, acyclic component
    g = DirectedGraph(arcs, nodes=[555])
    one = whole_range(g.out)
    assert _betweenness_acc(g.out, 1) == one
    assert _betweenness_acc(g.out, 2) == one
    assert _betweenness_acc(g.out, 3) == one
    assert_no_child_left()


def test_blocks_larger_than_the_default_pipe_return_the_one_process_bits():
    # A block of 8 rows of 1,100 float64 is 70,400 bytes, more than the
    # 64-KiB default pipe holds, so each worker blocks partway through a
    # block until the parent reads it.
    n = 1_100
    assert _BLOCK * n * 8 > 1 << 16
    arcs = [(v, (v + 1) % n) for v in range(n)]  # a directed ring
    arcs += [(v, (v + 317) % n) for v in range(0, n, 97)]  # and a few chords
    g = DirectedGraph(arcs)
    one = whole_range(g.out)
    fds = open_fds()
    assert _betweenness_acc(g.out, 2) == one
    assert _betweenness_acc(g.out, 3) == one
    assert_no_child_left()
    assert open_fds() == fds


def test_betweenness_centrality_forks_above_the_work_constant(monkeypatch, caplog):
    g = random_graph(random.Random(5), 60, 0.1)
    expected = {v: b for v, b in zip(g.ids, whole_range(g.out))}
    monkeypatch.setattr(centrality, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with caplog.at_level("DEBUG", logger="influnet.centrality"):
        b = betweenness_centrality(g)
    scale = 1.0 / (59 * 58)
    assert b == {v: x * scale for v, x in expected.items()}
    assert "betweenness: 60 sources over 2 processes" in caplog.text
    assert_no_child_left()


def test_one_process_below_the_work_constant():
    assert _processes(0) == 1
    assert _processes(centrality._FORK_WORK - 1) == 1


class Forked(Exception):
    pass


def test_no_fork_while_another_thread_runs(monkeypatch):
    g = random_graph(random.Random(8), 40, 0.1)
    expected = betweenness_centrality(g)

    def no_fork():
        raise Forked

    monkeypatch.setattr(centrality, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(Forked):  # alone, this graph would fork
        betweenness_centrality(g)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert betweenness_centrality(g) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_worker_dying_mid_run_raises_and_is_reaped(monkeypatch):
    g = random_graph(random.Random(11), 6 * _BLOCK, 0.1)
    parent, kernel, calls = os.getpid(), centrality._brandes, []

    def dies_on_second_block(adj, sources, rows):
        if os.getpid() != parent:
            calls.append(sources)
            if len(calls) == 2:
                os._exit(1)
        kernel(adj, sources, rows)

    monkeypatch.setattr(centrality, "_brandes", dies_on_second_block)
    fds = open_fds()
    with pytest.raises(RuntimeError, match="exited early"):
        _betweenness_acc(g.out, 2)
    assert_no_child_left()
    assert open_fds() == fds


@pytest.mark.parametrize("cut", [0, 3], ids=["half_the_rows", "mid_float"])
def test_worker_exiting_mid_block_raises_and_is_reaped(monkeypatch, cut):
    # The worker writes its first block whole, then half of its second
    # block's bytes (plus cut more, splitting a float), and exits 0.
    g = random_graph(random.Random(14), 6 * _BLOCK, 0.1)
    parent, blocks = os.getpid(), []

    class HalfSecondBlock:
        def __init__(self, fd):
            self.out = builtins.open(fd, "wb")

        def write(self, rows):
            data = rows.tobytes()
            blocks.append(rows)
            if len(blocks) == 2:
                self.out.write(data[:len(data) // 2 + cut])
                self.out.flush()
                os._exit(0)
            self.out.write(data)

        def flush(self):
            self.out.flush()

    def opens(fd, mode):
        if mode == "wb" and os.getpid() != parent:
            return HalfSecondBlock(fd)
        return builtins.open(fd, mode)

    monkeypatch.setattr(centrality, "open", opens, raising=False)
    fds = open_fds()
    with pytest.raises(RuntimeError, match=r"betweenness worker \d+ exited early"):
        _betweenness_acc(g.out, 2)
    assert_no_child_left()
    assert open_fds() == fds


def test_worker_exception_reaches_stderr_and_raises(monkeypatch, capfd):
    g = random_graph(random.Random(12), 4 * _BLOCK, 0.1)
    parent, kernel = os.getpid(), centrality._brandes

    def fails_in_worker(adj, sources, rows):
        if os.getpid() != parent:
            raise ValueError("kernel failed in the worker")
        kernel(adj, sources, rows)

    monkeypatch.setattr(centrality, "_brandes", fails_in_worker)
    with pytest.raises(RuntimeError, match="exited early"):
        _betweenness_acc(g.out, 2)
    assert "ValueError: kernel failed in the worker" in capfd.readouterr().err
    assert_no_child_left()


def test_interrupted_parent_kills_and_reaps_its_workers(monkeypatch):
    g = random_graph(random.Random(13), 8 * _BLOCK, 0.1)
    parent, kernel, calls = os.getpid(), centrality._brandes, []

    def interrupted(adj, sources, rows):
        if os.getpid() == parent:
            calls.append(sources)
            if len(calls) == 2:
                raise KeyboardInterrupt
        kernel(adj, sources, rows)

    monkeypatch.setattr(centrality, "_brandes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _betweenness_acc(g.out, 3)
    assert_no_child_left()
