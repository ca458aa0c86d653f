"""Self time and span structure of the benchmark's tracer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import anonqnet.protocols
import anonqnet.qcore
from tracer import COMMAND, Span, Tracer, install, self_times, uninstall


def test_self_time_subtracts_nested_children():
    spans = [Span(1, "a", None, 7, 0.0, 10.0, 1),
             Span(2, "b", 1, 7, 2.0, 5.0, 1),
             Span(3, "c", 2, 7, 3.0, 4.0, 1),
             Span(4, "d", 1, 7, 6.0, 7.0, 1)]
    assert self_times(spans) == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_with_children_on_two_threads_counts_their_union():
    # a command waiting on two pool threads whose tasks overlap in time
    spans = [Span(1, "cmd", None, 1, 0.0, 10.0, 1),
             Span(2, "task", 1, 2, 1.0, 6.0, 1),
             Span(3, "task", 1, 3, 3.0, 8.0, 1),
             Span(4, "leaf", 2, 2, 2.0, 3.0, 1),
             Span(5, "late", 1, 3, 9.0, 12.0, 1)]  # clipped at the end of 1
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert got[2] == pytest.approx(4.0)
    assert got[3] == pytest.approx(5.0)


def test_pool_spans_hang_under_the_command_and_share_its_id():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.command("sweep") as cid:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(outer, range(4))) == [2, 4, 6, 8]
    spans = tracer.drain()
    assert tracer.spans == []
    by_id = {s.id: s for s in spans}
    assert {s.command for s in spans} == {cid}
    assert by_id[cid].name == COMMAND and by_id[cid].value == "sweep"
    for s in spans:
        if s.name == "outer":
            assert s.parent == cid
        elif s.name == "inner":
            assert by_id[s.parent].name == "outer"
            assert by_id[s.parent].thread == s.thread
    main = threading.get_ident()
    assert by_id[cid].thread == main
    assert all(s.thread != main for s in spans if s.name != COMMAND)


def test_install_patches_every_module_that_reimports_a_name():
    original = anonqnet.qcore.apply_op_dense
    assert anonqnet.protocols.apply_op_dense is original
    undo = install(Tracer())
    try:
        wrapped = anonqnet.qcore.apply_op_dense
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert anonqnet.protocols.apply_op_dense is wrapped
        assert hasattr(anonqnet.qcore.DensityMatrix.__post_init__, "__wrapped__")
    finally:
        uninstall(undo)
    assert anonqnet.qcore.apply_op_dense is original
    assert anonqnet.protocols.apply_op_dense is original
