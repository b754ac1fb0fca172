"""Unit tests for the search coordinator (against a fake host)."""


from repro.core.search import SearchCoordinator
from tests.conftest import cycles_left_by


class TestRounds:
    def test_begin_forwards_to_a_random_member(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        assert len(search_host.sent) == 1
        dst, request = search_host.sent[0]
        assert dst != search_host.node_id
        assert dst in search_host.members
        assert request.seq == 1
        assert request.waiters == (42,)
        assert request.forwarder == search_host.node_id

    def test_timeout_triggers_next_round(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        sim.run(until=search_host.rtt + 1.0)
        assert len(search_host.sent) == 2

    def test_rounds_keep_repeating_until_stopped(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        sim.run(until=55.0)  # RTT=10 -> rounds at 0,10,20,30,40,50
        assert len(search_host.sent) == 6

    def test_timer_scales_with_timer_factor(self, sim, search_host):
        coordinator = SearchCoordinator(search_host, timer_factor=2.0)
        coordinator.begin(1, [42])
        sim.run(until=15.0)  # 2*RTT = 20ms per round: no retry yet
        assert len(search_host.sent) == 1

    def test_max_rounds_abandons(self, sim, search_host, trace):
        coordinator = SearchCoordinator(search_host, max_rounds=3)
        coordinator.begin(1, [42])
        sim.run(until=500.0)
        assert len(search_host.sent) == 3
        assert trace.count("search_abandoned") == 1
        assert not coordinator.is_searching(1)

    def test_single_member_region_idles(self, sim, trace):
        from tests.conftest import FakeSearchHost
        host = FakeSearchHost(sim, trace, node_id=0, members=[0])
        coordinator = SearchCoordinator(host)
        coordinator.begin(1, [42])
        sim.run()
        assert host.sent == []


class TestTermination:
    def test_have_reply_stops_search(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        sim.at(5.0, coordinator.on_have_reply, 1)
        sim.run(until=100.0)
        assert len(search_host.sent) == 1  # no retries after the reply
        assert not coordinator.is_searching(1)

    def test_resolve_returns_waiters(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42, 17])
        waiters = coordinator.resolve(1)
        assert waiters == (17, 42)
        assert not coordinator.is_searching(1)

    def test_resolve_unknown_seq_returns_empty(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        assert coordinator.resolve(99) == ()

    def test_close_stops_everything(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        coordinator.begin(2, [43])
        coordinator.close()
        sim.run(until=100.0)
        assert len(search_host.sent) == 2  # only the initial forwards
        assert coordinator.active_seqs() == []


    def test_a_finished_search_leaves_no_reference_cycle(self, sim, search_host):
        """The round clock holds the process's bound method; a stopped
        process drops it, so it dies by reference count, and a second
        stop is a no-op."""
        coordinator = SearchCoordinator(search_host)

        def search():
            coordinator.begin(1, [42])
            process = coordinator._active[1]
            sim.at(5.0, coordinator.on_have_reply, 1)
            sim.run(until=100.0)
            process.stop()

        assert cycles_left_by(search) == 0
        assert not coordinator.is_searching(1)


class TestWaiterMerging:
    def test_begin_merges_waiters_without_new_round(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        coordinator.begin(1, [43])
        assert len(search_host.sent) == 1  # no duplicate immediate round
        assert coordinator.waiters_for(1) == {42, 43}

    def test_later_rounds_carry_merged_waiters(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        coordinator.begin(1, [43])
        sim.run(until=11.0)
        _dst, request = search_host.sent[-1]
        assert request.waiters == (42, 43)

    def test_rounds_resend_one_request_while_the_waiters_stay(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        coordinator.begin(1, [42])  # a merge that adds nobody
        sim.run(until=35.0)  # rounds at 0, 10, 20, 30
        requests = [request for _dst, request in search_host.sent]
        assert len(requests) == 4
        assert all(request is requests[0] for request in requests)

    def test_a_merged_waiter_rides_the_very_next_round(self, sim, search_host):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        sim.run(until=15.0)  # rounds at 0 and 10
        coordinator.begin(1, [7])
        sim.run(until=25.0)  # the round at 20
        waiters = [request.waiters for _dst, request in search_host.sent]
        assert waiters == [(42,), (42,), (7, 42)]

    def test_trace_search_joined(self, sim, search_host, trace):
        coordinator = SearchCoordinator(search_host)
        coordinator.begin(1, [42])
        assert trace.count("search_joined") == 1
        coordinator.begin(1, [43])  # merge, not a new join
        assert trace.count("search_joined") == 1
