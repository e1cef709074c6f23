"""Unit tests for the NIC/switch model and the RPC transport."""

import gc

import pytest

from repro.cluster.nic import Network, NetworkSpec, Nic
from repro.cluster.topology import (AsyncCall, Cluster, ClusterSpec,
                                    DeadlineExceeded, DeadNodeError,
                                    RpcTimeout, _disarmed)
from repro.sim.kernel import AllOf, Environment, Interrupt, Process
from repro.sim.rng import RngRegistry


class TestNic:
    def test_transit_time_has_floor_and_bandwidth_term(self, env, rngs):
        spec = NetworkSpec(latency_tail=0.0, latency_floor=1.0)
        network = Network(env, spec, rngs.stream("net"))
        a, b = Nic(env, spec), Nic(env, spec)

        def send(env, size):
            start = env.now
            yield from network.transit(a, b, size)
            return env.now - start

        small = env.run(until=env.process(send(env, 100)))
        env2 = Environment()
        network2 = Network(env2, spec, rngs.stream("net2"))
        c, d = Nic(env2, spec), Nic(env2, spec)

        def send2(env2, size):
            start = env2.now
            yield from network2.transit(c, d, size)
            return env2.now - start

        large = env2.run(until=env2.process(send2(env2, 1_000_000)))
        assert small >= spec.base_latency_s
        assert large > small + 0.001  # 1 MB at ~117 MB/s dominates

    def test_egress_serializes_fanout(self, env, rngs):
        spec = NetworkSpec(latency_tail=0.0, latency_floor=1.0)
        network = Network(env, spec, rngs.stream("net"))
        src = Nic(env, spec)
        sinks = [Nic(env, spec) for _ in range(4)]
        finish = []

        def send(env, dst):
            yield from network.transit(src, dst, 500_000)
            finish.append(env.now)

        for sink in sinks:
            env.process(send(env, sink))
        env.run()
        # Four half-MB messages cannot leave a single NIC simultaneously.
        assert finish == sorted(finish)
        assert finish[-1] > finish[0] * 2

    def test_byte_counters(self, env, rngs):
        spec = NetworkSpec(latency_tail=0.0, latency_floor=1.0)
        network = Network(env, spec, rngs.stream("net"))
        a, b = Nic(env, spec), Nic(env, spec)

        def send(env):
            yield from network.transit(a, b, 1234)

        env.process(send(env))
        env.run()
        assert a.bytes_sent == 1234
        assert b.bytes_received == 1234
        assert network.messages == 1


class TestRpc:
    def make(self, n=3):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=n), RngRegistry(3))
        return env, cluster

    def test_round_trip_returns_handler_value(self):
        env, cluster = self.make()

        def handler(payload):
            yield from cluster.node(1).cpu_work(1e-5)
            return payload * 2

        cluster.node(1).register("double", handler)

        def client(env):
            result = yield from cluster.call(cluster.node(0), cluster.node(1),
                                             "double", 21)
            return result

        assert env.run(until=env.process(client(env))) == 42

    def test_rpc_costs_time(self):
        env, cluster = self.make()

        def handler(payload):
            return payload
            yield  # pragma: no cover

        cluster.node(1).register("echo", handler)

        def client(env):
            yield from cluster.call(cluster.node(0), cluster.node(1), "echo",
                                    "x", request_bytes=1000,
                                    response_bytes=1000)
            return env.now

        elapsed = env.run(until=env.process(client(env)))
        assert elapsed > 2 * cluster.spec.node.network.base_latency_s * 0.5

    def test_missing_verb_raises(self):
        env, cluster = self.make()

        def client(env):
            yield from cluster.call(cluster.node(0), cluster.node(1), "nope")

        with pytest.raises(LookupError):
            env.run(until=env.process(client(env)))

    def test_dead_target_times_out(self):
        env, cluster = self.make()
        cluster.kill(1)

        def handler(payload):
            return payload
            yield  # pragma: no cover

        cluster.node(1).register("echo", handler)

        def client(env):
            try:
                yield from cluster.call(cluster.node(0), cluster.node(1),
                                        "echo", timeout=0.25)
            except RpcTimeout:
                return ("timeout", env.now)

        kind, when = env.run(until=env.process(client(env)))
        assert kind == "timeout"
        assert when >= 0.25

    def test_dead_target_without_timeout_fails_fast(self):
        env, cluster = self.make()
        cluster.kill(1)

        def handler(payload):
            return payload
            yield  # pragma: no cover

        cluster.node(1).register("echo", handler)

        def client(env):
            try:
                yield from cluster.call(cluster.node(0), cluster.node(1), "echo")
            except DeadNodeError:
                return "dead"

        assert env.run(until=env.process(client(env))) == "dead"

    def test_slow_handler_times_out_but_restartable(self):
        env, cluster = self.make()

        def slow(payload):
            yield env.timeout(10)
            return "late"

        cluster.node(1).register("slow", slow)

        def client(env):
            try:
                yield from cluster.call(cluster.node(0), cluster.node(1),
                                        "slow", timeout=1.0)
            except RpcTimeout:
                return env.now

        assert env.run(until=env.process(client(env))) == pytest.approx(1.0)

    def test_call_async_fanout_collects_errors_as_values(self):
        env, cluster = self.make(4)
        cluster.kill(2)

        def handler(payload):
            return "ok"
            yield  # pragma: no cover

        for node_id in (1, 2, 3):
            cluster.node(node_id).register("ping", handler)

        def client(env):
            procs = [cluster.call_async(cluster.node(0), cluster.node(i),
                                        "ping", timeout=0.5)
                     for i in (1, 2, 3)]
            yield AllOf(env, procs)
            return [p.value for p in procs]

        values = env.run(until=env.process(client(env)))
        assert values[0] == "ok" and values[2] == "ok"
        assert isinstance(values[1], RpcTimeout)

    def test_kill_and_restart(self):
        env, cluster = self.make()
        cluster.kill(1)
        assert not cluster.node(1).alive
        cluster.restart(1)
        assert cluster.node(1).alive

    def test_duplicate_verb_registration_rejected(self):
        _, cluster = self.make()

        def handler(payload):
            return None
            yield  # pragma: no cover

        cluster.node(1).register("v", handler)
        with pytest.raises(ValueError):
            cluster.node(1).register("v", handler)


class TestTimerWheelRelease:
    """A settled RPC releases its shared-timer subscription at once.

    Every RPC issued within one wheel tick shares one timer; the wheel
    must hold state for RPCs still in flight only, and releasing a
    subscription must not move any timeout that does fire.
    """

    N = 8

    def make(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=3), RngRegistry(3))

        def echo(payload):
            return payload
            yield  # pragma: no cover

        for node_id in (1, 2):
            cluster.node(node_id).register("echo", echo)
        return env, cluster

    @staticmethod
    def rpc(cluster, api, dst, **bounds):
        """One client op through ``call`` or ``call_async``: returns
        ``(outcome, sim time)``; failures come back as values."""
        env = cluster.env
        src, dst = cluster.node(0), cluster.node(dst)
        if api == "call":
            try:
                value = yield from cluster.call(src, dst, "echo", "v",
                                                **bounds)
            except RpcTimeout as exc:
                value = exc
        else:
            value = yield cluster.call_async(src, dst, "echo", "v", **bounds)
        return value, env.now

    @staticmethod
    def shared_timer(env, cluster):
        """Start the clients (all at t=0) and return their one timer."""
        env.run(until=0.0)
        (timer,) = cluster._timers.values()
        return timer

    @staticmethod
    def live_rpcs(env):
        gc.collect()
        return [o for o in gc.get_objects()
                if (type(o) is AsyncCall
                    or (type(o) is Process and o.name == "echo"))
                and o.env is env]

    @pytest.mark.parametrize("api", ["call", "call_async"])
    def test_settled_rpcs_leave_only_disarmed_slots(self, api):
        env, cluster = self.make()
        clients = [env.process(self.rpc(cluster, api, 1, timeout=1.0))
                   for _ in range(self.N)]
        timer = self.shared_timer(env, cluster)
        assert len(timer.callbacks) == self.N
        env.run(until=0.5)
        assert [c.value[0] for c in clients] == ["v"] * self.N
        assert all(cb is _disarmed for cb in timer.callbacks)
        assert self.live_rpcs(env) == []
        env.run()
        assert env.now == 1.0  # the (now empty) timer still fires

    @pytest.mark.parametrize("api", ["call", "call_async"])
    @pytest.mark.parametrize("bound, error, fire_at", [
        ({"timeout": 1.0}, RpcTimeout, 1.0),
        ({"deadline": 0.75}, DeadlineExceeded, 0.75),
    ])
    def test_dead_callee_on_same_tick_still_times_out(self, api, bound,
                                                      error, fire_at):
        env, cluster = self.make()
        cluster.kill(2)
        live = [env.process(self.rpc(cluster, api, 1, **bound))
                for _ in range(self.N)]
        dead = env.process(self.rpc(cluster, api, 2, **bound))
        timer = self.shared_timer(env, cluster)
        env.run(until=0.5)
        assert all(c.triggered for c in live) and not dead.triggered
        # Only the dead callee's waiter is still subscribed.
        armed = [cb for cb in timer.callbacks if cb is not _disarmed]
        assert len(armed) == 1
        env.run()
        value, when = dead.value
        assert type(value) is error
        assert when == fire_at

    def test_async_hedge_loser_interrupt_disarms_its_slot(self):
        env, cluster = self.make()

        def slow(payload):
            yield env.timeout(0.3)
            return "late"

        cluster.node(1).register("slow", slow)
        calls = [cluster.call_async(cluster.node(0), cluster.node(1),
                                    "slow", timeout=1.0) for _ in range(2)]
        (timer,) = cluster._timers.values()
        loser, winner = calls
        env.run(until=0.1)
        loser.interrupt("hedged")
        assert timer.callbacks[loser._slot] is _disarmed
        assert timer.callbacks[winner._slot] is not _disarmed
        env.run(until=0.5)
        assert isinstance(loser.value, Interrupt)
        assert winner.value == "late"
        assert all(cb is _disarmed for cb in timer.callbacks)

    def test_call_hedge_loser_interrupt_disarms_its_slot(self):
        env, cluster = self.make()

        def slow(payload):
            yield env.timeout(0.3)
            return "late"

        cluster.node(1).register("slow", slow)

        def client():
            try:
                yield from cluster.call(cluster.node(0), cluster.node(1),
                                        "slow", timeout=1.0)
            except Interrupt:
                return "cancelled"

        loser = env.process(client())
        timer = self.shared_timer(env, cluster)
        env.run(until=0.1)
        assert timer.callbacks[0] is not _disarmed
        loser.interrupt("hedged")
        env.run(until=0.2)
        assert loser.value == "cancelled"
        assert timer.callbacks == [_disarmed]


class TestInFlightFootprint:
    """Heap cost of an RPC parked on its wire leg.

    On the geo testbed a cross-datacenter mutation waits tens of
    milliseconds on the WAN, so thousands are in flight at once and the
    per-call transport state sets the workload's peak memory.  Until its
    request reaches the callee a call is one slotted event plus its
    leg's timeout — no process, generator frame or closure.
    """

    N = 2_000
    #: Bytes per in-flight call.  One event, its wire-leg timeout, the
    #: queue entry and the timer-wheel slot measure ~760 on CPython 3.11;
    #: a generator and process per call cost ~2,000.
    MAX_BYTES_PER_RPC = 900

    def test_wan_leg_rpcs_stay_small_and_all_settle(self):
        import tracemalloc

        from repro.cluster.geo import GeoCluster, GeoSpec

        env = Environment()
        cluster = GeoCluster(env, GeoSpec(
            datacenters={"near": 1, "far": 1}, client_datacenter="near",
            region_latency_s={frozenset({"near", "far"}): 0.075}),
            RngRegistry(5))
        src, dst = cluster.node(0), cluster.node(1)

        def echo(payload):
            return payload
            yield  # pragma: no cover

        dst.register("echo", echo)
        calls = [None] * self.N

        def sender():
            for i in range(self.N):
                calls[i] = cluster.call_async(src, dst, "echo", i,
                                              timeout=2.0)
                yield env.timeout(1e-5)

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            env.run(until=env.process(sender()))
            gc.collect()
            in_flight = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Every call is still on its request leg (one-way WAN >= 52 ms).
        assert not any(c.processed for c in calls)
        assert in_flight / self.N <= self.MAX_BYTES_PER_RPC, (
            f"{in_flight / self.N:.0f} bytes per in-flight RPC")
        env.run()
        assert [c.value for c in calls] == list(range(self.N))
