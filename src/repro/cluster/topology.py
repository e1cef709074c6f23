"""Cluster wiring and the RPC transport.

The paper's testbed is 16 machines in one rack; the cluster builds the
nodes, the shared rack fabric, and an RPC layer with the semantics the
database models need:

- request and response each pay NIC serialization + switch latency,
- both sides pay a small fixed CPU cost (kernel + (de)serialization),
- calls to a dead node never produce a response — the caller either
  times out (:class:`RpcTimeout`) or, with no timeout configured, fails
  fast with :class:`DeadNodeError` to avoid deadlocking the simulation,
- an optional **deadline** (absolute simulation time) rides the request
  envelope: a request that *arrives* after its deadline is abandoned
  before the handler runs (the callee computes nothing a caller will
  never read), and the caller observes :class:`DeadlineExceeded` the
  moment the budget runs out.  Handlers that queue behind bounded
  resources receive the deadline too (see the database models) and
  withdraw their queue slot when it expires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Any, Generator, Optional

from repro.cluster.nic import Network, NetworkSpec
from repro.cluster.node import Node, NodeSpec
from repro.sim.kernel import (URGENT, Environment, Event, Interrupt, Timeout,
                              _PENDING)
from repro.sim.resources import Overloaded
from repro.sim.rng import RngRegistry

__all__ = ["AsyncCall", "Cluster", "ClusterSpec", "DeadNodeError",
           "DeadlineExceeded", "DEFAULT_CLIENT_OVERHEAD_S", "RpcTimeout"]

#: Client-side CPU per operation (driver serialization, thread wake-up).
#: The paper's methodology section is explicit that client-side latency
#: exists and must be controlled by thread-count choice; charging it on
#: the client node makes the single client machine a realistic, shared
#: resource (the paper dedicates one of the 16 machines to YCSB).  The
#: database clients fold it into the request leg's core reservation via
#: ``call(..., src_cpu_s=...)`` so it costs no extra kernel event.
#: Defined here (not in ``repro.ycsb.client``) because both database
#: driver packages need it and importing from ycsb would be circular.
DEFAULT_CLIENT_OVERHEAD_S = 2e-4

#: Sentinel response meaning "the callee was dead; no response will come".
_NO_RESPONSE = object()

#: Sentinel response meaning "the request arrived after its deadline and
#: was abandoned server-side; no useful response exists".
_EXPIRED = object()

#: Interrupt cause used by the shared RPC timer to distinguish its own
#: expiry from an external (hedge-loser) cancellation.
_TIMED_OUT = object()


def _disarmed(_timer: Any) -> None:
    """Placeholder left in a shared timer's slot once its RPC settled."""


def _disarm(timer: Any, slot: int) -> None:
    """Release the subscription at ``slot`` of a shared timer, in O(1).

    Overwrites instead of removing, so the slots of the other RPCs on
    the tick stay valid and the remaining subscribers fire in their
    original order.  A fired timer has already detached its list.
    """
    callbacks = timer.callbacks
    if callbacks is not None:
        callbacks[slot] = _disarmed


class RpcTimeout(Exception):
    """An RPC did not complete within its deadline."""


class DeadlineExceeded(RpcTimeout):
    """The operation's propagated deadline expired before it completed.

    Subclasses :class:`RpcTimeout` so every existing timeout-handling
    path (driver retries, fan-out helpers, error accounting) treats it
    as a timeout — but the distinct type shows up in
    ``errors_by_type`` breakdowns.
    """


class DeadNodeError(Exception):
    """An RPC without a deadline targeted a dead node."""


class AsyncCall(Event):
    """Completion event of a fire-and-forget RPC (:meth:`Cluster.call_async`).

    Always *succeeds*; failures arrive as exception **values** — the
    fan-out convention, so a condition over many replicas never crashes
    on one slow callee: :class:`RpcTimeout`/:class:`DeadlineExceeded`
    when the timer wins, :class:`~repro.sim.resources.Overloaded` when
    the callee shed the request, :class:`~repro.sim.kernel.Interrupt`
    when the caller cancelled (hedge loser).  The body process keeps
    running server-side in every case — cancellation does not reach over
    the wire — which is what lets late replica writes land and keep the
    staleness/hinted-handoff semantics honest.

    Completion is settled *inline* from the body's (or the shared
    timer's) dispatch, so the result itself never costs a queue event.

    A call with a timeout subscribes to a shared timer at send
    (:meth:`Cluster._shared_timer`) and releases that subscription the
    moment it settles or is interrupted, so a settled call holds no
    reference from the timer wheel.  A dead or abandoning callee settles
    nothing; its subscription stays armed until the timer fires.
    """

    __slots__ = ("proc", "_timer", "_slot")

    def __init__(self, env: Environment, proc: Any) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        #: The underlying RPC body process (``None`` for a call that
        #: failed before send, e.g. a pre-spent deadline).
        self.proc = proc
        #: The shared timer this call subscribes to, and its slot there
        #: (``None`` once settled, or for a call without a timeout).
        self._timer = None
        self._slot = 0

    @property
    def is_alive(self) -> bool:
        """True while the caller-side wait is still undecided."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Cancel the caller-side wait; the RPC drains server-side.

        Mirrors :meth:`~repro.sim.kernel.Process.interrupt` delivery:
        the result triggers through the queue (urgently), never inline —
        the interrupter is mid-execution and its waiters must not run
        inside its frame.
        """
        if self._value is not _PENDING:
            return
        if self.proc is not None:
            # Late body outcomes (including failures) are noise now.
            self.proc._defused = True
        self._value = Interrupt(cause)
        self._release_timer()
        self.env._schedule(self, URGENT, 0.0)

    def _release_timer(self) -> None:
        if self._timer is not None:
            _disarm(self._timer, self._slot)
            self._timer = None

    def _settle(self, value: Any) -> None:
        """Complete inline with ``value`` (called from kernel dispatch)."""
        self._value = value
        self._release_timer()
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)


@dataclass(frozen=True)
class ClusterSpec:
    """Whole-testbed parameters (defaults follow the paper's rack)."""

    #: Total machines, including the one reserved for the YCSB client.
    n_nodes: int = 16
    node: NodeSpec = field(default_factory=NodeSpec)
    #: Fixed CPU time charged per RPC message on each side (request
    #: handling, serialization, kernel crossings).
    rpc_cpu_s: float = 0.000025
    #: RPC sizes are payload + this request/response envelope.
    envelope_bytes: int = 120


class Cluster:
    """Builds nodes and provides the RPC transport between them."""

    def __init__(self, env: Environment, spec: ClusterSpec,
                 rngs: RngRegistry) -> None:
        self.env = env
        self.spec = spec
        self.rngs = rngs
        self.network = Network(env, spec.node.network, rngs.stream("network"))
        self.nodes: list[Node] = [
            Node(env, i, spec.node, rngs.stream(f"disk.{i}"))
            for i in range(spec.n_nodes)
        ]
        self.rpc_count = 0
        #: Requests that arrived at the callee after their deadline and
        #: were abandoned before the handler ran.
        self.abandoned_rpcs = 0
        #: Absolute fire time -> pending shared timeout.  A replication
        #: fan-out issues R RPCs at the same instant with the same
        #: timeout; batching them onto one timer event cuts R-1 timer
        #: allocations *and* R-1 queue entries per fan-out.
        self._timers: dict[float, Any] = {}
        self._timer_prune_at = 256

    def _shared_timer(self, wait_s: float, exact: bool = False):
        """A timeout firing ``wait_s`` (or a hair later) from now.

        Timeout events are multi-subscriber, so every RPC racing against
        the same absolute expiry can watch one queue entry.  Entries are
        pruned lazily once fired (the dict stays bounded by the number of
        distinct in-flight expiry times).

        Non-``exact`` expiries are rounded *up* onto a wheel whose tick
        is 1/32 of the requested wait — the hashed-timer-wheel scheme
        production RPC stacks use (Netty/Cassandra tick every ~100 ms),
        where a timeout is a failure detector, never a precision clock.
        Rounding up means a timer is never early, at most ~3% late; in
        exchange every RPC issued within the same tick shares one queue
        entry instead of allocating its own never-to-fire timeout.
        ``exact`` is for deadline-driven waits, where the remaining
        budget must not be silently extended.

        Subscription lifecycle: an RPC arms its expiry callback at send
        by appending it to ``callbacks`` and keeping the slot index; it
        disarms at settle by overwriting that slot with a no-op
        (:func:`_disarm`).  The wheel therefore holds state proportional
        to the RPCs in flight, not to every RPC issued within a timeout
        — which, with timeouts of seconds and cells of a fraction of a
        second, would be every RPC of the cell.  Slots are never removed
        or reordered: the surviving subscribers fire in their original
        order, and a settled RPC's callback was a no-op at fire time
        anyway, so the event schedule is unchanged.
        """
        fire_at = self.env.now + wait_s
        if not exact:
            tick = wait_s * 0.03125
            fire_at = ceil(fire_at / tick) * tick
        timer = self._timers.get(fire_at)
        if timer is None or timer.callbacks is None:
            timer = self.env.timeout(fire_at - self.env.now)
            self._timers[fire_at] = timer
            if len(self._timers) > self._timer_prune_at:
                # Amortized O(1): double the threshold relative to the
                # live set so the rebuild cost stays a vanishing
                # fraction of inserts.
                self._timers = {t: e for t, e in self._timers.items()
                                if e.callbacks is not None}
                self._timer_prune_at = max(256, 2 * len(self._timers))
        return timer

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def kill(self, node_id: int) -> None:
        """Crash a node: it stops answering RPCs until restarted."""
        self.nodes[node_id].alive = False

    def restart(self, node_id: int) -> None:
        """Bring a crashed node back (state is whatever the DB model kept)."""
        self.nodes[node_id].alive = True

    # -- RPC -----------------------------------------------------------

    def _rpc_body(self, src: Node, dst: Node, verb: str, payload: Any,
                  request_bytes: int, response_bytes: int,
                  deadline: Optional[float] = None,
                  src_cpu_s: float = 0.0) -> Generator:
        """One RPC round trip, as a pipeline of stage reservations.

        Each leg (caller CPU, egress serialization, switch hop, ingress
        serialization, callee CPU) is booked up front against the
        busy-until accumulators and collapsed into ONE timeout per
        direction — versus the seven queue events the step-by-step
        version cost per message.  Booking a downstream stage at the
        upstream stage's completion time is *optimistic reservation*: a
        message starting later but reaching a shared stage earlier keeps
        FIFO order by reservation, not by arrival — a standard
        fast-simulator tradeoff that is exact whenever stages are
        uncontended and microseconds off otherwise.  Liveness and
        deadline checks happen when the request reaches the handler
        (previously: on wire arrival, a few tens of microseconds
        earlier).
        """
        env = self.env
        spec = self.spec
        network = self.network
        rpc_cpu = spec.rpc_cpu_s
        size = request_bytes + spec.envelope_bytes
        network.messages += 1
        # ``src_cpu_s`` folds the caller's own pre-request CPU charge
        # (driver bookkeeping) into the same core reservation as the
        # request serialization — one timeout instead of two on every
        # client-issued operation.
        cpu_done = src.reserve_cpu(src_cpu_s + rpc_cpu)
        arrival = (src.nic.reserve_egress(size, at=cpu_done)
                   + network.sample_latency(src.nic, dst.nic, size))
        handler_at = dst.reserve_cpu(
            rpc_cpu, at=dst.nic.reserve_ingress(size, at=arrival))
        now = env._now
        if handler_at > now:
            yield Timeout(env, handler_at - now)
        if not dst.alive:
            return _NO_RESPONSE
        if deadline is not None and env._now >= deadline:
            # Deadline propagation: the budget is already spent when the
            # request arrives, so the callee drops it without computing a
            # result nobody will read (the caller's own timer fires).
            self.abandoned_rpcs += 1
            return _EXPIRED
        handler = dst.handlers.get(verb)
        if handler is None:
            raise LookupError(f"node {dst.node_id} has no handler for {verb!r}")
        result = yield from handler(payload)
        if not dst.alive:
            return _NO_RESPONSE
        size = response_bytes + spec.envelope_bytes
        network.messages += 1
        back = (dst.nic.reserve_egress(size)
                + network.sample_latency(dst.nic, src.nic, size))
        done = src.reserve_cpu(rpc_cpu, at=src.nic.reserve_ingress(size,
                                                                   at=back))
        now = env._now
        if done > now:
            yield Timeout(env, done - now)
        return result

    def call(self, src: Node, dst: Node, verb: str, payload: Any = None,
             request_bytes: int = 0, response_bytes: int = 0,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None,
             src_cpu_s: float = 0.0) -> Generator:
        """Perform an RPC from the calling process (``yield from`` this).

        Returns the handler's return value.  Raises :class:`RpcTimeout`
        when ``timeout`` elapses first, :class:`DeadlineExceeded` when the
        absolute ``deadline`` passes first, or :class:`DeadNodeError`
        when the callee is dead and neither bound was given.
        ``src_cpu_s`` is extra caller-side CPU charged ahead of the
        request serialization (see :meth:`_rpc_body`).
        """
        self.rpc_count += 1
        if deadline is not None and self.env.now >= deadline:
            raise DeadlineExceeded(
                f"rpc {verb!r} to node {dst.node_id}: deadline already "
                f"passed before send")
        wait_s = timeout
        deadline_first = False
        if deadline is not None:
            remaining = deadline - self.env.now
            if wait_s is None or remaining < wait_s:
                wait_s = remaining
                deadline_first = True
        if wait_s is None:
            result = yield from self._rpc_body(
                src, dst, verb, payload, request_bytes, response_bytes,
                src_cpu_s=src_cpu_s)
            if result is _NO_RESPONSE:
                raise DeadNodeError(
                    f"rpc {verb!r} to dead node {dst.node_id} (no timeout set)")
            return result
        # Static name: an f-string per RPC is measurable at stress scale.
        env = self.env
        body = env.process(
            self._rpc_body(src, dst, verb, payload, request_bytes,
                           response_bytes, deadline=deadline,
                           src_cpu_s=src_cpu_s),
            name=verb, eager=True)
        # Instead of an AnyOf race (a condition allocation plus an extra
        # queue event on every RPC), wait on the body directly and let
        # the shared timer interrupt this process if it fires while the
        # body is still the wait target.  The `_target is body` guard
        # makes the timer a no-op the moment the caller moves on
        # (completion, interruption or termination); the ``finally``
        # below then releases the subscription itself.
        timer = self._shared_timer(wait_s, exact=deadline_first)
        caller = env.active_process
        slot = len(timer.callbacks)

        def _expire(_timer: Any, caller: Any = caller, body: Any = body) -> None:
            if caller._target is body:
                # Guarded delivery: with a propagated deadline the body
                # can fail (server-side DeadlineExceeded) at the *same*
                # timestamp this timer fires — the caller then moves on
                # (e.g. into a retry backoff) before the urgent
                # interrupt lands, and an unconditional interrupt would
                # crash whatever it is doing now.
                caller.interrupt(_TIMED_OUT, if_waiting_on=body)

        timer.callbacks.append(_expire)
        try:
            result = yield body
        except Interrupt as exc:
            # The body keeps running server-side either way (cancellation
            # does not reach over the wire), so defuse it lest a late
            # handler failure crash the kernel.
            body.defuse()
            if exc.cause is not _TIMED_OUT:
                # Hedge-loser cancellation: the caller abandoned this RPC.
                raise
            if deadline_first:
                raise DeadlineExceeded(
                    f"rpc {verb!r} to node {dst.node_id} exceeded its "
                    f"deadline")
            raise RpcTimeout(f"rpc {verb!r} to node {dst.node_id} timed "
                             f"out after {timeout}s")
        finally:
            # Release ``_expire`` (and the body it pins) right away.
            _disarm(timer, slot)
        if result is not _NO_RESPONSE and result is not _EXPIRED:
            return result
        # Dead callee or server-side abandonment: the caller still waits
        # out its own timer before giving up.
        yield timer
        if deadline_first:
            raise DeadlineExceeded(
                f"rpc {verb!r} to node {dst.node_id} exceeded its deadline")
        raise RpcTimeout(f"rpc {verb!r} to node {dst.node_id} timed out "
                         f"after {timeout}s")

    def call_async(self, src: Node, dst: Node, verb: str, payload: Any = None,
                   request_bytes: int = 0, response_bytes: int = 0,
                   timeout: Optional[float] = None,
                   deadline: Optional[float] = None,
                   src_cpu_s: float = 0.0) -> AsyncCall:
        """Like :meth:`call` but returns an :class:`AsyncCall` to wait on.

        Use for fan-out: fire several calls, then ``yield AllOf(...)`` /
        ``AnyOf(...)`` over the returned events.  Failures become
        exception *values*, never raises, so one dead or shedding callee
        cannot crash the whole condition.  Costs a single process (the
        RPC body) per call — the timeout race and the failure-to-value
        conversion live in callbacks, not in a wrapper process.
        """
        self.rpc_count += 1
        env = self.env
        wait_s = timeout
        deadline_first = False
        if deadline is not None:
            remaining = deadline - env._now
            if remaining <= 0:
                result = AsyncCall(env, None)
                result._value = DeadlineExceeded(
                    f"rpc {verb!r} to node {dst.node_id}: deadline already "
                    f"passed before send")
                result.callbacks = None
                return result
            if wait_s is None or remaining < wait_s:
                wait_s = remaining
                deadline_first = True
        body = env.process(
            self._rpc_body(src, dst, verb, payload, request_bytes,
                           response_bytes, deadline=deadline,
                           src_cpu_s=src_cpu_s),
            name=verb, eager=True)
        result = AsyncCall(env, body)
        if wait_s is not None:
            timer = self._shared_timer(wait_s, exact=deadline_first)
            result._timer = timer
            result._slot = len(timer.callbacks)

            def _expire(_timer: Any) -> None:
                if result._value is not _PENDING:
                    return
                body._defused = True
                if deadline_first:
                    result._settle(DeadlineExceeded(
                        f"rpc {verb!r} to node {dst.node_id} exceeded its "
                        f"deadline"))
                else:
                    result._settle(RpcTimeout(
                        f"rpc {verb!r} to node {dst.node_id} timed out "
                        f"after {timeout}s"))

            timer.callbacks.append(_expire)
        else:
            timer = None

        def _finish(_body: Any) -> None:
            if result._value is not _PENDING:
                # Timed out or cancelled; the late outcome is noise.
                if not _body._ok:
                    _body._defused = True
                return
            value = _body._value
            if _body._ok:
                if value is _NO_RESPONSE or value is _EXPIRED:
                    # Dead callee or server-side abandonment: the caller
                    # still waits out its own timer (matches call()).
                    if timer is None:
                        result._settle(DeadNodeError(
                            f"rpc {verb!r} to dead node {dst.node_id} "
                            f"(no timeout set)"))
                    return
                result._settle(value)
            elif isinstance(value, (RpcTimeout, DeadNodeError, Overloaded,
                                    Interrupt)):
                _body._defused = True
                result._settle(value)
            elif result.callbacks:
                # Unexpected failure (e.g. a replica process crashing
                # mid-request): propagate as a *failure* of the result,
                # so waiters re-raise it and fan-out conditions defuse
                # it — exactly what the old wrapper process did.
                _body._defused = True
                result._ok = False
                result._settle(value)
            # No watchers: stay armed so the kernel's unhandled-failure
            # check crashes loudly on genuine bugs.

        body.callbacks.append(_finish)
        return result
