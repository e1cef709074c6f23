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
from repro.sim.kernel import (URGENT, Environment, Event, Interrupt, Process,
                              Timeout, _PENDING)
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

#: Sentinel result meaning "the callee was dead, or abandoned the request
#: past its deadline; no response will come".
_NO_RESPONSE = object()

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


#: Handler failures a fan-out call settles with as a value, not a failure.
_FAN_OUT_ERRORS = (RpcTimeout, DeadNodeError, Overloaded, Interrupt)


class AsyncCall(Event):
    """One RPC in flight, and the event its caller waits on.

    The call is a small state machine driven by kernel callbacks; no
    process exists for it until the request reaches the callee:

    1. **send** (:meth:`Cluster.call_async` / :meth:`Cluster.call`) —
       books the request leg (caller CPU, egress serialization, switch
       hop, callee ingress and CPU) against the busy-until accumulators
       and waits for it on ONE :class:`~repro.sim.kernel.Timeout`;
    2. **arrive** — a dead callee or a spent deadline ends the call with
       no response; otherwise the handler starts as a
       :class:`~repro.sim.kernel.Process`, subscribed before its eager
       first segment so a handler that sheds at once is seen too;
    3. **handled** — the handler's return books the response leg (one
       more timeout); the process is not referenced again;
    4. **respond** — the call settles inline with the handler's value.

    A cross-datacenter leg (:meth:`Cluster._crosses_wan`) waits out the
    wire first and books the receiver's ingress NIC and CPU at the
    *arrival* instant, not optimistically at send: the busy-until
    approximation assumes reservation order tracks arrival order, which
    holds in-rack (every hop is tens of microseconds) but collapses
    across a WAN — a mutation booked 90 ms ahead would park the
    replica's ingress channel in the future and queue every rack-local
    message behind a link that is actually idle.  The deferral costs
    one extra kernel event per WAN leg.

    Booking a downstream stage at the upstream stage's completion time
    is *optimistic reservation*: a message starting later but reaching a
    shared stage earlier keeps FIFO order by reservation, not by
    arrival — a standard fast-simulator tradeoff that is exact whenever
    stages are uncontended and microseconds off otherwise.

    A fan-out call (:meth:`Cluster.call_async`) always *succeeds*;
    failures arrive as exception **values** — so a condition over many
    replicas never crashes on one slow callee: :class:`RpcTimeout` /
    :class:`DeadlineExceeded` when the timer wins,
    :class:`~repro.sim.resources.Overloaded` when the callee shed the
    request, :class:`~repro.sim.kernel.Interrupt` when the caller
    cancelled (hedge loser).  Any other handler failure fails the call
    if someone waits on it, and otherwise crashes the run.  A call made
    through :meth:`Cluster.call` fails with whatever the handler raised.

    The handler keeps running server-side after a timeout or a
    cancellation — cancellation does not reach over the wire — which is
    what lets late replica writes land and keeps the staleness and
    hinted-handoff semantics honest; its late outcome is dropped.

    A call with a timeout subscribes to a shared timer at send
    (:meth:`Cluster._shared_timer`) and releases that subscription the
    moment it settles or is interrupted, so a settled call holds no
    reference from the timer wheel.  A dead or abandoning callee settles
    nothing; its subscription stays armed until the timer fires.  The
    timer and the legs' timeouts hold bound methods of the call, never
    closures.
    """

    __slots__ = ("cluster", "src", "dst", "verb", "_data", "_size",
                 "response_bytes", "deadline", "_timeout", "_caller",
                 "_wan", "_timer", "_slot")

    def __init__(self, cluster: "Cluster", src: Node, dst: Node, verb: str,
                 payload: Any, response_bytes: int,
                 deadline: Optional[float], caller: Any) -> None:
        self.env = cluster.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.cluster = cluster
        self.src = src
        self.dst = dst
        self.verb = verb
        #: The request payload until the handler starts, then its result.
        self._data = payload
        #: Bytes of the message on a WAN leg, booked when it lands.
        self._size = 0
        self.response_bytes = response_bytes
        self.deadline = deadline
        #: The timeout an expiry quotes (``None``: the deadline bounds
        #: the wait).
        self._timeout = None
        #: The process blocked in :meth:`Cluster.call` (``None`` for a
        #: fan-out call).
        self._caller = caller
        self._wan = False
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

    def _fail(self, exc: BaseException) -> bool:
        """Settle with a callee-side failure; False when it must crash
        the run instead (an unexpected error nobody waits on)."""
        if self._value is not _PENDING:
            return True  # timed out or cancelled: the late outcome is noise
        if self._caller is None and isinstance(exc, _FAN_OUT_ERRORS):
            self._settle(exc)
        elif self.callbacks:
            self._ok = False
            self._settle(exc)
        else:
            return False
        return True

    def _expired(self) -> RpcTimeout:
        if self._timeout is None:
            return DeadlineExceeded(f"rpc {self.verb!r} to node "
                                    f"{self.dst.node_id} exceeded its "
                                    f"deadline")
        return RpcTimeout(f"rpc {self.verb!r} to node {self.dst.node_id} "
                          f"timed out after {self._timeout}s")

    def _expire(self, _timer: Any) -> None:
        """Shared-timer callback: the wait ran out before a response."""
        if self._value is not _PENDING:
            return
        caller = self._caller
        if caller is None:
            self._settle(self._expired())
        elif caller._target is self:
            # Guarded delivery: with a propagated deadline the call can
            # fail (server-side DeadlineExceeded) at the *same* timestamp
            # this timer fires — the caller then moves on (e.g. into a
            # retry backoff) before the urgent interrupt lands, and an
            # unconditional interrupt would crash whatever it does now.
            caller.interrupt(_TIMED_OUT, if_waiting_on=self)

    def _after(self, when: float, step: Any) -> None:
        """Run ``step`` at ``when``: on one timeout, or now if due."""
        env = self.env
        now = env._now
        if when > now:
            Timeout(env, when - now).callbacks.append(step)
        else:
            step(None)

    def _start(self, request_bytes: int, src_cpu_s: float) -> None:
        cluster = self.cluster
        spec = cluster.spec
        network = cluster.network
        src, dst = self.src, self.dst
        size = request_bytes + spec.envelope_bytes
        network.messages += 1
        # ``src_cpu_s`` folds the caller's own pre-request CPU charge
        # (driver bookkeeping) into the same core reservation as the
        # request serialization — one timeout instead of two on every
        # client-issued operation.
        cpu_done = src.reserve_cpu(src_cpu_s + spec.rpc_cpu_s)
        arrival = (src.nic.reserve_egress(size, at=cpu_done)
                   + network.sample_latency(src.nic, dst.nic, size))
        if cluster._crosses_wan(src, dst):
            self._wan = True
            self._size = size
            self._after(arrival, self._request_landed)
        else:
            self._after(dst.reserve_cpu(
                spec.rpc_cpu_s, at=dst.nic.reserve_ingress(size, at=arrival)),
                self._arrive)

    def _request_landed(self, _event: Any) -> None:
        dst = self.dst
        self._after(dst.reserve_cpu(self.cluster.spec.rpc_cpu_s,
                                    at=dst.nic.reserve_ingress(self._size)),
                    self._arrive)

    def _arrive(self, _event: Any) -> None:
        dst = self.dst
        if not dst.alive:
            self._no_response()
            return
        deadline = self.deadline
        if deadline is not None and self.env._now >= deadline:
            # Deadline propagation: the budget is already spent when the
            # request arrives, so the callee drops it without computing a
            # result nobody will read (the caller's own timer fires).
            self.cluster.abandoned_rpcs += 1
            self._no_response()
            return
        handler = dst.handlers.get(self.verb)
        if handler is None:
            exc = LookupError(f"node {dst.node_id} has no handler for "
                              f"{self.verb!r}")
            if not self._fail(exc):
                raise exc
            return
        payload, self._data = self._data, None
        # Static name: an f-string per RPC is measurable at stress scale.
        Process(self.env, handler(payload), name=self.verb, eager=True,
                callback=self._handled)

    def _handled(self, proc: Process) -> None:
        if not proc._ok:
            if self._fail(proc._value):
                proc._defused = True
            # Otherwise the process re-raises: a genuine bug crashes loudly.
            return
        src, dst = self.src, self.dst
        if not dst.alive:
            self._no_response()
            return
        self._data = proc._value
        cluster = self.cluster
        spec = cluster.spec
        network = cluster.network
        size = self.response_bytes + spec.envelope_bytes
        network.messages += 1
        back = (dst.nic.reserve_egress(size)
                + network.sample_latency(dst.nic, src.nic, size))
        if self._wan:
            self._size = size
            self._after(back, self._response_landed)
        else:
            self._after(src.reserve_cpu(
                spec.rpc_cpu_s, at=src.nic.reserve_ingress(size, at=back)),
                self._respond)

    def _response_landed(self, _event: Any) -> None:
        src = self.src
        self._after(src.reserve_cpu(self.cluster.spec.rpc_cpu_s,
                                    at=src.nic.reserve_ingress(self._size)),
                    self._respond)

    def _respond(self, _event: Any) -> None:
        if self._value is _PENDING:
            self._settle(self._data)

    def _no_response(self) -> None:
        """The callee died or dropped the request: no response comes."""
        if self._value is not _PENDING:
            return
        if self._caller is not None:
            # call() raises DeadNodeError or waits out its own timer.
            self._settle(_NO_RESPONSE)
        elif self._timer is None:
            self._settle(DeadNodeError(
                f"rpc {self.verb!r} to dead node {self.dst.node_id} "
                f"(no timeout set)"))
        # Otherwise the caller still waits out its own timer.


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

    def _crosses_wan(self, src: Node, dst: Node) -> bool:
        """Whether a message from ``src`` to ``dst`` crosses a WAN link
        (never, in one rack; see :class:`AsyncCall`)."""
        return False

    # -- RPC -----------------------------------------------------------

    def _send(self, src: Node, dst: Node, verb: str, payload: Any,
              request_bytes: int, response_bytes: int,
              timeout: Optional[float], deadline: Optional[float],
              src_cpu_s: float, caller: Any = None) -> AsyncCall:
        """Start one RPC (see :class:`AsyncCall`) and arm its timer."""
        self.rpc_count += 1
        rpc = AsyncCall(self, src, dst, verb, payload, response_bytes,
                        deadline, caller)
        wait_s = timeout
        deadline_first = False
        if deadline is not None:
            remaining = deadline - self.env._now
            if remaining <= 0:
                # Spent before send: a fan-out call settles with the
                # error as its value, call() raises it.
                rpc._ok = caller is None
                rpc._value = DeadlineExceeded(
                    f"rpc {verb!r} to node {dst.node_id}: deadline already "
                    f"passed before send")
                rpc.callbacks = None
                return rpc
            if wait_s is None or remaining < wait_s:
                wait_s = remaining
                deadline_first = True
        rpc._start(request_bytes, src_cpu_s)
        if wait_s is not None:
            timer = self._shared_timer(wait_s, exact=deadline_first)
            rpc._timeout = None if deadline_first else timeout
            rpc._timer = timer
            rpc._slot = len(timer.callbacks)
            timer.callbacks.append(rpc._expire)
        return rpc

    def call(self, src: Node, dst: Node, verb: str, payload: Any = None,
             request_bytes: int = 0, response_bytes: int = 0,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None,
             src_cpu_s: float = 0.0) -> Generator:
        """Perform an RPC from the calling process (``yield from`` this).

        Returns the handler's return value, or raises what the handler
        raised.  Raises :class:`RpcTimeout` when ``timeout`` elapses
        first, :class:`DeadlineExceeded` when the absolute ``deadline``
        passes first, or :class:`DeadNodeError` when the callee is dead
        and neither bound was given.  ``src_cpu_s`` is extra caller-side
        CPU charged ahead of the request serialization.
        """
        rpc = self._send(src, dst, verb, payload, request_bytes,
                         response_bytes, timeout, deadline, src_cpu_s,
                         caller=self.env._active_process)
        if not rpc._ok:
            raise rpc._value
        # Instead of an AnyOf race (a condition allocation plus an extra
        # queue event on every RPC), wait on the call directly and let
        # the shared timer interrupt this process if it fires while the
        # call is still the wait target (:meth:`AsyncCall._expire`).
        timer = rpc._timer
        try:
            result = yield rpc
        except Interrupt as exc:
            if exc.cause is not _TIMED_OUT:
                # Hedge-loser cancellation: the caller abandoned this RPC.
                raise
            raise rpc._expired()
        finally:
            rpc._release_timer()
        if result is not _NO_RESPONSE:
            return result
        if timer is None:
            raise DeadNodeError(
                f"rpc {verb!r} to dead node {dst.node_id} (no timeout set)")
        # Dead callee or server-side abandonment: the caller still waits
        # out its own timer before giving up.
        yield timer
        raise rpc._expired()

    def call_async(self, src: Node, dst: Node, verb: str, payload: Any = None,
                   request_bytes: int = 0, response_bytes: int = 0,
                   timeout: Optional[float] = None,
                   deadline: Optional[float] = None,
                   src_cpu_s: float = 0.0) -> AsyncCall:
        """Like :meth:`call` but returns an :class:`AsyncCall` to wait on.

        Use for fan-out: fire several calls, then ``yield AllOf(...)`` /
        ``AnyOf(...)`` over the returned events.  Failures become
        exception *values*, never raises, so one dead or shedding callee
        cannot crash the whole condition.  No process exists for the
        call until its request reaches the callee.
        """
        return self._send(src, dst, verb, payload, request_bytes,
                          response_bytes, timeout, deadline, src_cpu_s)
