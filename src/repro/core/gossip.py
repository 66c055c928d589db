"""Gossip flooding between H2Middlewares (paper §3.3.2 Phase 2 step 2).

After a node merges patches into its local NameRing version, the other
middleware nodes must learn about it so "each node can eventually have
the same NameRing views".  The paper's protocol:

* each gossip message carries tuples ``(N_i, H_j, t_k)`` -- NameRing
  ``N_i``'s local version in node ``H_j`` was updated at ``t_k``;
* on receipt, a node fetches the updated version, merges it into its
  local version, and forwards the rumor;
* **loopback avoidance**: forwarding aborts when the local timestamp is
  already >= the rumor's -- the local version is at least as new.

The :class:`GossipNetwork` here is a deterministic, round-pumped
message fabric: rumors are queued, :meth:`pump` delivers one round,
:meth:`run_until_quiet` drives the system to convergence.  Message loss
is injectable; anti-entropy (each node pulls every ring it holds from
the ring's next holder in cyclic order) backstops convergence under
loss, mirroring how epidemic protocols [Demers et al. 1987] pair rumor
mongering with anti-entropy.  Neither path may evict a client's cached
descriptor: both go through the cache's maintenance admission rule.

Sharded rings ride through unchanged rumors: a receiver absorbs the
announcer's in-memory ring, records which names changed
(``NameRing.merge_changes``), and its write-back touches only the
shards those names hash into -- the rumor itself never grows with
directory size, and anti-entropy digests compare per-shard ``(version,
crc)`` pairs via the stored manifest instead of whole-ring bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..obs.trace import TraceContext
from ..simcloud.clock import Timestamp
from ..simcloud.failures import MessageLoss
from .namespace import Namespace


@dataclass(frozen=True)
class Rumor:
    """(N_i, H_j, t_k): ring ``ns`` was updated on node ``origin`` at ``ts``.

    ``invalidate=True`` turns the rumor into a cache-invalidation
    broadcast: the namespace ceased to exist (account teardown), so
    receivers drop their descriptor instead of fetching-and-merging.

    ``trace`` (in-memory only, excluded from equality) carries the
    announcing span's context so gossip deliveries on *peer* nodes can
    join the originating operation's span tree.

    ``epoch`` is the storage cluster's membership epoch as seen by the
    announcer (0 when the deployment has no membership controller).
    Receivers compare it against their own observed epoch, so a ring
    change travels with normal gossip traffic and every middleware
    drops placement-derived hints promptly (see
    ``H2Middleware.observe_epoch``).
    """

    ns: Namespace
    origin: int
    ts: Timestamp
    invalidate: bool = False
    trace: TraceContext | None = field(default=None, compare=False, repr=False)
    epoch: int = 0


class GossipNetwork:
    """The rumor fabric connecting every H2Middleware in a deployment."""

    def __init__(
        self,
        fanout: int = 2,
        loss: MessageLoss | None = None,
        coalesce: bool = False,
    ):
        if fanout < 1:
            raise ValueError("gossip fanout must be >= 1")
        self.fanout = fanout
        self.loss = loss or MessageLoss(0.0)
        self.coalesce = coalesce
        # Link-level partitions (set by the deployment from the
        # cluster's PartitionPlan): rumors and anti-entropy pulls are
        # suppressed on severed middleware<->middleware links.
        self.partitions = None
        self._members: dict[int, object] = {}  # node_id -> middleware
        self._queue: deque[tuple[int, Rumor]] = deque()  # (dst, rumor)
        self.rumors_sent = 0
        self.rumors_delivered = 0
        self.rumors_coalesced = 0
        self.rounds = 0
        self.single_deliveries = 0
        self.anti_entropy_rounds = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def join(self, middleware) -> None:
        if middleware.node_id in self._members:
            raise ValueError(f"node {middleware.node_id} already joined")
        self._members[middleware.node_id] = middleware

    @property
    def members(self) -> list:
        return [self._members[nid] for nid in sorted(self._members)]

    def peer(self, node_id: int):
        return self._members[node_id]

    def peers_of(self, node_id: int) -> list[int]:
        return [nid for nid in sorted(self._members) if nid != node_id]

    # ------------------------------------------------------------------
    # rumor transport
    # ------------------------------------------------------------------
    def announce(self, origin_id: int, rumor: Rumor) -> None:
        """Seed a rumor from its origin to ``fanout`` peers."""
        self._send_from(origin_id, rumor)

    def _link_ok(self, src: int, dst: int) -> bool:
        """Is the directed gossip link ``src -> dst`` unsevered?"""
        if self.partitions is None:
            return True
        from ..simcloud.failures import mw_endpoint

        return self.partitions.reachable(mw_endpoint(src), mw_endpoint(dst))

    def _send_from(self, sender_id: int, rumor: Rumor) -> None:
        peers = self.peers_of(sender_id)
        # Deterministic fanout selection: rotate by sender so load spreads
        # but runs stay reproducible.
        if not peers:
            return
        start = sender_id % len(peers)
        targets = [peers[(start + k) % len(peers)] for k in range(min(self.fanout, len(peers)))]
        for dst in targets:
            # The partition check runs before coalescing and before the
            # loss draw, so an armed-but-idle partition plan consumes
            # nothing from the message-loss RNG stream (digest safety).
            if not self._link_ok(sender_id, dst):
                if self.partitions is not None:
                    self.partitions.blocked_rumors += 1
                continue
            if self.coalesce and self._coalesce_into_queue(dst, rumor):
                continue
            self.rumors_sent += 1
            if self.loss.should_drop(sender_id, dst):
                continue
            self._queue.append((dst, rumor))

    def _coalesce_into_queue(self, dst: int, rumor: Rumor) -> bool:
        """Fold ``rumor`` into an undelivered same-ring message, if any.

        Two rumors about the same ring from the same origin queued for
        the same destination are redundant: the receiver fetches the
        origin's *current* version either way, so only the newest
        timestamp matters.  Supersede (or drop) instead of queueing a
        duplicate -- the coalesced message was never sent, so it is not
        counted in ``rumors_sent`` and never offered to message loss
        (coalescing happens at the sender, before the wire).
        Invalidation broadcasts are never coalesced: they carry a
        side effect per delivery, not a version to fetch.
        """
        if rumor.invalidate:
            return False
        for i, (queued_dst, queued) in enumerate(self._queue):
            if (
                queued_dst == dst
                and not queued.invalidate
                and queued.ns == rumor.ns
                and queued.origin == rumor.origin
            ):
                if rumor.ts > queued.ts:
                    self._queue[i] = (dst, rumor)
                self.rumors_coalesced += 1
                return True
        return False

    def pump(self) -> int:
        """Deliver one round: everything queued right now, not reflooding.

        Receivers may enqueue forwards; those wait for the next round.
        Returns the number of rumors delivered this round.
        """
        batch = len(self._queue)
        for _ in range(batch):
            dst, rumor = self._queue.popleft()
            middleware = self._members.get(dst)
            if middleware is None:
                continue
            self.rumors_delivered += 1
            forward = middleware.on_gossip(rumor)
            if forward:
                self._send_from(dst, rumor)
        self.rounds += 1
        return batch

    def pump_one(self) -> bool:
        """Deliver exactly one queued rumor; False if none were in flight.

        The finest-grained delivery step: the deterministic-simulation
        explorer uses it to interleave a *single* rumor arrival between
        client operations, exercising orderings a whole-round pump can
        never produce.  Forwards enqueued by the receiver wait in line
        like any other rumor.
        """
        if not self._queue:
            return False
        dst, rumor = self._queue.popleft()
        middleware = self._members.get(dst)
        if middleware is None:
            return True
        self.rumors_delivered += 1
        self.single_deliveries += 1
        if middleware.on_gossip(rumor):
            self._send_from(dst, rumor)
        return True

    def run_until_quiet(self, max_rounds: int = 1000) -> int:
        """Pump until no rumors are in flight; returns rounds used."""
        for used in range(max_rounds):
            if not self._queue:
                return used
            self.pump()
        raise RuntimeError("gossip failed to quiesce (rumor storm)")

    @property
    def in_flight(self) -> int:
        return len(self._queue)

    def quiet_for(self, ns: Namespace) -> bool:
        """No queued rumor references ``ns`` (compaction safety check)."""
        return all(rumor.ns != ns for _, rumor in self._queue)

    # ------------------------------------------------------------------
    # anti-entropy backstop
    # ------------------------------------------------------------------
    def anti_entropy_round(self) -> int:
        """Holder-cycle sync: each node pulls each ring from its next holder.

        For every ring a puller holds, the source is the next member in
        cyclic node-id order that holds that ring (a loaded descriptor)
        and is reachable both ways.  Sources are visited in that cyclic
        order with one shared ``done`` set, so a ring is taken from the
        first of them that has it.  At a fixed point every holder's ring
        covers its next holder's, and around the cycle that forces all
        holders equal -- even when some middle member's cache is full
        and never admits the ring (docs/PROTOCOL.md §5).  Guarantees
        convergence even when rumor messages were lost.  Returns the
        number of rings refreshed.
        """
        node_ids = sorted(self._members)
        self.anti_entropy_rounds += 1
        refreshed = 0
        for i, nid in enumerate(node_ids):
            puller = self._members[nid]
            done: set[str] = set()
            for k in range(1, len(node_ids)):
                source_id = node_ids[(i + k) % len(node_ids)]
                # A pull needs both directions: the request out and the
                # state back.  Either severed, that source is passed
                # over; with every source cut the puller stays diverged
                # until the partition heals.
                if not (
                    self._link_ok(nid, source_id) and self._link_ok(source_id, nid)
                ):
                    continue
                refreshed += puller.pull_state_from(self._members[source_id], done)
        return refreshed

    def converge(self, max_rounds: int = 1000) -> None:
        """Drive the whole deployment to a fixed point.

        Rumor rounds first; then anti-entropy sweeps until no ring
        changes anywhere (covers rumors dropped by message loss).
        """
        self.run_until_quiet(max_rounds=max_rounds)
        for _ in range(max_rounds):
            changed = self.anti_entropy_round()
            self.run_until_quiet(max_rounds=max_rounds)
            if changed == 0:
                return
        raise RuntimeError("anti-entropy failed to reach a fixed point")
