"""The CliqueMap client library (§3, §5).

The client is where CliqueMap's design concentrates its cleverness:

* **2xR GETs** — bucket fetch, scan, data fetch, all one-sided;
* **SCAR GETs** — one round trip via the software NIC (§6.3);
* **RPC lookups** — fallback for WAN access and overflowed buckets;
* **client-side quoruming** with first-responder preference (§5.1);
* **self-validation** of every response: checksum, full-key compare,
  version-vs-quorum, bucket magic, and configuration id (§3, §6.1);
* **layered retries**: checksum failures retry the RMA; revoked regions
  re-handshake over RPC; config mismatches refresh from the external
  store; dead backends are skipped while a reconnect loop runs (§9);
* **mutations** via RPC to all replicas with client-nominated
  VersionNumbers (§5.2);
* **batched touch reporting** so backends can run recency-based
  eviction despite never seeing GETs (§4.2).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..net import Fabric, Host, NetworkDropError
from ..rpc import (PermissionDeniedError, Principal, RpcChannel, RpcError,
                   connect as rpc_connect)
from ..sim import Interrupt, RandomStream, Simulator
from ..telemetry import (NULL_FLIGHT, NULL_SPAN, MetricsRegistry,
                         TraceContext, Tracer)
from ..transport import (RegionRevokedError, RemoteHostDownError, RmaError,
                         Transport)
from .config import CellConfig, ConfigStore, GetStrategy, ReplicationMode
from .data import try_decode
from .errors import CliqueMapError, GetStatus, SetStatus
from .hashing import Placement
from .index import ParsedBucket, parse_bucket
from .quorum import (QuorumDecision, QuorumOutcome, ReplicaVote, VoteKind,
                     evaluate)
from .resilience import (BackendHealth, BackoffPolicy, HealthPolicy,
                         RetryBudget)
from .truetime import TrueTime
from .version import VersionFactory, VersionNumber

# Fallback id space for clients created outside a Cell; Cell-created
# clients get deterministic per-cell ids (reproducibility requires that
# version tiebreaks and backoff seeds not depend on process history).
_client_ids = itertools.count(1 << 20)


@dataclass
class ClientCostModel:
    """CliqueMap-client CPU costs (distinct from transport/engine CPU)."""

    issue_op_cpu: float = 0.22e-6       # set up one RMA op
    completion_cpu: float = 0.28e-6     # process one RMA completion
    validate_cpu: float = 0.30e-6       # checksum + key comparison
    validate_per_kb: float = 0.045e-6
    quorum_cpu: float = 0.12e-6         # evaluate votes
    mutation_cpu: float = 0.60e-6       # build mutation RPCs


@dataclass
class ClientConfig:
    """Client behavior knobs."""

    default_deadline: float = 10e-3
    max_retries: int = 10
    # Backoff between retries: exponential with decorrelated jitter,
    # starting at retry_backoff and capped at retry_backoff_cap. Set
    # retry_backoff=0 to disable (no sleep between attempts).
    retry_backoff: float = 15e-6
    retry_backoff_cap: float = 2e-3
    # Token-bucket retry budget shared by all of this client's ops: each
    # retry spends one token; when dry, retries are shed and the op fails
    # fast with a "budget-exhausted" reason. capacity <= 0 disables.
    retry_budget_capacity: float = 128.0
    retry_budget_fill_rate: float = 1000.0      # tokens per second
    health: HealthPolicy = field(default_factory=HealthPolicy)
    mutation_rpc_deadline: float = 5e-3
    touch_enabled: bool = True
    touch_flush_interval: float = 20e-3
    touch_batch_max: int = 512
    reconnect_interval: float = 2e-3
    overflow_rpc_lookup: bool = True
    # Ablation switch: always fetch the datum from the logical primary
    # instead of the first responder (a primary/backup-style read path).
    force_primary_data_fetch: bool = False
    # Transparent value compression (a post-launch feature, §9). This is
    # a *corpus-level* convention: every client of the corpus must agree,
    # since values are stored wrapped with a 1-byte scheme header.
    compression_enabled: bool = False
    compression_min_bytes: int = 512
    compress_cpu_per_kb: float = 10e-6      # ~100 MB/s deflate
    decompress_cpu_per_kb: float = 3e-6     # ~300 MB/s inflate
    costs: ClientCostModel = field(default_factory=ClientCostModel)

    def __post_init__(self) -> None:
        for name, minimum in (("default_deadline", 0.0),
                              ("mutation_rpc_deadline", 0.0),
                              ("touch_flush_interval", 0.0),
                              ("reconnect_interval", 0.0)):
            value = getattr(self, name)
            if value <= minimum:
                raise CliqueMapError(
                    f"ClientConfig.{name} must be > {minimum:g}, "
                    f"got {value!r}")
        if self.max_retries < 1:
            raise CliqueMapError(
                "ClientConfig.max_retries must be >= 1 (it counts "
                f"attempts, including the first), got {self.max_retries!r}")
        for name, minimum in (("retry_backoff", 0),
                              ("retry_budget_fill_rate", 0),
                              ("touch_batch_max", 1),
                              ("compression_min_bytes", 0)):
            value = getattr(self, name)
            if value < minimum:
                raise CliqueMapError(
                    f"ClientConfig.{name} must be >= {minimum}, "
                    f"got {value!r}")
        if self.retry_backoff_cap < self.retry_backoff:
            raise CliqueMapError(
                "ClientConfig.retry_backoff_cap must be >= retry_backoff, "
                f"got {self.retry_backoff_cap!r} < {self.retry_backoff!r}")


@dataclass
class OpResult:
    """Common shape of every client operation outcome.

    :class:`GetResult` and :class:`MutationResult` share this surface:
    a ``status`` enum, the end-to-end simulated ``latency``, how many
    ``attempts`` the layered retry machinery used, an ``error`` reason
    string for terminal failures, and — when tracing is enabled — the
    operation's :class:`~repro.telemetry.TraceContext` in ``trace``.

    ``source`` says which tier produced a read's answer: ``"cache"``
    (the CliqueMap tier, the only source without an attached SoR),
    ``"sor"`` (resolved by the read-through miss pipeline), or
    ``"negative"`` (a remembered-absent entry short-circuited the SoR).
    """

    status: object
    latency: float = 0.0
    attempts: int = 1
    error: Optional[str] = None
    trace: Optional[TraceContext] = None
    source: str = "cache"

    @property
    def ok(self) -> bool:
        """True unless the operation terminally failed."""
        return self.status not in (GetStatus.ERROR, SetStatus.FAILED)


@dataclass
class GetResult(OpResult):
    """Outcome of one GET."""

    status: GetStatus = GetStatus.ERROR
    value: Optional[bytes] = None
    version: Optional[VersionNumber] = None

    @property
    def hit(self) -> bool:
        return self.status is GetStatus.HIT


@dataclass
class MutationResult(OpResult):
    """Outcome of a SET/ERASE/CAS."""

    status: SetStatus = SetStatus.FAILED
    version: Optional[VersionNumber] = None
    replicas_applied: int = 0
    stored_version: Optional[VersionNumber] = None


@dataclass
class BackendView:
    """Connection-time metadata for one backend task (§3).

    Liveness is delegated to a :class:`~repro.core.resilience.
    BackendHealth` scoreboard: ``healthy`` (kept as a read-only property
    for compatibility) now means *connected and not quarantined*, so a
    flapping replica is excluded from the read cohort for a cooldown
    instead of toggling a binary flag on every error.
    """

    task: str
    host_name: str
    channel: RpcChannel
    health: BackendHealth
    config_id: int = 0
    index_region_id: int = 0
    num_buckets: int = 0
    ways: int = 0
    bucket_bytes: int = 0
    data_region_id: int = 0

    @property
    def healthy(self) -> bool:
        return self.health.available()


class _AttemptRetry(Exception):
    """Internal: this attempt failed; retry after the indicated recovery."""

    def __init__(self, reason: str, refresh_config: bool = False,
                 stale_tasks: Tuple[str, ...] = ()):
        super().__init__(reason)
        self.reason = reason
        self.refresh_config = refresh_config
        self.stale_tasks = stale_tasks


def _parent_span(trace):
    """Normalize a ``trace=`` argument (TraceContext | Span | None) to
    the parent span it designates, or None for an unparented op."""
    if trace is None:
        return None
    if isinstance(trace, TraceContext):
        return trace.root
    return trace


class CliqueMapClient:
    """One application client of a CliqueMap cell."""

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 cell_name: str, config_store: ConfigStore,
                 directory: Callable[[str], object],
                 transport: Transport,
                 principal: Optional[Principal] = None,
                 strategy: Optional[GetStrategy] = None,
                 config: Optional[ClientConfig] = None,
                 truetime: Optional[TrueTime] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 flight=None,
                 client_id: Optional[int] = None):
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.cell_name = cell_name
        self.config_store = config_store
        self.directory = directory
        self.transport = transport
        self.principal = principal or Principal(f"client@{host.name}")
        self.client_id = client_id if client_id is not None \
            else next(_client_ids)
        self.config = config or ClientConfig()
        if strategy is None:
            strategy = (GetStrategy.SCAR
                        if transport is not None and transport.supports_scar
                        else GetStrategy.TWO_R)
        self.strategy = GetStrategy.coerce(strategy)
        self.truetime = truetime or TrueTime(sim)
        self.versions = VersionFactory(self.client_id, self.truetime)

        self.cell: Optional[CellConfig] = None
        self.placement: Optional[Placement] = None
        # Target-layout placement while a resize is in flight (None
        # otherwise): reads keep their quorum on ``placement``; mutations
        # are additionally shadowed onto the target cohort.
        self.next_placement: Optional[Placement] = None
        self._views: Dict[str, BackendView] = {}
        self._pending_touches: Dict[str, List[bytes]] = {}
        self._pending_touch_count = 0
        self._touch_flusher_started = False
        self._reconnecting: set = set()
        self._config_refreshing = False
        self._closed = False
        # Miss-path coordinator; wired by Cell.attach_sor / make_client.
        # When set, cache MISSes read through to the system of record
        # and acknowledged mutations are noted for write-behind.
        self.read_through = None

        self.stats = {
            "gets": 0, "hits": 0, "misses": 0, "get_errors": 0,
            "retries": 0, "retries_shed": 0, "validation_failures": 0,
            "inquorate": 0, "config_refreshes": 0, "view_refreshes": 0,
            "sets": 0, "erases": 0, "cas": 0, "overflow_lookups": 0,
            "torn_reads": 0, "version_races": 0, "sor_hits": 0,
        }

        # Degradation machinery: decorrelated-jitter backoff (seeded per
        # client id, so runs with the same topology are reproducible) and
        # a token-bucket retry budget shared by all of this client's ops.
        self._retry_rand = RandomStream(self.client_id, "client-backoff")
        self._retry_budget = RetryBudget(
            clock=lambda: self.sim.now,
            capacity=self.config.retry_budget_capacity,
            fill_rate=self.config.retry_budget_fill_rate)

        # Telemetry: a cell-shared registry when created via Cell, a
        # private one for standalone clients; the tracer retains recent
        # operation span trees (see repro.telemetry).
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer or Tracer(clock=lambda: self.sim.now)
        # Flight recorder (cell-shared ring of structured events).
        # NULL_FLIGHT is falsy, so every hook site below guards with
        # ``if self._flight:`` and a disabled recorder costs nothing.
        self._flight = flight if flight is not None else NULL_FLIGHT
        self._flight_origin = f"client-{self.client_id}"
        self._m_ops = self.metrics.counter(
            "cliquemap_ops_total",
            "Completed client operations by op and terminal status")
        self._m_latency = self.metrics.histogram(
            "cliquemap_op_latency_seconds",
            "End-to-end operation latency by op and lookup strategy")
        self._m_retries = self.metrics.counter(
            "cliquemap_retries_total",
            "Per-attempt retries by op and hazard reason")
        self._m_touch_pending = self.metrics.gauge(
            "cliquemap_pending_touches",
            "Key touches buffered awaiting the next batched Touch RPC")
        self._m_retries_shed = self.metrics.counter(
            "cliquemap_retries_shed_total",
            "Retries refused because the client's retry budget was dry")
        self._m_quarantine = self.metrics.counter(
            "cliquemap_backend_quarantine_total",
            "Backend quarantine transitions by task and event (enter/exit)")
        self._m_batch_size = self.metrics.histogram(
            "cliquemap_batch_size_keys",
            "Keys per batched multi-key client operation")
        self._m_batch_keys = self.metrics.counter(
            "cliquemap_client_batch_keys_total",
            "Keys resolved on the batched fast path, by op")
        self._m_batch_fallback = self.metrics.counter(
            "cliquemap_batch_fallback_total",
            "Batch keys diverted to the singleton retry path, by op/reason")
        self._m_shadow = self.metrics.counter(
            "cliquemap_shadow_writes_total",
            "Dual-write shadows onto a resize target cohort, by "
            "method and outcome")

        # Pre-bound series handles for the per-op hot path. Resolving
        # ``labels(...)`` sorts and hashes the label set on every call;
        # the strategy label is fixed for the client's lifetime, so the
        # common (op, status) series are bound once here and the rest
        # memoized on first use in :meth:`_finish_op`.
        strategy = self.strategy.value
        self._h_ops = {
            (op, status): self._m_ops.labels(op=op, status=status)
            for op, status in (("get", "hit"), ("get", "miss"),
                               ("get", "error"), ("set", "applied"),
                               ("set", "failed"))}
        self._h_latency = {
            op: self._m_latency.labels(op=op, strategy=strategy)
            for op in ("get", "set", "erase", "append")}
        self._h_batched_get_latency = self._m_latency.labels(
            op="get", strategy="batched")
        self._h_batched_set_latency = self._m_latency.labels(
            op="set", strategy="batched")
        self._h_batch_size_get = self._m_batch_size.labels(op="get_multi")
        self._h_batch_size_set = self._m_batch_size.labels(op="set_multi")
        self._h_batch_keys_get = self._m_batch_keys.labels(op="get")
        self._h_batch_keys_set = self._m_batch_keys.labels(op="set")
        self._h_touch_pending = self._m_touch_pending.labels(
            client=self.client_id)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self) -> Generator:
        """Fetch cell config and handshake with every serving backend."""
        config = yield from self.config_store.get(self.cell_name)
        self._adopt_config(config)
        for task in sorted(set(self.cell.serving_tasks())):
            yield from self._build_view(task)

    def _adopt_config(self, config: CellConfig) -> None:
        """Install a config generation: rebuild the authoritative
        placement and, mid-resize, the target-layout placement too."""
        self.cell = config
        if self._flight:
            self._flight.record("config", origin=self._flight_origin,
                                config_id=config.config_id,
                                num_shards=config.num_shards,
                                resize_active=config.resize_active)
        self.placement = Placement(config.num_shards,
                                   config.mode.replicas)
        if config.resize_active:
            self.next_placement = Placement(config.resize_num_shards,
                                            config.mode.replicas)
        else:
            self.next_placement = None

    def _health_event(self, task: str, event: str) -> None:
        self._m_quarantine.labels(task=task, event=event).inc()
        if self._flight:
            self._flight.record("quarantine", origin=self._flight_origin,
                                task=task, event=event)

    def _build_view(self, task: str) -> Generator:
        backend = self.directory(task)
        view = self._views.get(task)
        new_incarnation = False
        if view is None or view.channel.server is not backend.rpc_server:
            new_incarnation = view is not None
            channel = rpc_connect(self.sim, self.fabric, self.host,
                                  backend.rpc_server, self.principal,
                                  client_component="cliquemap-client")
            health = view.health if view is not None else BackendHealth(
                task, clock=lambda: self.sim.now, policy=self.config.health,
                on_event=self._health_event)
            view = BackendView(task=task, host_name=backend.host.name,
                               channel=channel, health=health)
            self._views[task] = view
        try:
            info = yield from view.channel.call(
                "Info", {}, deadline=self.config.mutation_rpc_deadline)
        except RpcError:
            self._mark_down(view)
            return view
        view.config_id = info["config_id"]
        view.index_region_id = info["index_region_id"]
        view.num_buckets = info["num_buckets"]
        view.ways = info["ways"]
        view.bucket_bytes = info["bucket_bytes"]
        view.data_region_id = info["data_region_id"]
        # A handshake proves the control channel, not the data path: it
        # reconnects the view but does not clear quarantine — only op
        # successes do, so a gray replica cannot flap back in. The one
        # exception is a brand-new server incarnation: its predecessor's
        # failure history died with the old process.
        view.health.mark_connected()
        if new_incarnation:
            view.health.reset_for_new_incarnation()
        self.stats["view_refreshes"] += 1
        return view

    def _refresh_config(self) -> Generator:
        """Re-read cell topology from the external HA store (§6.1)."""
        self.stats["config_refreshes"] += 1
        yield from self.connect()

    def _note_stale_config(self, config_id: int) -> None:
        """A reply proved the cell moved on: refresh in the background.

        Mutation replies carry the backend's serving generation, so even
        a SET-only client (which never validates bucket headers, the
        usual discovery path) learns about resize phases and cutover.
        Deduped: one refresh in flight at a time.
        """
        if self._closed or self.cell is None:
            return
        if config_id <= self.cell.config_id or self._config_refreshing:
            return
        self._config_refreshing = True

        def refresh() -> Generator:
            try:
                yield from self._refresh_config()
            finally:
                self._config_refreshing = False

        proc = self.sim.process(refresh(),
                                name=f"config-refresh:{self.client_id}")
        proc.defused = True

    def _start_reconnect(self, task: str) -> None:
        if task in self._reconnecting:
            return
        self._reconnecting.add(task)
        proc = self.sim.process(self._reconnect_loop(task),
                                name=f"reconnect:{task}")
        proc.defused = True

    def _reconnect_loop(self, task: str) -> Generator:
        try:
            while True:
                yield self.sim.sleep(self.config.reconnect_interval)
                if task not in set(self.cell.serving_tasks()):
                    return  # task no longer serves; a refresh will rebuild
                view = yield from self._build_view(task)
                if view.health.connected:
                    # Reconnected; any remaining quarantine expires on
                    # its own cooldown (or on the next op success).
                    return
        finally:
            self._reconnecting.discard(task)

    def _replica_views(self, key_hash: bytes) -> List[BackendView]:
        """Healthy views for the key's replica cohort, shard order."""
        views = []
        for shard in self.placement.shards_for(key_hash):
            task = self.cell.task_for_shard(shard)
            view = self._views.get(task)
            if view is None:
                continue  # will be built on next config refresh
            if view.healthy:
                views.append(view)
        return views

    def _shadow_views(self, key_hash: bytes) -> List[BackendView]:
        """Target-cohort views a mutation must dual-write to (resize).

        The key's cohort under the *target* layout, minus any task that
        is already in its authoritative cohort (those get the real
        mutation). Empty when no resize is in flight.
        """
        cell = self.cell
        if cell is None or not cell.resize_active or \
                self.next_placement is None:
            return []
        exclude = {cell.task_for_shard(shard)
                   for shard in self.placement.shards_for(key_hash)}
        views = []
        for shard in self.next_placement.shards_for(key_hash):
            task = cell.migrating_to.get(shard)
            if task is None or task in exclude:
                continue
            view = self._views.get(task)
            if view is not None and view.healthy:
                views.append(view)
        return views

    def _shadow_mutate(self, view: BackendView, method: str, payload: dict,
                       payload_size: int) -> None:
        """Fire-and-forget one shadow mutation at a target-cohort task.

        Shadows never count toward the quorum (acks come only from the
        authoritative cohort) and never block the foreground op; a lost
        shadow is caught by the post-cutover reconcile sweep.
        """

        def one() -> Generator:
            try:
                yield from view.channel.call(
                    method, payload,
                    deadline=self.config.mutation_rpc_deadline,
                    request_size=payload_size)
                self._m_shadow.labels(method=method, outcome="ok").inc()
            except (PermissionDeniedError, RpcError):
                self._m_shadow.labels(method=method, outcome="error").inc()

        proc = self.sim.process(one(), name=f"shadow:{view.task}")
        proc.defused = True

    # ------------------------------------------------------------------
    # GET
    # ------------------------------------------------------------------

    def get(self, key: bytes, deadline: Optional[float] = None,
            trace=None) -> Generator:
        """Look up a key; retries transparently, returns a GetResult.

        ``trace`` (a :class:`TraceContext` or :class:`Span`, optional)
        parents this op's span tree under an enclosing operation — a
        federated fan-out or a WAN gateway serve — instead of starting
        a standalone root.
        """
        self.stats["gets"] += 1
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        key_hash = self.placement.key_hash(key)
        root = self.tracer.start("get", parent=_parent_span(trace),
                                 client=self.client_id,
                                 strategy=self.strategy.value)
        attempts, outcome, reason = yield from self._retrying(
            "get", lambda attempt: self._attempt(key, key_hash, deadline_at,
                                                 root, attempt),
            deadline_at, root,
            recover=lambda retry: self._recover_get(retry, key_hash))
        if outcome is None:
            self.stats["get_errors"] += 1
            reason = reason or "no-healthy-replicas"
            latency = self.sim.now - started
            root.annotate(error=reason).finish()
            return GetResult(GetStatus.ERROR, attempts=attempts,
                             latency=latency, error=reason,
                             trace=self._finish_op("get", "error", latency,
                                                   root))
        status, value, version = outcome
        if status is GetStatus.HIT:
            latency = self.sim.now - started
            root.finish()  # at the same instant latency is measured
            self.stats["hits"] += 1
            self._note_touch(key_hash)
            value = yield from self._decode_value(value)
            return GetResult(GetStatus.HIT, value=value, version=version,
                             attempts=attempts, latency=latency,
                             trace=self._finish_op("get", "hit", latency,
                                                   root))
        if self.read_through is not None and \
                self.read_through.policy.read_through:
            return (yield from self._read_through_miss(
                key, attempts, started, root))
        latency = self.sim.now - started
        root.finish()
        self.stats["misses"] += 1
        return GetResult(GetStatus.MISS, attempts=attempts, latency=latency,
                         trace=self._finish_op("get", "miss", latency, root))

    def _retrying(self, op: str, attempt_fn, deadline_at: float, root,
                  recover=None) -> Generator:
        """The retry driver every single-key op runs on (§4.1, §9).

        ``attempt_fn(attempt)`` is a generator that returns a terminal
        outcome or raises :class:`_AttemptRetry`. Between attempts the
        driver spends one retry-budget token (shedding the retry when
        the bucket is dry), runs ``recover(retry)`` if given, and sleeps
        a jittered backoff clipped to the deadline; the last attempt
        pays for nothing. Returns ``(attempts, outcome, reason)``:
        ``outcome`` is None when every attempt failed, and ``reason``
        then names the last hazard (or ``"budget-exhausted"``).
        """
        attempts = 0
        reason = None
        backoff = BackoffPolicy(self.config.retry_backoff,
                                self.config.retry_backoff_cap,
                                self._retry_rand)
        while attempts < self.config.max_retries and \
                self.sim.now < deadline_at:
            attempts += 1
            try:
                return attempts, (yield from attempt_fn(attempts)), None
            except _AttemptRetry as retry:
                reason = retry.reason
                self.stats["retries"] += 1
                self._m_retries.labels(op=op, reason=reason).inc()
                if self._flight:
                    self._flight.record("retry", origin=self._flight_origin,
                                        op=op, reason=reason,
                                        attempt=attempts)
                if attempts >= self.config.max_retries or \
                        self.sim.now >= deadline_at:
                    continue  # terminal: no further attempt to pay for
                if not self._retry_budget.try_spend():
                    # Budget dry: shed the retry instead of amplifying
                    # the overload; fail fast with a distinct reason.
                    self.stats["retries_shed"] += 1
                    self._m_retries_shed.labels(op=op, reason=reason).inc()
                    if self._flight:
                        self._flight.record("retry_shed",
                                            origin=self._flight_origin,
                                            op=op, reason=reason,
                                            attempt=attempts)
                    root.annotate(shed_retry=True)
                    return attempts, None, "budget-exhausted"
                recovery = root.child("retry", attempt=attempts,
                                      reason=reason)
                if recover is not None:
                    yield from recover(retry)
                delay = backoff.next_delay()
                # A backoff that would sleep past the deadline ends the
                # op now instead of burning the remaining attempts in a
                # zero-delay spin at the deadline instant.
                past_deadline = self.sim.now + delay >= deadline_at
                if delay and not past_deadline:
                    yield self.sim.sleep(delay)
                recovery.finish()
                if past_deadline:
                    break
        return attempts, None, reason

    def _recover_get(self, retry: _AttemptRetry,
                     key_hash: bytes) -> Generator:
        """GET-only recovery between attempts: rebuild stale views,
        refresh the config, and re-handshake the key's cohort."""
        for task in retry.stale_tasks:
            yield from self._build_view(task)
        if retry.refresh_config:
            yield from self._refresh_config()
        if retry.reason in ("no-healthy-replicas", "inquorate",
                            "replica-down", "replica-error"):
            # Failed-RMA retries contact backends via RPC as part of the
            # retry procedure (§4.1) — re-handshake any disconnected
            # cohort member inline rather than waiting for the background
            # reconnect loop. Quarantined members are left to cool down —
            # unless the directory shows the task restarted, in which
            # case the quarantine belongs to a dead incarnation and a
            # handshake re-admits the new one.
            for shard in self.placement.shards_for(key_hash):
                task = self.cell.task_for_shard(shard)
                view = self._views.get(task)
                if view is None or (not view.health.connected and
                                    not view.health.quarantined):
                    yield from self._build_view(task)
                elif view.channel.server is not \
                        self.directory(task).rpc_server:
                    yield from self._build_view(task)

    def _finish_op(self, op: str, status: str, latency: float,
                   root) -> Optional[TraceContext]:
        """Record terminal metrics + trace + flight event for one op."""
        self._op_counter(op, status).inc()
        latency_handle = self._h_latency.get(op)
        if latency_handle is None:
            latency_handle = self._h_latency[op] = self._m_latency.labels(
                op=op, strategy=self.strategy.value)
        latency_handle.observe(latency)
        if self._flight:
            self._flight.record("op", origin=self._flight_origin, op=op,
                                status=status, latency=latency,
                                trace_id=root.trace_id if root else None)
        if not root:  # tracing disabled: NULL_SPAN is falsy
            return None
        root.annotate(status=status)
        # Only standalone roots enter the tracer's retained history — a
        # parented op (federated fan-out leg, gateway serve) is part of
        # its enclosing trace, which is recorded by whoever started it.
        if root.parent is None:
            self.tracer.record(root)
            if root.trace_id and self.tracer.finished and \
                    self.tracer.finished[-1] is root:
                # Exemplar: link this (retained) trace to the latency
                # histogram sample it produced.
                latency_handle.exemplar(latency, root.trace_id,
                                        self.sim.now)
        return TraceContext(root)

    def _op_counter(self, op: str, status: str):
        """The ``cliquemap_ops_total`` series for (op, status), memoized."""
        handle = self._h_ops.get((op, status))
        if handle is None:
            handle = self._h_ops[(op, status)] = self._m_ops.labels(
                op=op, status=status)
        return handle

    def _read_through_miss(self, key: bytes, attempts: int, started: float,
                           root) -> Generator:
        """Resolve a cache MISS through the attached SoR coordinator.

        A fetched value is returned as a HIT with ``source="sor"`` (the
        coordinator fills the cache in the background, so the *next*
        read is a plain cache hit); an authoritative or remembered
        absence stays a MISS with the source telling the tiers apart.
        """
        span = root.child("sor.fetch")
        status, value = yield from self.read_through.fetch(key)
        span.annotate(result=status).finish()
        latency = self.sim.now - started
        root.finish()
        if status == "hit":
            self.stats["hits"] += 1
            self.stats["sor_hits"] += 1
            return GetResult(GetStatus.HIT, value=value, attempts=attempts,
                             latency=latency, source="sor",
                             trace=self._finish_op("get", "hit", latency,
                                                   root))
        self.stats["misses"] += 1
        source = "negative" if status == "negative" else "sor"
        error = {"shed": "sor-backfill-shed",
                 "error": "sor-fetch-failed"}.get(status)
        return GetResult(GetStatus.MISS, attempts=attempts, latency=latency,
                         source=source, error=error,
                         trace=self._finish_op("get", "miss", latency, root))

    def _read_through_multi(self, keys: List[bytes],
                            results: List["GetResult"]) -> Generator:
        """Drive leftover batch MISSes through the miss pipeline.

        The batched/RPC fast paths settle against the cache tier only;
        this pass fans their misses out to the coordinator (single-
        flight dedupes same-key siblings) and upgrades resolved entries
        in place. Cache-tier op metrics are untouched — SoR outcomes
        are counted by the coordinator's own families.
        """
        rt = self.read_through
        if rt is None or not rt.policy.read_through:
            return results
        miss_idx = [i for i, r in enumerate(results)
                    if r is not None and r.status is GetStatus.MISS and
                    r.source == "cache"]
        if not miss_idx:
            return results
        t0 = self.sim.now
        procs = {self.sim.process(rt.fetch(keys[i])): i for i in miss_idx}
        while procs:
            event, outcome = yield self.sim.any_of(list(procs))
            i = procs.pop(event)
            status, value = outcome
            result = results[i]
            result.latency += self.sim.now - t0
            if status == "hit":
                self.stats["sor_hits"] += 1
                result.status = GetStatus.HIT
                result.value = value
                result.source = "sor"
            else:
                result.source = "negative" if status == "negative" else "sor"
        return results

    def get_multi(self, keys: List[bytes],
                  deadline: Optional[float] = None) -> Generator:
        """Batched lookup; returns a result list aligned with ``keys``.

        On RMA strategies (2xR/SCAR) the batch takes the wire-level fast
        path (§7.1): keys are grouped by replica backend, each backend
        gets *one* coalesced index fetch carrying every wanted bucket
        address, quorum is evaluated per key over the scattered votes,
        and data is fetched per key from its first responder. Keys the
        fast path cannot settle — inquorate, stale view, failed
        validation, a quarantined cohort — fall back to the singleton
        :meth:`get` retry machinery *individually*, so one poisoned or
        slow key never aborts its batch siblings.
        """
        if not keys:
            return []
        if len(keys) >= 2 and self.cell is not None:
            if self.strategy in (GetStrategy.TWO_R, GetStrategy.SCAR) and \
                    self.transport is not None and \
                    self.cell.mode is not ReplicationMode.R2_IMMUTABLE:
                results = yield from self._batched_get_multi(keys, deadline)
                return (yield from self._read_through_multi(keys, results))
            if self.strategy is GetStrategy.RPC:
                results = yield from self._rpc_get_multi(keys, deadline)
                return (yield from self._read_through_multi(keys, results))
        return (yield self._fanout([self.get(key, deadline) for key in keys],
                                   GetResult))

    def _fanout(self, ops: List[Generator], result_cls):
        """Run each op as its own process; one event for all results.

        Per-key failure isolation: an op that raises yields a terminal
        ``result_cls`` naming the exception instead of failing its
        siblings.
        """
        def on_error(exc: Exception):
            return result_cls(error=f"unhandled-{type(exc).__name__}")

        return self.sim.all_of([self.sim.process(self._isolate(op, on_error))
                                for op in ops])

    def _isolate(self, gen: Generator, on_error) -> Generator:
        """Contain one key's failure to its own slot of a batch.

        ``sim.all_of`` fails the whole condition on the first child
        failure, discarding sibling results; batches instead map an
        unhandled per-key exception to that key's error result.
        """
        try:
            return (yield from gen)
        except Interrupt:
            raise
        except Exception as exc:
            return on_error(exc)

    def _batched_get_multi(self, keys: List[bytes],
                           deadline: Optional[float]) -> Generator:
        """The wire-level batched GET path (§7.1)."""
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        n = len(keys)
        quorum = self.cell.mode.quorum
        self._h_batch_size_get.observe(n)
        root = self.tracer.start("get_multi", client=self.client_id, batch=n)

        key_hashes = [self.placement.key_hash(key) for key in keys]
        results: List[Optional[GetResult]] = [None] * n
        fallback: Dict[int, str] = {}

        # Group every (key, bucket address) by backend task so each
        # backend serves exactly one coalesced fetch for the whole batch.
        cohorts: List[List[BackendView]] = []
        per_view: Dict[str, List[Tuple[int, int]]] = {}
        for i, key_hash in enumerate(key_hashes):
            views = self._replica_views(key_hash)
            cohorts.append(views)
            if len(views) < quorum:
                fallback[i] = "no-healthy-replicas"
                continue
            for view in views:
                _bucket, offset = self._bucket_location(view, key_hash)
                per_view.setdefault(view.task, []).append((i, offset))

        votes: List[List[ReplicaVote]] = [[] for _ in keys]
        stale: List[List[str]] = [[] for _ in keys]
        overflow_seen: List[List[bool]] = [[False] for _ in keys]
        config_mismatch = [False] * n
        decisions: List[QuorumDecision] = [
            QuorumDecision(QuorumOutcome.UNDECIDED) for _ in keys]
        asked = [len(cohort) for cohort in cohorts]

        index_span = root.child("index", batch=n, backends=len(per_view))
        pending: Dict[object, Tuple[BackendView, List[Tuple[int, int]]]] = {}
        for task, entries in per_view.items():
            view = self._views[task]
            proc = self.sim.process(self._fetch_index_batch(
                view, [offset for _i, offset in entries], index_span))
            pending[proc] = (view, entries)

        data_procs: Dict[object, Tuple[int, str]] = {}
        fetching: set = set()

        def start_data_fetch(i: int, span) -> None:
            decision = decisions[i]
            task = None
            if self.config.force_primary_data_fetch:
                for view in cohorts[i]:
                    if decision.includes(view.task):
                        task = view.task
                        break
            else:
                for vote in votes[i]:
                    if vote.kind is VoteKind.PRESENT and \
                            decision.includes(vote.task):
                        task = vote.task
                        break
            if task is None:
                task = decision.members[0]
            entry = next(v.entry for v in votes[i]
                         if v.task == task and v.kind is VoteKind.PRESENT)
            proc = self.sim.process(self._fetch_data(
                self._views[task], entry, span))
            data_procs[proc] = (i, task)
            fetching.add(i)

        # Drain the coalesced index fetches as they land, evaluating each
        # key's quorum incrementally so its data fetch starts the instant
        # its first responders agree — exactly like the singleton path,
        # but over scattered votes.
        while pending:
            event, items = yield self.sim.any_of(list(pending))
            view, entries = pending.pop(event)
            for (i, _offset), item in zip(entries, items):
                vote = self._vote_from(view, item, stale[i], key_hashes[i],
                                       overflow_seen[i])
                if item[0] == "config":
                    config_mismatch[i] = True
                votes[i].append(vote)
                self.host.charge_inline(self.config.costs.quorum_cpu,
                                        "cliquemap-client")
                if decisions[i].outcome is not QuorumOutcome.UNDECIDED:
                    continue  # this key already settled
                decisions[i] = evaluate(votes[i], asked[i], quorum)
                if decisions[i].outcome is QuorumOutcome.PRESENT:
                    if self.config.force_primary_data_fetch and not any(
                            v.task == cohorts[i][0].task for v in votes[i]):
                        # Primary/backup ablation: await the primary.
                        decisions[i] = QuorumDecision(
                            QuorumOutcome.UNDECIDED)
                        continue
                    # Speculative: this key's data fetch starts while
                    # sibling index fetches are still draining, so it is
                    # recorded under the phase that initiated it — the
                    # phase spans themselves stay contiguous.
                    start_data_fetch(i, index_span)
        index_span.finish()
        # The data phase starts at the simulated instant the index phase
        # ends, so index.duration + data.duration == op latency (the PR 1
        # sum-invariant, kept for the batched path).
        data_span = root.child("data", batch=n)

        def finish_key(i: int, status: GetStatus, value, version) -> None:
            results[i] = self._batched_get_result(
                status, value, version, self.sim.now - started,
                TraceContext(root) if root else None)

        # Keys still undecided after every vote arrived, plus misses.
        overflow_procs: Dict[object, int] = {}
        for i in range(n):
            if i in fallback or results[i] is not None:
                continue
            if decisions[i].outcome is QuorumOutcome.UNDECIDED:
                decisions[i] = evaluate(votes[i], len(votes[i]), quorum)
                if decisions[i].outcome is QuorumOutcome.PRESENT and \
                        i not in fetching:
                    start_data_fetch(i, data_span)
            outcome = decisions[i].outcome
            if outcome is QuorumOutcome.PRESENT:
                continue  # data fetch in flight
            if outcome is QuorumOutcome.ABSENT:
                if self.config.overflow_rpc_lookup and overflow_seen[i][0]:
                    view_by_task = {v.task: v for v in cohorts[i]}
                    proc = self.sim.process(self._isolate(
                        self._maybe_overflow_lookup(
                            keys[i], view_by_task, True, root),
                        lambda _exc: (GetStatus.MISS, None, None)))
                    overflow_procs[proc] = i
                else:
                    finish_key(i, GetStatus.MISS, None, None)
            elif config_mismatch[i]:
                fallback[i] = "config-mismatch"
            elif stale[i]:
                fallback[i] = "stale-view"
            else:
                fallback[i] = "inquorate"

        while data_procs:
            event, outcome = yield self.sim.any_of(list(data_procs))
            i, task = data_procs.pop(event)
            try:
                status, value, version = self._validate_data(
                    keys[i], key_hashes[i], outcome, decisions[i],
                    stale[i], task)
            except _AttemptRetry as retry:
                fallback[i] = retry.reason
                continue
            if status is GetStatus.HIT:
                self._note_touch(key_hashes[i])
                value = yield from self._decode_value(value)
            finish_key(i, status, value, version)
        data_span.finish()

        while overflow_procs:
            event, outcome = yield self.sim.any_of(list(overflow_procs))
            i = overflow_procs.pop(event)
            status, value, version = outcome
            if status is GetStatus.HIT:
                self._note_touch(key_hashes[i])
                value = yield from self._decode_value(value)
            finish_key(i, status, value, version)

        if fallback:
            # Recover shared state once, up front, so the per-key
            # singletons start from fresh views instead of each
            # re-discovering the same staleness (§4.1 retry procedure,
            # amortized over the batch).
            if any(config_mismatch[i] for i in fallback):
                yield from self._refresh_config()
            for task in sorted({task for i in fallback for task in stale[i]}):
                yield from self._build_view(task)
            yield from self._finish_batch_fallback(
                "get_multi", results, fallback, started, deadline_at,
                lambda i, remaining: self.get(keys[i], remaining), GetResult)
        self._close_batch(root, n, fallback)
        return results

    def _close_batch(self, root, n: int, fallback: Dict[int, str]) -> None:
        """Finish a batched op's root span; record it when standalone."""
        root.annotate(resolved=n - len(fallback),
                      fallback=len(fallback)).finish()
        if root and root.parent is None:
            self.tracer.record(root)

    def _batched_get_result(self, status: GetStatus, value, version,
                            latency: float, trace=None) -> GetResult:
        """Count one key a batched GET fast path settled; its result."""
        hit = status is GetStatus.HIT
        self.stats["gets"] += 1
        self.stats["hits" if hit else "misses"] += 1
        self._h_batch_keys_get.inc()
        self._h_ops[("get", "hit" if hit else "miss")].inc()
        self._h_batched_get_latency.observe(latency)
        return GetResult(status, value=value, version=version,
                         latency=latency, trace=trace)

    def _finish_batch_fallback(self, op: str, results: List[OpResult],
                               fallback: Dict[int, str], started: float,
                               deadline_at: float, single,
                               result_cls) -> Generator:
        """Run the singleton retry path, ``single(i, remaining)``, for
        each unsettled batch key; its latency includes the batch phase."""
        for reason in fallback.values():
            self._m_batch_fallback.labels(op=op, reason=reason).inc()
        prefix = self.sim.now - started
        remaining = max(1e-6, deadline_at - self.sim.now)
        ordered = sorted(fallback)
        outcomes = yield self._fanout([single(i, remaining) for i in ordered],
                                      result_cls)
        for i, result in zip(ordered, outcomes):
            result.latency += prefix  # account the batch phase too
            results[i] = result

    def _fetch_index_batch(self, view: BackendView, offsets: List[int],
                           trace=NULL_SPAN) -> Generator:
        """One coalesced index fetch; per-entry tagged outcomes.

        Returns a list aligned with ``offsets`` of the same tuples
        :meth:`_fetch_index` produces, so votes can be formed with
        :meth:`_vote_from` unchanged. Never raises: a whole-batch
        transport failure yields a ``down`` outcome for every entry.
        """
        self.host.charge_inline(self.config.costs.issue_op_cpu,
                                "cliquemap-client")
        op = trace.child("transport.read_multi", task=view.task,
                         kind="index", batch=len(offsets))
        try:
            raw_items = yield from self.transport.read_multi(
                self.host, view.host_name,
                [(view.index_region_id, offset, view.bucket_bytes)
                 for offset in offsets], trace=op)
        except (RmaError, NetworkDropError) as exc:
            return [self._leg_failed(view, op, exc)] * len(offsets)
        self._leg_ok(view, op)
        items = []
        for raw in raw_items:
            if isinstance(raw, RegionRevokedError):
                items.append(("stale", view.task, None))
                continue
            if isinstance(raw, RmaError):
                items.append(("down", view.task, None))
                continue
            items.append(self._bucket_outcome(view, raw))
        return items

    def _rpc_get_multi(self, keys: List[bytes],
                       deadline: Optional[float]) -> Generator:
        """Batched WAN/fallback lookup: one MultiLookup RPC per backend."""
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        n = len(keys)
        self._h_batch_size_get.observe(n)
        root = self.tracer.start("get_multi", client=self.client_id,
                                 batch=n, strategy="rpc")
        results: List[Optional[GetResult]] = [None] * n
        fallback: Dict[int, str] = {}
        per_view: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            views = self._replica_views(self.placement.key_hash(key))
            if not views:
                fallback[i] = "no-healthy-replicas"
                continue
            per_view.setdefault(views[0].task, []).append(i)

        def one(view: BackendView, idxs: List[int]) -> Generator:
            lookup_span = root.child("rpc-multilookup", task=view.task,
                                     batch=len(idxs))
            try:
                reply = yield from view.channel.call(
                    "MultiLookup", {"keys": [keys[i] for i in idxs]},
                    deadline=max(1e-6, deadline_at - self.sim.now),
                    request_size=sum(len(keys[i]) for i in idxs) + 64,
                    trace=lookup_span)
            except RpcError:
                return None
            finally:
                lookup_span.finish()
            view.health.record_success()
            return reply.get("results", [])

        procs = {self.sim.process(one(self._views[task], idxs)): idxs
                 for task, idxs in per_view.items()}
        while procs:
            event, replies = yield self.sim.any_of(list(procs))
            idxs = procs.pop(event)
            if replies is None:
                for i in idxs:
                    fallback[i] = "rpc-replica-unavailable"
                continue
            latency = self.sim.now - started
            for i, reply in zip(idxs, replies):
                if reply.get("found"):
                    value = yield from self._decode_value(reply["value"])
                    results[i] = self._batched_get_result(
                        GetStatus.HIT, value,
                        VersionNumber.unpack(reply["version"]), latency)
                else:
                    results[i] = self._batched_get_result(
                        GetStatus.MISS, None, None, latency)
        if fallback:
            yield from self._finish_batch_fallback(
                "get_multi", results, fallback, started, deadline_at,
                lambda i, remaining: self.get(keys[i], remaining), GetResult)
        self._close_batch(root, n, fallback)
        return results

    # -- one attempt ---------------------------------------------------------

    def _attempt(self, key: bytes, key_hash: bytes, deadline_at: float,
                 span=NULL_SPAN, attempt: int = 1) -> Generator:
        try:
            if self.strategy is GetStrategy.RPC:
                return (yield from self._attempt_rpc(key, key_hash,
                                                     deadline_at, span,
                                                     attempt))
            if self.strategy is GetStrategy.MSG:
                return (yield from self._attempt_msg(key, key_hash, span,
                                                     attempt))
            views = self._replica_views(key_hash)
            quorum = self.cell.mode.quorum
            if len(views) < quorum:
                raise _AttemptRetry("no-healthy-replicas")
            if self.cell.mode is ReplicationMode.R2_IMMUTABLE:
                return (yield from self._attempt_serial(key, key_hash, views,
                                                        span, attempt))
            if self.strategy is GetStrategy.SCAR:
                return (yield from self._attempt_scar(key, key_hash, views,
                                                      quorum, span, attempt))
            return (yield from self._attempt_2xr(key, key_hash, views,
                                                 quorum, span, attempt))
        except _AttemptRetry as retry:
            if retry.reason.startswith("validation"):
                self.stats["validation_failures"] += 1
            if retry.reason == "inquorate":
                self.stats["inquorate"] += 1
            raise

    def _collect_votes(self, views: List[BackendView], quorum: int, fetch,
                       key_hash: bytes, span, on_vote=None,
                       await_primary: bool = False) -> Generator:
        """Fan ``fetch`` out to every replica; gather votes until the
        quorum settles, then close ``span`` (the fetch phase).

        ``on_vote(view, vote)`` sees each vote as it lands. With
        ``await_primary`` (the primary/backup ablation) a settled quorum
        still waits for the logical primary's vote. Raises
        :class:`_AttemptRetry` when no quorum formed; otherwise returns
        ``(decision, votes, results, stale, overflow_seen)`` with
        ``results`` the raw fetch outcome per voting task.
        """
        pending = {self.sim.process(fetch(view, key_hash, span)): view
                   for view in views}
        votes: List[ReplicaVote] = []
        results: Dict[str, tuple] = {}
        stale: List[str] = []
        overflow_seen = [False]
        config_mismatch = False
        decision = QuorumDecision(QuorumOutcome.UNDECIDED)
        while pending:
            event, result = yield self.sim.any_of(list(pending))
            view = pending.pop(event)
            vote = self._vote_from(view, result, stale, key_hash,
                                   overflow_seen)
            if result[0] == "config":
                config_mismatch = True
            votes.append(vote)
            results[view.task] = result
            if on_vote is not None:
                on_vote(view, vote)
            self.host.charge_inline(self.config.costs.quorum_cpu,
                                    "cliquemap-client")
            decision = evaluate(votes, len(views), quorum)
            if decision.outcome in (QuorumOutcome.PRESENT,
                                    QuorumOutcome.ABSENT):
                if await_primary and \
                        not any(v.task == views[0].task for v in votes):
                    continue  # primary/backup ablation: await the primary
                break

        if decision.outcome is QuorumOutcome.UNDECIDED:
            decision = evaluate(votes, len(votes), quorum)
        span.finish()  # quorum settled: the fetch phase is over
        self._raise_for_failures(decision, stale, config_mismatch)
        return decision, votes, results, stale, overflow_seen[0]

    def _attempt_2xr(self, key: bytes, key_hash: bytes,
                     views: List[BackendView], quorum: int,
                     span=NULL_SPAN, attempt: int = 1) -> Generator:
        """Index fetch from all replicas; data from the first responder.

        Phase spans (``index`` → ``data`` → ``validate``) are contiguous:
        each starts the simulated instant the previous one ends, so their
        durations sum to the attempt's share of the op latency.
        """
        index_span = span.child("index", attempt=attempt)
        view_by_task = {view.task: view for view in views}
        preferred_task: Optional[str] = None
        data_proc = None
        data_task: Optional[str] = None
        force_primary = self.config.force_primary_data_fetch

        def speculate(view: BackendView, vote: ReplicaVote) -> None:
            nonlocal preferred_task, data_proc, data_task
            if preferred_task is None and vote.kind is not VoteKind.ERROR \
                    and (not force_primary or view.task == views[0].task):
                preferred_task = view.task
                if vote.kind is VoteKind.PRESENT:
                    # Speculative data fetch from the first responder (or
                    # from the logical primary under the ablation). Its
                    # transport span lands under the *index* phase — the
                    # phase that initiated the speculation.
                    data_proc = self.sim.process(
                        self._fetch_data(view, vote.entry, index_span))
                    data_task = view.task

        decision, votes, _results, stale, overflow_seen = \
            yield from self._collect_votes(views, quorum, self._fetch_index,
                                           key_hash, index_span, speculate,
                                           await_primary=force_primary)

        if decision.outcome is QuorumOutcome.ABSENT:
            if data_proc is not None:
                data_proc.defused = True
            return (yield from self._maybe_overflow_lookup(
                key, view_by_task, overflow_seen, span, attempt))

        # PRESENT: the data must come from a quorum member at the quorumed
        # version (§5.1 condition 4).
        data_span = span.child("data", attempt=attempt)
        if data_task is None or data_task not in decision.members:
            if data_proc is not None:
                data_proc.defused = True  # speculation failed; ignore it
            if force_primary:
                # Primary/backup-style: insist on the primary when it is
                # in the quorum, paying its latency even when slow.
                primary = views[0].task
                data_task = primary if primary in decision.members \
                    else decision.members[0]
            else:
                data_task = decision.members[0]
            entry = next(v.entry for v in votes if v.task == data_task)
            data_proc = self.sim.process(self._fetch_data(
                view_by_task[data_task], entry, data_span))
        result = yield data_proc
        data_span.finish()
        validate_span = span.child("validate", attempt=attempt)
        try:
            return self._validate_data(key, key_hash, result, decision,
                                       stale, data_task)
        finally:
            validate_span.finish()

    def _attempt_scar(self, key: bytes, key_hash: bytes,
                      views: List[BackendView], quorum: int,
                      span=NULL_SPAN, attempt: int = 1) -> Generator:
        """SCAR to all replicas: one round trip, three full data copies."""
        scar_span = span.child("index", attempt=attempt, op="scar")
        decision, votes, results, stale, overflow_seen = \
            yield from self._collect_votes(views, quorum, self._fetch_scar,
                                           key_hash, scar_span)
        view_by_task = {view.task: view for view in views}
        if decision.outcome is QuorumOutcome.ABSENT:
            return (yield from self._maybe_overflow_lookup(
                key, view_by_task, overflow_seen, span, attempt))

        # Prefer validating a copy fetched from a quorum member.
        validate_span = span.child("validate", attempt=attempt)
        cost = self.config.costs
        for task in decision.members:
            raw = results[task][3]
            if raw is None:
                continue
            outcome = self._try_validate(key, key_hash, raw, decision)
            yield self.host.execute(
                cost.validate_cpu + len(raw) / 1024.0 * cost.validate_per_kb,
                "cliquemap-client")
            if outcome is not None:
                validate_span.finish()
                return outcome
        validate_span.finish()
        # No SCAR copy validated. If the NIC-side scan followed a pointer
        # into a superseded (reshaped) window it returns the bucket only;
        # fall back to a client-side data fetch, which can converge to the
        # currently-advertised window.
        entry_by_task = {v.task: v.entry for v in votes
                         if v.kind is VoteKind.PRESENT}
        for task in decision.members:
            entry = entry_by_task.get(task)
            if entry is None:
                continue
            data_span = span.child("data", attempt=attempt)
            result = yield from self._fetch_data(view_by_task[task], entry,
                                                 data_span)
            data_span.finish()
            return self._validate_data(key, key_hash, result, decision,
                                       stale, task)
        raise _AttemptRetry("validation-torn-or-stale", stale_tasks=())

    def _attempt_serial(self, key: bytes, key_hash: bytes,
                        views: List[BackendView], span=NULL_SPAN,
                        attempt: int = 1) -> Generator:
        """R=1 / R=2-immutable: consult one replica, fall back on failure."""
        last_reason = "no-healthy-replicas"
        for view in views:
            overflow_seen = [False]
            index_span = span.child("index", attempt=attempt, task=view.task)
            result = yield from self._fetch_index(view, key_hash, index_span)
            index_span.finish()
            vote = self._vote_from(view, result, [], key_hash, overflow_seen)
            if result[0] == "config":
                raise _AttemptRetry("config-mismatch", refresh_config=True)
            if vote.kind is VoteKind.ERROR:
                last_reason = "replica-error"
                continue
            if vote.kind is VoteKind.ABSENT:
                return (yield from self._maybe_overflow_lookup(
                    key, {view.task: view}, overflow_seen[0], span, attempt))
            data_span = span.child("data", attempt=attempt, task=view.task)
            data_result = yield from self._fetch_data(view, vote.entry,
                                                      data_span)
            data_span.finish()
            decision = QuorumDecision(QuorumOutcome.PRESENT,
                                      version=vote.version,
                                      members=(view.task,), unanimous=True)
            try:
                return self._validate_data(key, key_hash, data_result,
                                           decision, [], view.task)
            except _AttemptRetry as retry:
                last_reason = retry.reason
                continue
        raise _AttemptRetry(last_reason)

    def _attempt_msg(self, key: bytes, key_hash: bytes, span=NULL_SPAN,
                     attempt: int = 1) -> Generator:
        """Two-sided messaging lookup through the software NIC (Fig 7).

        Cheaper than a full RPC, but wakes a server application thread —
        the CPU cost SCAR exists to avoid (§6.3).
        """
        views = self._replica_views(key_hash)
        if not views:
            raise _AttemptRetry("no-healthy-replicas")
        for view in views:
            self.host.charge_inline(self.config.costs.issue_op_cpu,
                                    "cliquemap-client")
            msg_span = span.child("msg", attempt=attempt, task=view.task)
            try:
                reply = yield from self.transport.message(
                    self.host, view.host_name, "cliquemap-lookup",
                    len(key) + 64, {"key": key}, trace=msg_span)
            except (RemoteHostDownError, RmaError, NetworkDropError):
                msg_span.annotate(outcome="down").finish()
                self._mark_down(view)
                continue
            finally:
                msg_span.finish()
            view.health.record_success()
            self.host.charge_inline(self.config.costs.completion_cpu,
                                    "cliquemap-client")
            if not reply.get("found"):
                return GetStatus.MISS, None, None
            if reply.get("key") != key:
                return GetStatus.MISS, None, None  # hash collision guard
            return (GetStatus.HIT, reply["value"],
                    VersionNumber.unpack(reply["version"]))
        raise _AttemptRetry("replica-down")

    def _attempt_rpc(self, key: bytes, key_hash: bytes, deadline_at: float,
                     span=NULL_SPAN, attempt: int = 1) -> Generator:
        """Two-sided lookup via the RPC framework (WAN / fallback)."""
        views = self._replica_views(key_hash)
        if not views:
            raise _AttemptRetry("no-healthy-replicas")
        for view in views:
            lookup_span = span.child("rpc-lookup", attempt=attempt,
                                     task=view.task)
            try:
                reply = yield from view.channel.call(
                    "Lookup", {"key": key},
                    deadline=max(1e-6, deadline_at - self.sim.now),
                    trace=lookup_span)
            except RpcError:
                continue
            finally:
                lookup_span.finish()
            if not reply.get("found"):
                return GetStatus.MISS, None, None
            version = VersionNumber.unpack(reply["version"])
            return GetStatus.HIT, reply["value"], version
        raise _AttemptRetry("rpc-replicas-unavailable")

    # -- fetch helpers ---------------------------------------------------------

    def _leg_failed(self, view: BackendView, op, exc: Exception) -> tuple:
        """Close a failed RMA leg's span and tag its outcome: a revoked
        region is ``stale``, anything else means the backend is down.

        A down backend is recorded at the leg, not at vote collection:
        once a quorum settles, the losing legs are abandoned — but a
        gray (lossy) replica's failures must still feed the health
        scoreboard or it never trips quarantine while the quorum keeps
        masking it.
        """
        if isinstance(exc, RegionRevokedError):
            op.annotate(outcome="stale").finish()
            return ("stale", view.task, None)
        op.annotate(outcome="down").finish()
        self._mark_down(view)
        return ("down", view.task, None)

    def _leg_ok(self, view: BackendView, op) -> None:
        """Close a successful RMA leg: span, completion CPU, health."""
        op.finish()
        self.host.charge_inline(self.config.costs.completion_cpu,
                                "cliquemap-client")
        view.health.record_success()

    def _mark_down(self, view: BackendView) -> None:
        """The backend is unreachable: drop the view from its cohorts
        and reconnect in the background."""
        view.health.mark_down()
        self._start_reconnect(view.task)

    def _bucket_location(self, view: BackendView,
                         key_hash: bytes) -> Tuple[int, int]:
        bucket = int.from_bytes(key_hash[:8], "little") % view.num_buckets
        return bucket, bucket * view.bucket_bytes

    def _fetch_index(self, view: BackendView, key_hash: bytes,
                     trace=NULL_SPAN) -> Generator:
        """RMA-read one bucket; returns a tagged outcome tuple (never raises)."""
        _bucket, offset = self._bucket_location(view, key_hash)
        self.host.charge_inline(self.config.costs.issue_op_cpu,
                                "cliquemap-client")
        op = trace.child("transport.read", task=view.task, kind="index")
        try:
            raw = yield from self.transport.read(
                self.host, view.host_name, view.index_region_id, offset,
                view.bucket_bytes, trace=op)
        except (RmaError, NetworkDropError) as exc:
            return self._leg_failed(view, op, exc)
        self._leg_ok(view, op)
        return self._bucket_outcome(view, raw)

    @staticmethod
    def _bucket_outcome(view: BackendView, raw: bytes) -> tuple:
        """Tag one fetched bucket: ``stale`` (bad magic: the region was
        reused), ``config`` (another config generation) or ``ok``."""
        parsed = parse_bucket(raw, view.ways)
        if not parsed.magic_ok:
            return ("stale", view.task, None)
        if parsed.config_id != view.config_id:
            return ("config", view.task, parsed.config_id)
        return ("ok", view.task, parsed)

    def _fetch_scar(self, view: BackendView, key_hash: bytes,
                    trace=NULL_SPAN) -> Generator:
        _bucket, offset = self._bucket_location(view, key_hash)
        self.host.charge_inline(self.config.costs.issue_op_cpu,
                                "cliquemap-client")
        op = trace.child("transport.scar", task=view.task)
        try:
            bucket_raw, data_raw = yield from self.transport.scar(
                self.host, view.host_name, view.index_region_id, offset,
                view.bucket_bytes, key_hash, trace=op)
        except (RmaError, NetworkDropError) as exc:
            return self._leg_failed(view, op, exc)
        self._leg_ok(view, op)
        return self._bucket_outcome(view, bucket_raw) + (data_raw,)

    def _fetch_data(self, view: BackendView, entry,
                    trace=NULL_SPAN) -> Generator:
        self.host.charge_inline(self.config.costs.issue_op_cpu,
                                "cliquemap-client")
        op = trace.child("transport.read", task=view.task, kind="data")
        try:
            try:
                raw = yield from self.transport.read(
                    self.host, view.host_name, entry.region_id, entry.offset,
                    entry.size, trace=op)
            except RegionRevokedError:
                # The entry's window was superseded by a data-region
                # reshape. Windows overlap the same virtually-contiguous
                # pool (§4.1), so the offset is still valid through the
                # currently-advertised window — converge to it, perhaps
                # after a view refresh.
                if view.data_region_id == entry.region_id:
                    raise
                raw = yield from self.transport.read(
                    self.host, view.host_name, view.data_region_id,
                    entry.offset, entry.size, trace=op)
        except (RmaError, NetworkDropError) as exc:
            return self._leg_failed(view, op, exc)
        self._leg_ok(view, op)
        return ("ok", view.task, raw)

    # -- vote/validation helpers ------------------------------------------------

    def _vote_from(self, view: BackendView, result, stale: List[str],
                   key_hash: bytes, overflow_seen: List[bool]
                   ) -> ReplicaVote:
        kind = result[0]
        if kind == "ok":
            parsed: ParsedBucket = result[2]
            if parsed.overflow:
                overflow_seen[0] = True
            entry = parsed.find(key_hash)
            if entry is None:
                return ReplicaVote.absent(view.task)
            return ReplicaVote.present(view.task, entry)
        if kind == "stale":
            stale.append(view.task)
        # "down" health was already recorded at the leg (_leg_failed);
        # "config" is collected by the caller.
        return ReplicaVote.error(view.task)

    def _raise_for_failures(self, decision: QuorumDecision,
                            stale: List[str], config_mismatch: bool) -> None:
        if decision.outcome in (QuorumOutcome.PRESENT, QuorumOutcome.ABSENT):
            return
        if config_mismatch:
            raise _AttemptRetry("config-mismatch", refresh_config=True,
                                stale_tasks=tuple(stale))
        if stale:
            raise _AttemptRetry("stale-view", stale_tasks=tuple(stale))
        raise _AttemptRetry("inquorate")

    def _try_validate(self, key: bytes, key_hash: bytes, raw: bytes,
                      decision: QuorumDecision):
        """Full §5.1 validation; returns a result tuple or None."""
        entry = try_decode(raw)
        if entry is None:
            self.stats["torn_reads"] += 1    # structurally torn
            return None
        if not entry.checksum_ok(key_hash):
            self.stats["torn_reads"] += 1    # torn read
            return None
        if entry.key != key:
            return GetStatus.MISS, None, None  # 128-bit hash collision
        if decision.version is not None and entry.version != decision.version:
            self.stats["version_races"] += 1  # raced a newer mutation
            return None
        return GetStatus.HIT, entry.value, entry.version

    def _validate_data(self, key: bytes, key_hash: bytes, result,
                       decision: QuorumDecision, stale: List[str],
                       data_task: str):
        kind = result[0]
        if kind == "stale":
            raise _AttemptRetry("stale-view", stale_tasks=(data_task,))
        if kind == "down":
            raise _AttemptRetry("replica-down")
        raw = result[2]
        outcome = self._try_validate(key, key_hash, raw, decision)
        if outcome is None:
            raise _AttemptRetry("validation-torn-or-stale",
                                stale_tasks=tuple(stale))
        return outcome

    def _maybe_overflow_lookup(self, key: bytes,
                               view_by_task: Dict[str, BackendView],
                               overflow_seen: bool, span=NULL_SPAN,
                               attempt: int = 1) -> Generator:
        """On a miss under an overflowed bucket, optionally try RPC (§4.2)."""
        if self.config.overflow_rpc_lookup and overflow_seen:
            self.stats["overflow_lookups"] += 1
            overflow_span = span.child("overflow", attempt=attempt)
            try:
                for view in view_by_task.values():
                    try:
                        reply = yield from view.channel.call(
                            "Lookup", {"key": key},
                            deadline=self.config.mutation_rpc_deadline,
                            trace=overflow_span)
                    except RpcError:
                        continue
                    if reply.get("found"):
                        return (GetStatus.HIT, reply["value"],
                                VersionNumber.unpack(reply["version"]))
            finally:
                overflow_span.finish()
        return GetStatus.MISS, None, None

    # ------------------------------------------------------------------
    # Transparent value compression (§9)
    # ------------------------------------------------------------------

    _RAW = b"\x00"
    _ZLIB = b"\x01"

    def _encode_value(self, value: bytes) -> Generator:
        """Wrap (and maybe compress) a value for storage."""
        if not self.config.compression_enabled:
            return value
        if len(value) >= self.config.compression_min_bytes:
            yield self.host.execute(
                len(value) / 1024.0 * self.config.compress_cpu_per_kb,
                "cliquemap-client")
            compressed = zlib.compress(value)
            if len(compressed) < len(value):
                return self._ZLIB + compressed
        return self._RAW + value

    def _decode_value(self, stored: Optional[bytes]) -> Generator:
        """Unwrap a stored value; inverse of :meth:`_encode_value`."""
        if not self.config.compression_enabled or stored is None:
            return stored
        if not stored:
            return stored
        scheme, body = stored[:1], stored[1:]
        if scheme == self._ZLIB:
            yield self.host.execute(
                len(body) / 1024.0 * self.config.decompress_cpu_per_kb,
                "cliquemap-client")
            return zlib.decompress(body)
        return body

    # ------------------------------------------------------------------
    # Mutations (§5.2)
    # ------------------------------------------------------------------

    def _note_write_behind(self, key: bytes,
                           value: Optional[bytes]) -> Generator:
        """Propagate an acknowledged mutation to the SoR (write-behind).

        Values are noted *raw* (pre-compression): the SoR stores
        application bytes, and a later read-through fill re-encodes
        them under the filling client's corpus convention. ``None``
        notes an erase (a delete marker flushes to the SoR). When the
        dirty buffer is full the write degrades to synchronous
        write-through instead of being dropped.
        """
        rt = self.read_through
        if rt is None:
            return
        if not rt.note_write(key, value):
            yield from rt.write_through(key, value)

    def set(self, key: bytes, value: bytes,
            deadline: Optional[float] = None, trace=None) -> Generator:
        """SET via RPC to all replicas with a fresh VersionNumber."""
        return (yield from self._mutate("set", key, value, deadline, trace))

    def erase(self, key: bytes,
              deadline: Optional[float] = None, trace=None) -> Generator:
        """ERASE via RPC; tombstoned so late SETs cannot resurrect (§5.2)."""
        return (yield from self._mutate("erase", key, None, deadline,
                                        trace))

    def _mutate(self, op: str, key: bytes, value: Optional[bytes],
                deadline: Optional[float], trace) -> Generator:
        """SET (``value`` given) or ERASE on the retry driver.

        Each attempt nominates a fresh version and sends one mutation RPC
        to every replica. A quorum of applied replies acknowledges the
        op; a quorum of refusals means a newer mutation already won
        (SUPERSEDED). An ERASE counts any refusal toward that quorum, a
        SET only replies whose reason is ``superseded``.
        """
        self.stats[op + "s"] += 1
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        root = self.tracer.start(op, parent=_parent_span(trace),
                                 client=self.client_id)
        method = "Set" if value is not None else "Erase"
        payload = {"key": key}
        payload_size = len(key) + 64
        if value is not None:
            payload["value"] = yield from self._encode_value(value)
            payload_size += len(payload["value"])
        key_hash = self.placement.key_hash(key)
        quorum = self.cell.mode.quorum
        last = [None, 0]  # the latest attempt's version and applied count

        def attempt(n: int) -> Generator:
            version = last[0] = self.versions.next()
            replies = yield from self._mutate_all(
                method, dict(payload, version=version.pack()), key_hash,
                payload_size, root, n)
            applied = last[1] = sum(1 for r in replies
                                    if r is not None and r.get("applied"))
            superseded = sum(1 for r in replies if r is not None and
                             not r.get("applied") and
                             (value is None or
                              r.get("reason") == "superseded"))
            if applied >= quorum:
                return SetStatus.APPLIED
            if superseded >= quorum:
                return SetStatus.SUPERSEDED
            raise _AttemptRetry("inquorate")

        attempts, status, reason = yield from self._retrying(
            op, attempt, deadline_at, root)
        latency = self.sim.now - started
        root.finish()
        if status is SetStatus.APPLIED:
            # Acked at quorum: the SoR learns of it via write-behind (or a
            # sync write-through when the buffer is full); the op's
            # acknowledged latency is the cache-tier latency.
            yield from self._note_write_behind(key, value)
        status = status or SetStatus.FAILED
        return MutationResult(status, version=last[0],
                              replicas_applied=last[1], latency=latency,
                              attempts=attempts, error=reason,
                              trace=self._finish_op(op, status.name.lower(),
                                                    latency, root))

    def set_multi(self, items: List[Tuple[bytes, bytes]],
                  deadline: Optional[float] = None) -> Generator:
        """Batched SETs; returns a result list aligned with ``items``.

        Mutations to the same backend coalesce into one multi-entry
        ``MultiSet`` RPC (backfill jobs depend on this, §7.1): the RPC
        dispatch and the client's mutation CPU are paid once per
        (backend, batch) instead of once per key. Quorum is still counted
        per key, and keys that miss quorum retry through the singleton
        :meth:`set` path without disturbing their siblings.
        """
        if not items:
            return []
        if len(items) < 2 or self.cell is None:
            return (yield self._fanout([self.set(key, value, deadline)
                                        for key, value in items],
                                       MutationResult))
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        n = len(items)
        quorum = self.cell.mode.quorum
        self._h_batch_size_set.observe(n)
        root = self.tracer.start("set_multi", client=self.client_id, batch=n)
        # The "build" phase covers the batch's client-side CPU (mutation
        # build + value encoding); "mutate" then starts the instant it
        # ends, so phase durations sum to the op latency (the PR 1
        # sum-invariant, kept for the batched path).
        build_span = root.child("build", batch=n)
        # One mutation-build charge for the whole batch — the per-op CPU
        # the coalesced path amortizes.
        yield self.host.execute(self.config.costs.mutation_cpu,
                                "cliquemap-client")
        encoded: List[bytes] = []
        versions: List[VersionNumber] = []
        for _key, value in items:
            encoded.append((yield from self._encode_value(value)))
            versions.append(self.versions.next())
        build_span.finish()

        def multiset(idxs: List[int]) -> Tuple[dict, int]:
            entries = [[items[i][0], encoded[i], versions[i].pack()]
                       for i in idxs]
            size = sum(len(items[i][0]) + len(encoded[i])
                       for i in idxs) + 64 + 24 * len(idxs)
            return {"entries": entries}, size

        results: List[Optional[MutationResult]] = [None] * n
        fallback: Dict[int, str] = {}
        per_view: Dict[str, List[int]] = {}
        per_shadow: Dict[str, List[int]] = {}
        for i, (key, _value) in enumerate(items):
            key_hash = self.placement.key_hash(key)
            views = self._replica_views(key_hash)
            for shadow in self._shadow_views(key_hash):
                per_shadow.setdefault(shadow.task, []).append(i)
            if not views:
                fallback[i] = "no-healthy-replicas"
                continue
            for view in views:
                per_view.setdefault(view.task, []).append(i)
        # Dual-write shadows: fire-and-forget MultiSets at the resize
        # target cohort; never counted toward per-key quorum below.
        for task, idxs in per_shadow.items():
            self._shadow_mutate(self._views[task], "MultiSet",
                                *multiset(idxs))
        applied = [0] * n
        superseded = [0] * n
        span = root.child("mutate", method="MultiSet",
                          backends=len(per_view))
        procs = {self.sim.process(self._isolate(
            self._call_replica(self._views[task], "MultiSet",
                               *multiset(idxs), span),
            lambda _exc: None)): idxs
            for task, idxs in per_view.items()}
        while procs:
            event, reply = yield self.sim.any_of(list(procs))
            idxs = procs.pop(event)
            if reply is None:
                continue
            for i, outcome in zip(idxs, reply.get("results", [])):
                if outcome.get("applied"):
                    applied[i] += 1
                elif outcome.get("reason") == "superseded":
                    superseded[i] += 1
        span.finish()

        for i in range(n):
            if i in fallback:
                continue
            self.host.charge_inline(self.config.costs.quorum_cpu,
                                    "cliquemap-client")
            latency = self.sim.now - started
            if applied[i] >= quorum:
                status = SetStatus.APPLIED
                yield from self._note_write_behind(items[i][0], items[i][1])
            elif superseded[i] >= quorum:
                status = SetStatus.SUPERSEDED
            else:
                fallback[i] = "inquorate"
                continue
            self.stats["sets"] += 1
            self._h_batch_keys_set.inc()
            self._op_counter("set", status.name.lower()).inc()
            self._h_batched_set_latency.observe(latency)
            results[i] = MutationResult(
                status, version=versions[i], replicas_applied=applied[i],
                latency=latency,
                trace=TraceContext(root) if root else None)

        if fallback:
            yield from self._finish_batch_fallback(
                "set_multi", results, fallback, started, deadline_at,
                lambda i, remaining: self.set(items[i][0], items[i][1],
                                              remaining),
                MutationResult)
        self._close_batch(root, n, fallback)
        return results

    def cas(self, key: bytes, value: bytes, expected: VersionNumber,
            deadline: Optional[float] = None, trace=None) -> Generator:
        """Compare-and-set: install only if the stored version matches.

        Not retried (a conflict is the answer); every replica RPC is cut
        short at the op deadline.
        """
        self.stats["cas"] += 1
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        root = self.tracer.start("cas", parent=_parent_span(trace),
                                 client=self.client_id)
        raw_value = value
        value = yield from self._encode_value(value)
        version = self.versions.next()
        replies = yield from self._mutate_all(
            "Cas", {"key": key, "value": value, "new_version": version.pack(),
                    "expected_version": expected.pack()},
            self.placement.key_hash(key), len(key) + len(value) + 96, root,
            deadline_at=deadline_at)
        applied = sum(1 for r in replies
                      if r is not None and r.get("applied"))
        latency = self.sim.now - started
        root.finish()
        stored = max((VersionNumber.unpack(r["stored_version"])
                      for r in replies
                      if r is not None and "stored_version" in r),
                     default=None)
        if applied >= self.cell.mode.quorum:
            yield from self._note_write_behind(key, raw_value)
            return MutationResult(SetStatus.APPLIED, version=version,
                                  replicas_applied=applied, latency=latency,
                                  trace=self._finish_op("cas", "applied",
                                                        latency, root))
        return MutationResult(SetStatus.FAILED, version=version,
                              replicas_applied=applied, latency=latency,
                              stored_version=stored,
                              error="inquorate" if stored is None
                              else "cas-conflict",
                              trace=self._finish_op("cas", "failed", latency,
                                                    root))

    def append(self, key: bytes, suffix: bytes,
               deadline: Optional[float] = None) -> Generator:
        """Append to a value: a new mutation type built as a CAS loop (§9).

        Uncoordinated per-replica read-modify-write would diverge, so the
        append is resolved at the client: each attempt GETs, extends and
        CASes against the observed version (or SETs when the key is
        absent), within what is left of the op deadline. A lost race is
        retried on the retry driver like any other hazard.
        """
        started = self.sim.now
        deadline_at = started + (deadline or self.config.default_deadline)
        root = self.tracer.start("append", client=self.client_id)

        def attempt(_n: int) -> Generator:
            current = yield from self.get(
                key, max(1e-6, deadline_at - self.sim.now), trace=root)
            if current.status is GetStatus.ERROR:
                raise _AttemptRetry(current.error)
            remaining = max(1e-6, deadline_at - self.sim.now)
            if current.status is GetStatus.MISS:
                # Creation race: a plain SET; a concurrent newer mutation
                # simply supersedes us, and we retry.
                result = yield from self.set(key, suffix, remaining,
                                             trace=root)
            else:
                result = yield from self.cas(key, current.value + suffix,
                                             current.version, remaining,
                                             trace=root)
            if result.status is not SetStatus.APPLIED:
                raise _AttemptRetry(result.error or "cas-conflict")
            return result

        attempts, result, reason = yield from self._retrying(
            "append", attempt, deadline_at, root)
        latency = self.sim.now - started
        root.finish()
        if result is None:
            result = MutationResult(SetStatus.FAILED, error=reason)
        result.latency = latency
        result.attempts = attempts
        result.trace = self._finish_op("append", result.status.name.lower(),
                                       latency, root)
        return result

    def _mutate_all(self, method: str, payload: dict, key_hash: bytes,
                    payload_size: int, span=NULL_SPAN, attempt: int = 1,
                    deadline_at: Optional[float] = None) -> Generator:
        """Issue one mutation RPC to every replica; None for failures."""
        yield self.host.execute(self.config.costs.mutation_cpu,
                                "cliquemap-client")
        views = self._replica_views(key_hash)
        for shadow in self._shadow_views(key_hash):
            self._shadow_mutate(shadow, method, payload, payload_size)
        if not views:
            return []
        fanout_span = span.child("mutate", attempt=attempt, method=method)
        replies = yield self.sim.all_of([
            self.sim.process(self._call_replica(view, method, payload,
                                                payload_size, fanout_span,
                                                deadline_at))
            for view in views])
        fanout_span.finish()
        return replies

    def _call_replica(self, view: BackendView, method: str, payload: dict,
                      size: int, span=NULL_SPAN,
                      deadline_at: Optional[float] = None) -> Generator:
        """One mutation RPC to one replica: the reply, or None on failure.

        The RPC deadline is ``mutation_rpc_deadline``, cut to the time
        left before ``deadline_at`` when given. Owns the replica-call
        failure classification: a permission denial is not retryable
        and leaves health alone; any other RPC failure marks the view
        down (and starts a reconnect) when the directory says the task
        died, else counts against its health.
        """
        deadline = self.config.mutation_rpc_deadline
        if deadline_at is not None:
            deadline = min(deadline, max(1e-6, deadline_at - self.sim.now))
        try:
            reply = yield from view.channel.call(
                method, payload, deadline=deadline, request_size=size,
                trace=span)
        except PermissionDeniedError:
            return None
        except RpcError:
            if self.directory and not self.directory(view.task).alive:
                self._mark_down(view)
            else:
                view.health.record_failure()
            return None
        view.health.record_success()
        reply_config = reply.get("config_id")
        if reply_config is not None and reply_config > self.cell.config_id:
            self._note_stale_config(reply_config)
        return reply

    # ------------------------------------------------------------------
    # Touch reporting (§4.2)
    # ------------------------------------------------------------------

    def _note_touch(self, key_hash: bytes) -> None:
        if not self.config.touch_enabled or self._closed:
            return
        pending = self._pending_touches
        for shard in self.placement.shards_for(key_hash):
            task = self.cell.task_for_shard(shard)
            bucket = pending.get(task)
            if bucket is None:
                bucket = pending[task] = []
            bucket.append(key_hash)
            self._pending_touch_count += 1
        self._update_touch_gauge()
        if not self._touch_flusher_started:
            self._touch_flusher_started = True
            proc = self.sim.process(self._touch_flusher(),
                                    name=f"touch-flush:{self.client_id}")
            proc.defused = True

    def _update_touch_gauge(self) -> None:
        # A running count instead of summing every bucket: this fires on
        # each touched key, which on a hit-heavy workload is every GET.
        self._h_touch_pending.set(self._pending_touch_count)

    def _touch_flusher(self) -> Generator:
        """Background batch reporting of accesses, amortizing RPC cost."""
        while not self._closed:
            yield self.sim.sleep(self.config.touch_flush_interval)
            yield from self._flush_touches_once()

    def _flush_touches_once(self) -> Generator:
        """Report every buffered touch batch now (one sweep)."""
        pending, self._pending_touches = self._pending_touches, {}
        self._pending_touch_count = 0
        self._update_touch_gauge()
        for task, hashes in pending.items():
            view = self._views.get(task)
            if view is None or not view.healthy:
                continue
            for i in range(0, len(hashes), self.config.touch_batch_max):
                batch = hashes[i:i + self.config.touch_batch_max]
                try:
                    yield from view.channel.call(
                        "Touch", {"key_hashes": batch},
                        deadline=self.config.mutation_rpc_deadline,
                        request_size=16 * len(batch) + 32)
                except RpcError:
                    break

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def backend_health(self, task: str) -> Optional[BackendHealth]:
        view = self._views.get(task)
        return view.health if view is not None else None

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush buffered touches and release this client's telemetry.

        Safe to call repeatedly. When the simulator is idle (the usual
        case: test/benchmark code closing a client between ``sim.run``
        calls) the final Touch flush is driven to completion inside the
        simulation; when called from within a running simulation the
        flusher process performs the sweep instead.
        """
        if self._closed:
            return
        if any(self._pending_touches.values()) and \
                not getattr(self.sim, "_running", False):
            self.sim.run(until=self.sim.process(self._flush_touches_once()))
        self._closed = True
        self._m_touch_pending.remove(client=self.client_id)

    def __enter__(self) -> "CliqueMapClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
