"""Run-level result caching with a byte bound and a sqlite tier.

The semantic harnesses (consistency, NTI, coordination-freeness, CALM)
quantify over *every* fair run, so they repeatedly execute the same
``(network, transducer, partition, seed, kwargs)`` cells: the NTI probe
re-runs the consistency grid per topology, the CALM diagnostic re-runs
the NTI grid *and* evaluates the computed query on dozens of instances,
and a CI job re-runs yesterday's whole suite.  A seeded
:class:`~repro.net.run.RunResult` is a pure function of that tuple —
the same independence observation that made the PR 3 sweeps parallel
also makes whole runs memoizable.

:class:`RunCache` is a store of finished run results keyed on
``(kind, network, transducer-fingerprint, partition-digest, seed,
run-kwargs)``.  :func:`repro.net.executor.sweep_runs` (and through it
every checker) short-circuits cached cells with the stored result —
property-tested bit-identical to a fresh run.  The cache also keeps
:class:`~repro.net.convergence.ConvergenceMemo` snapshots per
transducer fingerprint.  It is a small storage *hierarchy*:
``max_bytes=`` turns the in-memory store into an LRU keyed by last hit
(hits promote, inserts evict the stalest entry) that weighs each entry
by its pickled size — the honest unit, since a heartbeat-probe
frozenset and a traced ``RunResult`` differ by orders of magnitude —
and ``disk_path=`` adds a sqlite tier *below* that bound, so eviction
demotes entries to disk instead of discarding them and a memory miss
promotes them back.  The sqlite file is the cache's only persistence:
``close()`` spills the memory tier and the memo snapshots into it, and
a later session warms up by opening the same file.  Workers inside a
parallel sweep get a read-mostly :meth:`RunCache.worker_view` whose
fresh recordings travel back as deltas for the parent to merge (the
same journal discipline the convergence memo uses).  An
evict-then-recompute cycle is property-tested bit-identical to an
unbounded cache (results are pure functions of their keys, so an
eviction costs time, never correctness).

Fingerprints are the soundness boundary: a cache entry recorded for
one transducer must never be served to a different one.
:func:`transducer_fingerprint` hashes a canonical description of the
schema and every query (rules, formulas, arities), so two structurally
identical transducers — e.g. ``transitive_closure_transducer()`` built
in two different processes — share entries, which is exactly what lets
CI start warm from a persisted cache.  Query objects that cannot be
described canonically (closures, ad-hoc ``Query`` subclasses) fall
back to a session-local fingerprint: caching still works within the
process, and such entries never reach the sqlite file (a silent wrong
hit is impossible, a cold start is merely slow).  Partitions are keyed
by :func:`partition_digest` — canonical sorted-fact digests — so
differently-ordered but equal instances (the monotonicity probes
regenerate theirs per diagnostic) land on the same cell, and keys stay
compact strings instead of pinning whole partition object graphs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pathlib
import pickle
import sqlite3
import sys
import threading
import warnings

from ..lang.query import EmptyQuery, FOQuery, PythonQuery, Query
from ..lang.ucq import UCQNegQuery
from .convergence import ConvergenceMemo
from .faults import FaultPlan
from .network import Network
from .partition import HorizontalPartition

__all__ = [
    "RunCache",
    "instance_digest",
    "partition_digest",
    "resolve_run_cache",
    "run_key",
    "runtime_token",
    "shared_run_cache",
    "transducer_fingerprint",
]

_CACHE_FORMAT = "repro-runcache"
_CACHE_VERSION = 4

_RUNTIME_TOKEN = None
_RUNTIME_TOKEN_LOCK = threading.Lock()


def runtime_token() -> str:
    """A digest of the library's own source code.

    A ``RunResult`` is a pure function of its key *under one runtime*:
    change the scheduler's RNG draws, the delivery semantics, or the
    query evaluator, and the same key maps to a different result.
    The sqlite tier therefore stamps its file with this token, and
    :class:`_DiskTier` purges a file written by different code — a
    stale CI cache after any source change is a cold start, never
    served.  In-memory caching is unaffected.

    First-call initialization is double-checked under a lock: two
    service handler threads racing here used to both walk the source
    tree and interleave the module-level write.  The token itself is
    deterministic, so the race was wasteful rather than wrong — but a
    long-running server hits it on every cold start, and the disk tier
    stamps files with the result mid-computation.
    """
    global _RUNTIME_TOKEN
    token = _RUNTIME_TOKEN
    if token is None:
        with _RUNTIME_TOKEN_LOCK:
            if _RUNTIME_TOKEN is None:
                import repro

                root = pathlib.Path(repro.__file__).parent
                digest = hashlib.sha256()
                for path in sorted(root.rglob("*.py")):
                    digest.update(str(path.relative_to(root)).encode())
                    digest.update(path.read_bytes())
                _RUNTIME_TOKEN = digest.hexdigest()
            token = _RUNTIME_TOKEN
    return token


# ---------------------------------------------------------------------------
# Transducer fingerprints
# ---------------------------------------------------------------------------


class _Unfingerprintable(Exception):
    """Raised when a query has no canonical cross-process description."""


def _code_digest(code) -> str:
    """A digest of a function's bytecode (nested code objects included),
    so editing the function's *body* changes its fingerprint even
    though its name stays put."""
    digest = hashlib.sha256()

    def feed(c) -> None:
        digest.update(c.co_code)
        digest.update(repr(c.co_names).encode())
        digest.update(repr(c.co_varnames).encode())
        for const in c.co_consts:
            if hasattr(const, "co_code"):
                feed(const)
            elif isinstance(const, frozenset):
                # Set-literal consts iterate in hash order, which is
                # PYTHONHASHSEED-randomized per process; sort for a
                # canonical rendering.
                digest.update(repr(sorted(const, key=repr)).encode())
            else:
                digest.update(repr(const).encode())

    feed(code)
    return digest.hexdigest()[:16]


def _default_token(value) -> str:
    """A canonical rendering of one default argument value.

    Scalars whose repr is canonical (:data:`_DIGESTABLE_TYPES`), plus
    tuples and frozensets of them, recursively; anything richer has no
    cross-process identity and raises :class:`_Unfingerprintable`
    (the caller falls back to a session-local ``mem:`` fingerprint —
    a wrong hit stays impossible, persistence is merely skipped).
    """
    if type(value) in _DIGESTABLE_TYPES:
        return f"{type(value).__name__}:{value!r}"
    if type(value) is tuple:
        return "(" + ",".join(_default_token(v) for v in value) + ")"
    if type(value) is frozenset:
        # Hash-order iteration is PYTHONHASHSEED-randomized; sort.
        return "{" + ",".join(sorted(_default_token(v) for v in value)) + "}"
    raise _Unfingerprintable(
        f"default value {value!r} of type {type(value).__name__} has no "
        f"canonical rendering"
    )


def _python_query_token(query: PythonQuery) -> str:
    """A token for a PythonQuery wrapping an importable module-level
    function (pickle's criterion for function identity), salted with
    the function's bytecode digest so a changed body never serves the
    old body's cached results; closures and lambdas have no stable
    cross-process identity and must not be persisted.

    Default argument values are part of the salt: ``f(x, limit=10)``
    and ``f(x, limit=20)`` share ``__code__`` bit for bit, so salting
    only the bytecode served the old default's cached results after an
    edit.  Defaults without a canonical rendering make the whole query
    unfingerprintable (``mem:`` fallback), never a silent stale hit.
    """
    func = query.func
    module = sys.modules.get(getattr(func, "__module__", None))
    qualname = getattr(func, "__qualname__", "")
    if module is None or getattr(module, qualname, None) is not func:
        raise _Unfingerprintable(f"non-module-level function {qualname!r}")
    head = (
        f"py:{func.__module__}.{qualname}/{query.arity}"
        f"#{_code_digest(func.__code__)}"
    )
    defaults = func.__defaults__ or ()
    kwdefaults = func.__kwdefaults__ or {}
    if not defaults and not kwdefaults:
        return head
    tokens = [_default_token(v) for v in defaults]
    tokens += [
        f"{name}={_default_token(v)}"
        for name, v in sorted(kwdefaults.items())
    ]
    salt = hashlib.sha256("\x1f".join(tokens).encode()).hexdigest()[:16]
    return f"{head}!{salt}"


def _query_token(query: Query) -> str:
    """A canonical, deterministic description of one transducer query.

    Deterministic across processes: built from rule/formula reprs
    (stable AST dataclasses) and sorted schema names — never from
    ``hash()`` (randomized per process) or object identity.
    """
    token = getattr(query, "cache_token", None)
    if token is not None:
        return str(token() if callable(token) else token)
    if isinstance(query, EmptyQuery):
        return f"empty/{query.arity}"
    if isinstance(query, FOQuery):
        answers = ",".join(v.name for v in query.answer_vars)
        return f"fo[{answers}]{{{query.formula!r}}}"
    if isinstance(query, UCQNegQuery):
        rules = " ; ".join(repr(rule) for rule in query.rules)
        return f"{type(query).__name__}[{rules}]"
    if isinstance(query, PythonQuery):
        return _python_query_token(query)
    # Program-backed queries (Datalog, nonrecursive, stratified) all
    # carry a .program with a .rules tuple of AST Rule objects.
    program = getattr(query, "program", None)
    rules = getattr(program, "rules", None)
    if rules is not None:
        body = " ; ".join(repr(rule) for rule in rules)
        output = getattr(query, "output", "")
        return f"{type(query).__name__}:{output}[{body}]"
    raise _Unfingerprintable(type(query).__name__)


_SESSION_TOKENS = itertools.count()


def transducer_fingerprint(transducer) -> str:
    """A stable identity token for *transducer*'s semantics.

    ``sha256:…`` fingerprints are canonical — equal for structurally
    identical transducers, across processes — and safe to persist.
    ``mem:…`` fingerprints (some query had no canonical description)
    are unique per transducer object and per process: same-session
    cache hits still work, persisted entries never match again.

    The token is computed once and cached on the transducer (it ships
    with the pickle, so forked/pooled workers agree with the parent).
    """
    token = getattr(transducer, "_runcache_fingerprint", None)
    if token is None:
        try:
            parts = [repr(transducer.schema)]
            for role, query in transducer.all_queries():
                parts.append(f"{role}={_query_token(query)}")
            digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
            token = f"sha256:{digest}"
        except _Unfingerprintable:
            token = f"mem:{os.getpid()}:{next(_SESSION_TOKENS)}"
        transducer._runcache_fingerprint = token
    return token


def program_fingerprint(program) -> str:
    """The canonical fingerprint of a Dedalus program (rule reprs are
    deterministic ASTs, so this is always persistable)."""
    parts = [repr(program.edb_schema)]
    parts.extend(repr(rule) for rule in program.rules)
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return f"sha256:{digest}"


# ---------------------------------------------------------------------------
# Canonical instance / partition digests
# ---------------------------------------------------------------------------


class _Undigestable(ValueError):
    """Raised when a value has no canonical, collision-free rendering."""


#: Exact types whose repr is canonical and injective (within the type,
#: and across these types once the type name is mixed in).  ``dom``
#: admits *any* hashable, and an arbitrary object's repr does not
#: determine its identity — two distinct values could render alike and
#: silently collide; those fall back to true-equality keys instead.
_DIGESTABLE_TYPES = (bool, int, float, str, bytes, type(None))


def _value_token(value) -> str:
    if type(value) not in _DIGESTABLE_TYPES:
        raise _Undigestable(
            f"dom value {value!r} of type {type(value).__name__} has no "
            f"canonical digest rendering"
        )
    return f"{type(value).__name__}:{value!r}"


def instance_digest(instance) -> str:
    """A canonical sorted-fact digest of one instance.

    Deterministic across processes and across construction orders:
    facts are rendered from typed value tokens, sorted, and mixed with
    the schema's canonical repr — so two equal instances, however
    their fact sets were built, always digest identically, and
    distinct instances never collide (typed tokens are injective,
    SHA-256 does the rest).  Values outside the canonically
    renderable types (:data:`_DIGESTABLE_TYPES`) raise
    ``ValueError`` — callers like :func:`run_key` fall back to
    true-equality keys, mirroring the conservative ``mem:``
    fingerprint fallback: a wrong hit is impossible, canonicalization
    is merely skipped.  The digest is cached on the immutable
    instance.
    """
    cached = getattr(instance, "_digest", None)
    if cached is not None:
        return cached
    tokens = sorted(
        f"{f.relation}({','.join(_value_token(v) for v in f.values)})"
        for f in instance.facts()
    )
    digest = hashlib.sha256()
    digest.update(repr(instance.schema).encode())
    for token in tokens:
        # Length-prefix every token: bare concatenation let the byte
        # stream of two facts re-parse as one differently-split fact
        # (relation names and str dom values admit arbitrary
        # characters), making distinct instances digest identically.
        encoded = token.encode()
        digest.update(f"{len(encoded)}:".encode())
        digest.update(encoded)
    value = digest.hexdigest()[:24]
    object.__setattr__(instance, "_digest", value)
    return value


def partition_digest(partition: HorizontalPartition) -> str:
    """A canonical digest of one horizontal partition.

    Built from the per-node fragment digests in sorted node order, so
    it identifies *which facts sit where* and nothing else — the
    partition's identity for run-cache purposes.  Using digests
    instead of the partition objects themselves keeps cache keys
    compact (no key pins a whole partition object graph) and makes the
    cross-harness key-reuse canonical: the CALM monotonicity probes
    regenerate their instances per diagnostic, and differently-ordered
    but equal instances land on the same cell.
    Raises ``ValueError`` when a node or dom value has no canonical
    rendering (see :func:`instance_digest`); cached on the partition.
    """
    cached = getattr(partition, "_digest", None)
    if cached is not None:
        return cached
    node_tokens = sorted(
        (_value_token(node), instance_digest(partition.fragment(node)))
        for node in partition.nodes
    )
    digest = hashlib.sha256()
    for token, fragment_digest in node_tokens:
        # Same length framing as instance_digest: a node token must
        # never borrow bytes from its neighbour's fragment digest.
        encoded = token.encode()
        digest.update(f"{len(encoded)}:".encode())
        digest.update(encoded)
        digest.update(f"{len(fragment_digest)}:".encode())
        digest.update(fragment_digest.encode())
    value = "hp:" + digest.hexdigest()[:24]
    object.__setattr__(partition, "_digest", value)
    return value


def run_key(
    kind: str,
    network,
    fingerprint: str,
    partition,
    seed,
    run_kwargs: dict,
) -> tuple:
    """The cache key of one run cell.

    *kind* names the schedule family (``"fair-random"``,
    ``"heartbeat-only"``, ``"dedalus"`` …) so differently shaped runs
    of the same cell never collide.  A :class:`HorizontalPartition` is
    canonicalized to its :func:`partition_digest` (pre-digested
    strings pass through); partitions carrying values with no
    canonical rendering stay in the key as objects, compared by true
    set equality — correctness never rests on the digest.  Networks
    are hashable value objects; *run_kwargs* is frozen into sorted
    items.
    """
    if isinstance(partition, HorizontalPartition):
        try:
            partition = partition_digest(partition)
        except _Undigestable:
            pass
    return (
        kind,
        network,
        fingerprint,
        partition,
        seed,
        tuple(sorted(run_kwargs.items())),
    )


# ---------------------------------------------------------------------------
# The disk tier
# ---------------------------------------------------------------------------


def _network_text(network) -> str:
    """A canonical text rendering of a Network (nodes and edges in
    sorted token order — ``__reduce__`` iterates frozenset edges in
    hash order, which is per-process)."""
    nodes = ",".join(_value_token(n) for n in network.sorted_nodes())
    edges = ";".join(
        sorted(
            "~".join(sorted(_value_token(v) for v in edge))
            for edge in network.edges
        )
    )
    return f"net:{network.name}[{nodes}][{edges}]"


def _key_part_text(part) -> str:
    if isinstance(part, Network):
        return _network_text(part)
    if isinstance(part, FaultPlan):
        # The plan's canonical token renders every field in fixed
        # order, so equal plans share disk cells and distinct plans
        # (or clean runs, which carry no plan at all) never collide.
        return part.token()
    if type(part) is tuple:
        return "(" + ",".join(_key_part_text(p) for p in part) + ")"
    if isinstance(part, str) and part.startswith("mem:"):
        # Session-local fingerprints must never be served across
        # processes, and the sqlite file outlives this one.
        raise _Undigestable("session-local mem: fingerprint")
    return _value_token(part)


#: The sqlite tables: the format/runtime stamp, then the purgeable rows.
_TABLES = ("meta", "entries", "memos")

#: What a damaged file raises: sqlite's own errors, and the decode
#: error the ``sqlite3`` module raises for a schema page that is no
#: longer valid UTF-8.
_DAMAGE = (sqlite3.DatabaseError, UnicodeDecodeError)

#: Bytes of the checksum that prefixes every row value.
_SEAL_BYTES = 16


def _seal(key: str, blob: bytes) -> bytes:
    """The checksum of one row: a digest over its key *and* its value,
    so a damaged value, or an intact value reached under the wrong key
    (a damaged index), never passes."""
    digest = hashlib.blake2b(digest_size=_SEAL_BYTES)
    encoded = key.encode()
    digest.update(len(encoded).to_bytes(8, "big"))
    digest.update(encoded)
    digest.update(blob)
    return digest.digest()


def _disk_key_text(key: tuple) -> str | None:
    """The canonical text rendering of a :func:`run_key`, or None when
    the key has no cross-process rendering (``mem:`` fingerprints,
    partitions kept as objects, exotic dom values) — such cells simply
    never spill to disk.
    """
    try:
        return "|".join(_key_part_text(part) for part in key)
    except (_Undigestable, TypeError):
        return None


class _DiskTier:
    """The sqlite tier below the in-memory bound — and the cache's only
    persistence.

    Two tables hold the rows: ``entries`` maps the canonical
    :func:`run_key` text to the pickled value, and ``memos`` maps a
    transducer fingerprint to its pickled convergence-memo entries.
    The file is stamped with the format version and the
    :func:`runtime_token` of the code that wrote it, and :meth:`_open`
    is the one place that stamp is checked: a file written under a
    different format or different library source is purged with a
    :class:`RuntimeWarning` — results are pure functions of their key
    only under one runtime, so a stale file degrades to a cold tier,
    never a wrong hit.

    Damage degrades, never crashes: a corrupt or truncated file at
    open is warned about, deleted and recreated fresh; if even that
    fails — or sqlite errors mid-session — the tier disables itself
    (gets miss, puts discard) and the cache continues memory-only.
    Every row value is prefixed with a checksum over its key and its
    pickle (:func:`_seal`), because sqlite does not checksum its pages:
    a row that fails the check is a miss with a warning, never a
    decoder error and never a wrong hit, and the recomputed value
    overwrites it at the next spill.  A long sweep must survive a bad
    disk, and the tier is only ever an accelerator.

    The tier is thread-safe: the connection is opened with
    ``check_same_thread=False`` (sqlite's default refuses any use from
    a thread other than the opener — the first cross-thread ``get``
    from a service handler used to raise ``ProgrammingError``) and
    every connection touch, including :meth:`close` and the
    ``_disable`` error path, holds one tier-level lock, so a close
    racing an in-flight read waits for it instead of yanking the
    handle out from under the cursor.
    """

    def __init__(self, path):
        self.path = str(path)
        self._conn = None
        # One lock for every connection touch: sqlite serializes its
        # own C-level access, but _disable/close must not race a get()
        # between the None-check and the execute.
        self._lock = threading.RLock()
        try:
            self._conn = self._open()
        except _DAMAGE as exc:
            warnings.warn(
                f"run-cache disk tier {self.path!r} is corrupt ({exc}); "
                "purging and starting a fresh tier",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                os.remove(self.path)
            except OSError:
                pass
            try:
                self._conn = self._open()
            except _DAMAGE:
                self._disable("could not be recreated")

    def _open(self):
        # check_same_thread=False: the tier outlives the thread that
        # opened it (a service submits jobs from a handler thread and
        # reads from orchestrator workers); cross-thread use is safe
        # because every touch holds self._lock.
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            for table in _TABLES:
                conn.execute(
                    f"CREATE TABLE IF NOT EXISTS {table} "
                    "(k TEXT PRIMARY KEY, v BLOB)"
                )
            layout = f"{_CACHE_FORMAT}/{_CACHE_VERSION}/"
            stamp = layout + runtime_token()
            row = conn.execute(
                "SELECT v FROM meta WHERE k = 'runtime'"
            ).fetchone()
            if row is None or row[0] != stamp:
                for table in _TABLES[1:]:
                    conn.execute(f"DELETE FROM {table}")
                conn.execute(
                    "INSERT OR REPLACE INTO meta (k, v) VALUES ('runtime', ?)",
                    (stamp,),
                )
            conn.commit()
            if row is not None and row[0] != stamp:
                reason = (
                    "a different runtime version"
                    if str(row[0]).startswith(layout)
                    else "a different file format"
                )
                warnings.warn(
                    f"run-cache disk tier {self.path!r} was written by "
                    f"{reason}; purged it and starting a cold tier",
                    RuntimeWarning,
                    stacklevel=4,
                )
        except BaseException:
            conn.close()
            raise
        return conn

    def _disable(self, why: str) -> None:
        warnings.warn(
            f"run-cache disk tier {self.path!r} {why}; "
            "disabling the tier (the cache continues memory-only)",
            RuntimeWarning,
            stacklevel=4,
        )
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None

    def get(self, key: str, table: str = "entries") -> bytes | None:
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    f"SELECT v FROM {table} WHERE k = ?", (key,)
                ).fetchone()
            except _DAMAGE as exc:
                self._disable(f"failed mid-session ({exc})")
                return None
        if row is None:
            return None
        sealed = row[0]
        if isinstance(sealed, bytes):
            blob = sealed[_SEAL_BYTES:]
            if sealed[:_SEAL_BYTES] == _seal(key, blob):
                return blob
        warnings.warn(
            f"run-cache disk tier {self.path!r} holds a damaged {table} "
            "row; treating it as a miss",
            RuntimeWarning,
            stacklevel=4,
        )
        return None

    def put(self, entries, memos=()) -> None:
        """Write entry rows and memo rows — ``(key, pickle)`` pairs,
        sealed here — in one transaction (one commit, however many
        rows)."""
        entries = [(k, _seal(k, blob) + blob) for k, blob in entries]
        memos = [(k, _seal(k, blob) + blob) for k, blob in memos]
        with self._lock:
            if self._conn is None:
                return
            try:
                with self._conn:
                    self._conn.executemany(
                        "INSERT OR REPLACE INTO entries (k, v) VALUES (?, ?)",
                        entries,
                    )
                    self._conn.executemany(
                        "INSERT OR REPLACE INTO memos (k, v) VALUES (?, ?)",
                        memos,
                    )
            except _DAMAGE as exc:
                self._disable(f"failed mid-session ({exc})")

    def __len__(self) -> int:
        with self._lock:
            if self._conn is None:
                return 0
            try:
                return self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()[0]
            except _DAMAGE as exc:
                self._disable(f"failed mid-session ({exc})")
                return 0

    def close(self) -> None:
        # Safe against concurrent in-flight reads: a get() holds the
        # lock across its execute, so close() waits its turn instead
        # of closing the handle under a live cursor.
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


# ---------------------------------------------------------------------------
# The run-level cache
# ---------------------------------------------------------------------------


#: Weight charged to a value that cannot be pickled (it still occupies
#: memory, so it must still count against a byte budget).
_NOMINAL_WEIGHT = 1024


def _pickled(value) -> bytes | None:
    """*value*'s pickle, or None when it cannot be pickled."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def _weigh(value) -> int:
    """The byte weight of one cached value: its pickled size — the one
    size measure that is well-defined for every value shape the cache
    holds (RunResults, frozensets, Dedalus traces), and exactly the
    size of the value's sqlite row."""
    blob = _pickled(value)
    return len(blob) if blob is not None else _NOMINAL_WEIGHT


def _disk_row(key: tuple, value) -> tuple[str, bytes] | None:
    """The sqlite row of one entry, or None when it must not spill (no
    canonical key rendering, or an unpicklable value)."""
    text = _disk_key_text(key)
    if text is None:
        return None
    blob = _pickled(value)
    return None if blob is None else (text, blob)


class RunCache:
    """A store of finished run results, keyed by :func:`run_key`.

    One cache may serve many transducers — the fingerprint in the key
    is the isolation boundary, unlike :class:`ConvergenceMemo` which
    is scoped to a single transducer.  Values are whatever the
    recording harness produced for the cell (a
    :class:`~repro.net.run.RunResult` for fair-run sweeps, an output
    frozenset for heartbeat probes, a ``DedalusTrace`` for distributed
    Dedalus cells); callers must treat returned objects as immutable —
    they are shared, not copied.

    *max_bytes* bounds the store as an LRU keyed by last hit, weighing
    every entry by its pickled size: a :meth:`get` hit promotes its
    entry to most-recent, a :meth:`record` past the budget evicts the
    least-recently-used entries until the total fits (``evictions``
    counts them), and an entry larger than the whole budget is simply
    not kept in memory.  ``None`` (the default) leaves the store
    unbounded.  Because every value is a pure function of its key,
    eviction is always safe — a later miss on an evicted key
    recomputes the identical value (property-tested).

    *disk_path* opens a sqlite file **below** the in-memory bound:
    eviction *demotes* the entry to disk (``demotions``) when its key
    has a canonical cross-process rendering, and a memory miss checks
    disk before giving up — a disk hit counts as a cache hit and
    *promotes* the entry back into memory (``promotions``) unless it
    alone exceeds the budget.  The file is the cache's only
    persistence: :meth:`close` spills the memory tier and the memo
    snapshots into it, and a later session — a restarted server, the
    next CI job — starts warm by opening the same path.  The file is
    guarded by :func:`runtime_token`, so a stale file degrades to a
    cold tier.  The tier is process-local plumbing: pickling drops it
    (worker copies are memory-only).

    The cache also keeps per-fingerprint convergence-memo snapshots
    (:meth:`store_memo` / :meth:`memo_for`), so the one file restores
    both the run results *and* the quiescence certificates a warm CI
    job needs.

    The cache is **thread-safe**: one reentrant lock guards every
    mutation path — :meth:`get` (LRU promotion + counters),
    :meth:`record`, eviction/demotion, the journal, merges and
    :meth:`close`'s spill.  Unlocked, two orchestrator workers
    interleaving ``get``/``record`` could corrupt the recency dict
    mid-promotion (``del`` then re-insert is two steps), double-evict
    one key (both pop the same front entry, the ``bytes`` ledger
    drifts), or lose counter increments (``+=`` is a read-modify-write)
    — exactly what a verification service sharing one cache across
    concurrent jobs flushed out.  Counter arithmetic from outside the
    class goes through :meth:`bump` so it lands under the same lock.
    """

    def __init__(self, max_bytes: int | None = None, disk_path=None):
        if max_bytes is not None:
            max_bytes = int(max_bytes)
            if max_bytes < 1:
                raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        # Reentrant: record() -> _evict_over_bound() -> _disk demotion
        # all run under one acquisition; dropped by __reduce__ (worker
        # copies build their own).
        self._lock = threading.RLock()
        self.entries: dict[tuple, object] = {}
        #: key -> pickled size; ``bytes`` is the running total.
        self._weights: dict[tuple, int] = {}
        self.bytes = 0
        #: fingerprint -> ConvergenceMemo entry dict
        self.memos: dict[str, dict] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: In-grid duplicate cells resolved without consulting the
        #: store (see CacheSplice) — neither hits nor misses.
        self.cache_dedup = 0
        #: Worker-side hits on a shared worker_view, merged back by
        #: the parent sweep.
        self.shared_hits = 0
        self.evictions = 0
        self.demotions = 0
        self.promotions = 0
        self._journal: dict | None = None
        self.disk_path = str(disk_path) if disk_path is not None else None
        self._disk = _DiskTier(disk_path) if disk_path is not None else None

    def __len__(self) -> int:
        return len(self.entries)

    def bump(self, counter: str, n: int = 1) -> None:
        """Atomically add *n* to a named counter (``cache_dedup``,
        ``shared_hits``…).  ``+=`` on the attribute is a
        read-modify-write that loses increments under concurrent
        sweeps; external counter arithmetic routes through here so it
        shares the cache's own lock."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def get(self, key: tuple):
        """The cached result for *key* (None on miss), counting.

        A hit promotes the entry to most-recently-used, so the LRU
        bound evicts by last *hit*, not last insert.  With a disk
        tier, a memory miss falls through to disk; a disk hit counts
        as a cache hit and promotes the entry back into memory (the
        row stays — the disk tier is a superset, not a spill-once).
        """
        with self._lock:
            value = self.entries.get(key)
            if value is not None:
                self.cache_hits += 1
                # Promotion: dicts iterate in insertion order, so
                # re-inserting makes insertion order *recency* order —
                # eviction pops the front, i.e. the least recently hit
                # entry.
                del self.entries[key]
                self.entries[key] = value
                return value
            if self._disk is not None:
                value = self._disk_get(key)
            if value is None:
                self.cache_misses += 1
            else:
                self.cache_hits += 1
            return value

    def _disk_get(self, key: tuple):
        # Caller (get) holds the lock.
        text = _disk_key_text(key)
        blob = self._disk.get(text) if text is not None else None
        if blob is None:
            return None
        value = pickle.loads(blob)
        # The row is the value's pickle, so its length is the entry's
        # weight.  An entry heavier than the whole budget is served
        # from disk without a promotion: inserting it would only evict
        # it again at once and rewrite its row on every hit.
        if self.max_bytes is None or len(blob) <= self.max_bytes:
            self.promotions += 1
            self._insert(key, value, len(blob))
            self._evict_over_bound()
        return value

    def record(self, key: tuple, value) -> None:
        with self._lock:
            self._insert(key, value)
            if self._journal is not None:
                self._journal[key] = value
            self._evict_over_bound()

    def _insert(self, key: tuple, value, weight: int | None = None) -> None:
        """Insert *value* as most-recent, keeping the weight ledger
        exact on re-insert."""
        old = self._weights.pop(key, None)
        if old is not None:
            del self.entries[key]
            self.bytes -= old
        if weight is None:
            weight = _weigh(value)
        self.entries[key] = value
        self._weights[key] = weight
        self.bytes += weight

    def _evict_over_bound(self) -> None:
        if self.max_bytes is None:
            return
        while self.bytes > self.max_bytes and self.entries:
            key = next(iter(self.entries))
            value = self.entries.pop(key)
            self.bytes -= self._weights.pop(key)
            self.evictions += 1
            if self._disk is not None:
                row = _disk_row(key, value)
                if row is not None:
                    self._disk.put([row])
                    self.demotions += 1

    # -- the shared worker tier ------------------------------------------

    def start_journal(self) -> None:
        """Start (or reset) journalling: every :meth:`record` from now
        on is also kept aside for :meth:`drain_new` — the worker side
        of the delta protocol, mirroring ``ConvergenceMemo``."""
        with self._lock:
            self._journal = {}

    def drain_new(self) -> dict:
        """The entries recorded since the journal (re)started; resets
        the journal."""
        with self._lock:
            delta, self._journal = self._journal or {}, {}
        return delta

    def worker_view(self) -> "RunCache":
        """A read-mostly snapshot for one sweep's workers.

        The view shares the (immutable) cached values but none of the
        bounds or tiers: workers only ever add to their copy, journal
        every fresh recording, and ship the delta back with their memo
        delta for the parent to :meth:`merge_worker_delta` — so a
        sibling's result computed earlier in the same sweep serves
        later tasks instead of re-missing per worker.
        """
        view = RunCache()
        with self._lock:
            view.entries = dict(self.entries)
            view._weights = dict(self._weights)
            view.bytes = self.bytes
        view.start_journal()
        return view

    def merge_worker_delta(self, delta: dict) -> int:
        """Fold one worker's journalled recordings in; returns the
        number of new entries.  Existing entries win on overlap (under
        one runtime, overlapping values are identical)."""
        added = 0
        with self._lock:
            for key, value in delta.items():
                if key not in self.entries:
                    self._insert(key, value)
                    added += 1
            if added:
                self._evict_over_bound()
        return added

    def close(self) -> None:
        """Spill the memory tier and the memo snapshots into the sqlite
        file (when present) in one transaction, and close its handle
        (idempotent; the cache keeps working memory-only afterwards).

        The shutdown spill is what makes the file a complete warm
        start: eviction-time demotion only covers cells that *left*
        memory, so without it the most recently used cells — exactly
        the ones a client is most likely to resubmit — would die with
        the process.  Spilled entries count as demotions; ``mem:``
        fingerprints and object keys never reach the file.
        """
        with self._lock:
            if self._disk is None:
                return
            rows = [
                row
                for row in itertools.starmap(_disk_row, self.entries.items())
                if row is not None
            ]
            memo_rows = [
                (fingerprint, blob)
                for fingerprint, entries in self.memos.items()
                if not fingerprint.startswith("mem:")
                and (blob := _pickled(entries)) is not None
            ]
            self._disk.put(rows, memo_rows)
            self.demotions += len(rows)
            self._disk.close()
            self._disk = None

    # -- convergence-memo snapshots --------------------------------------

    def _memo_entries(self, fingerprint: str) -> dict | None:
        """The snapshot stored for *fingerprint*: memory first, then the
        sqlite file (loaded into memory, so the next :meth:`close`
        writes back a superset of the row).  Caller holds the lock."""
        entries = self.memos.get(fingerprint)
        if entries is None and self._disk is not None:
            blob = self._disk.get(fingerprint, table="memos")
            if blob is not None:
                entries = self.memos[fingerprint] = pickle.loads(blob)
        return entries

    def store_memo(self, transducer, memo: ConvergenceMemo) -> None:
        """Snapshot *memo*'s certificates under *transducer*'s fingerprint."""
        fingerprint = transducer_fingerprint(transducer)
        with self._lock:
            entries = self._memo_entries(fingerprint)
            if entries is None:
                entries = self.memos[fingerprint] = {}
            entries.update(memo.entries)

    def memo_for(self, transducer) -> ConvergenceMemo | None:
        """A fresh :class:`ConvergenceMemo` seeded with the snapshot
        stored for *transducer*, or None when nothing was stored.
        Sound by the fingerprint contract: entries only come back for a
        structurally identical transducer."""
        with self._lock:
            entries = self._memo_entries(transducer_fingerprint(transducer))
            return None if entries is None else ConvergenceMemo(dict(entries))

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self.entries),
                "bytes": self.bytes,
                "memo_fingerprints": len(self.memos),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_dedup": self.cache_dedup,
                "shared_hits": self.shared_hits,
                "max_bytes": self.max_bytes,
                "evictions": self.evictions,
                "demotions": self.demotions,
                "promotions": self.promotions,
                "disk_entries": len(self._disk) if self._disk is not None else 0,
            }

    def __reduce__(self):
        # Counters, journal, the lock and the disk tier are
        # process-local plumbing and deliberately dropped: an unpickled
        # copy (worker view in a persistent pool's payload) is
        # memory-only and builds its own lock.
        with self._lock:
            return (
                _unpickle_cache,
                (
                    dict(self.entries),
                    dict(self._weights),
                    {fp: dict(e) for fp, e in self.memos.items()},
                    self.max_bytes,
                ),
            )

    def __repr__(self) -> str:
        byte_bound = "∞" if self.max_bytes is None else self.max_bytes
        disk = f", disk={self.disk_path}" if self.disk_path else ""
        return (
            f"RunCache({len(self.entries)} runs, "
            f"{self.bytes}/{byte_bound} bytes, "
            f"{len(self.memos)} memos, hits={self.cache_hits}, "
            f"misses={self.cache_misses}, evictions={self.evictions}{disk})"
        )


def _unpickle_cache(
    entries: dict, weights: dict, memos: dict, max_bytes: int | None
) -> RunCache:
    cache = RunCache(max_bytes=max_bytes)
    cache.entries = entries
    cache._weights = weights
    cache.bytes = sum(weights.values())
    cache.memos = memos
    return cache


def shared_run_cache(transducer) -> RunCache:
    """Get-or-create the run cache hung off *transducer* (mirrors
    :func:`repro.net.convergence.shared_memo`; unlike the memo, a
    RunCache is fingerprint-keyed and could be shared wider — the
    transducer is simply the convenient per-harness scope)."""
    cache = getattr(transducer, "run_cache", None)
    if cache is None:
        cache = RunCache()
        transducer.run_cache = cache
    return cache


def resolve_run_cache(run_cache, transducer) -> RunCache | None:
    """Normalize the ``run_cache=`` knob the harness entry points accept.

    ``None``/``False`` → no caching; ``True`` → the cache hung off the
    transducer (created on first use); a :class:`RunCache` → itself.
    """
    if run_cache is None or run_cache is False:
        return None
    if run_cache is True:
        return shared_run_cache(transducer)
    if not isinstance(run_cache, RunCache):
        raise TypeError(
            f"run_cache must be a RunCache or bool, got {run_cache!r}"
        )
    return run_cache
