"""Job specs: JSON payloads → validated, runnable requests.

The service accepts the same program forms as the lint CLI
(``module:attr`` import specs and ``.dl`` program text) plus a sweep
grid, and turns them into concrete runtime objects — transducer,
network, instance, fault plan — before the job is ever queued.  All
validation failures raise :class:`SpecError`, which the routes layer
renders as an HTTP 400 with the same diagnostic codes the linter
prints (CALM009/CALM010 for program-text failures).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..analysis.lint import ProgramSpecError, analyze_object, load_spec, parse_program_text
from ..analysis.reporting import reports_to_json
from ..core.transducer import Transducer
from ..db import DatabaseSchema, Instance
from ..net import (
    FaultPlan,
    Network,
    NetworkError,
    RunOptions,
    clique,
    grid,
    instance_digest,
    line,
    ring,
    single,
    star,
    transducer_fingerprint,
)
from ..net.scheduler import SCHEDULERS

#: Verification kinds the service exposes, mapped 1:1 onto the harness
#: entry points (see orchestrator._execute).
KINDS = (
    "consistency",
    "topology-independence",
    "coordination-free",
    "calm-verdict",
)

#: Sweep grid defaults, matching the harness signatures.
DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_PARTITIONS = 3

#: Schedulers a job may request.  The harnesses quantify over fair
#: runs: ``fair-random`` is the reference sampler and
#: ``round-robin-batch`` is its batched-delivery variant (legal only
#: for the oblivious+monotone CALM corner, enforced downstream by
#: ``BatchingError``).  The remaining registry entries
#: (heartbeat-only, fifo-rounds, witness-guided) are run-level tools,
#: not sweep grids, so the service rejects them explicitly rather
#: than silently ignoring the knob.
SWEEP_SCHEDULERS = ("fair-random", "round-robin-batch")


class SpecError(ValueError):
    """A job payload the service cannot run; ``code`` keys the docs."""

    def __init__(self, message: str, code: str = "SVC000"):
        super().__init__(message)
        self.code = code


def _require(payload: dict, key: str, typ, default=None):
    value = payload.get(key, default)
    if value is None:
        return None
    if not isinstance(value, typ):
        raise SpecError(
            f"field {key!r} must be {typ.__name__}, got {type(value).__name__}"
        )
    return value


def _build_network(spec) -> Network:
    """``{"topology": ..., "size"/"rows"/"cols": ...}`` → Network."""
    if spec is None:
        spec = {"topology": "line", "size": 3}
    if not isinstance(spec, dict):
        raise SpecError("field 'network' must be an object")
    topology = spec.get("topology", "line")
    try:
        if topology == "single":
            return single()
        if topology == "grid":
            return grid(int(spec.get("rows", 2)), int(spec.get("cols", 2)))
        size = int(spec.get("size", 3))
        builders = {"line": line, "ring": ring, "star": star, "clique": clique}
        if topology not in builders:
            raise SpecError(
                f"unknown topology {topology!r}; expected one of "
                f"{sorted(builders) + ['single', 'grid']}"
            )
        return builders[topology](size)
    except (NetworkError, TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"bad network spec: {exc}") from exc


def _build_instance(spec, inputs: DatabaseSchema) -> Instance:
    """``{"R": [[1, 2], ...]}`` → Instance over the input schema."""
    if spec is None:
        return Instance.empty(inputs)
    if not isinstance(spec, dict):
        raise SpecError("field 'instance' must map relation names to fact lists")
    relations = {}
    for name, rows in spec.items():
        if name not in inputs:
            raise SpecError(
                f"instance relation {name!r} is not in the input schema "
                f"{sorted(inputs)}"
            )
        if not isinstance(rows, list):
            raise SpecError(f"instance relation {name!r} must be a list of rows")
        tuples = []
        for row in rows:
            if not isinstance(row, list):
                raise SpecError(
                    f"instance row for {name!r} must be a list, got {row!r}"
                )
            tuples.append(tuple(row))
        relations[name] = tuples
    try:
        return Instance.from_dict(inputs, relations)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad instance: {exc}") from exc


def _resolve_transducer(payload: dict):
    """The payload's program → (Transducer, program object for lint).

    ``spec`` (``module:attr``) may name a Transducer or a zero-arg
    factory; ``program`` is inline ``.dl`` text, compiled through the
    negation-free Datalog → transducer bridge (Proposition 9's
    construction).  The returned second element is whatever object the
    static analyzer should lint — the program when one exists, else
    the transducer itself.
    """
    spec = _require(payload, "spec", str)
    program_text = _require(payload, "program", str)
    if (spec is None) == (program_text is None):
        raise SpecError("exactly one of 'spec' (module:attr) or 'program' "
                        "(.dl text) is required")

    if spec is not None:
        try:
            obj = load_spec(spec)
        except (ImportError, AttributeError, ValueError, TypeError) as exc:
            raise SpecError(f"cannot load {spec!r}: {exc}") from exc
        if callable(obj) and not isinstance(obj, Transducer):
            try:
                obj = obj()
            except Exception as exc:
                raise SpecError(f"factory {spec!r} raised: {exc}") from exc
        if not isinstance(obj, Transducer):
            raise SpecError(
                f"{spec!r} resolved to {type(obj).__name__}; the sweep "
                "harnesses need a Transducer (program objects run via "
                "the 'program' field)"
            )
        return obj, obj

    edb = payload.get("edb")
    overrides = None
    if edb is not None:
        if not isinstance(edb, dict):
            raise SpecError("field 'edb' must map relation names to arities")
        overrides = DatabaseSchema({k: int(v) for k, v in edb.items()})
    try:
        program = parse_program_text(program_text, overrides)
    except ProgramSpecError as exc:
        raise SpecError(f"[{exc.code}] {exc}", code=exc.code) from exc

    from ..core.datalog_bridge import datalog_to_transducer
    from ..lang.datalog import DatalogError, DatalogProgram
    from ..lang.stratified import StratifiedProgram

    if not isinstance(program, StratifiedProgram):
        raise SpecError(
            "only negation-free Datalog program text can be compiled to a "
            "runnable transducer; submit Dedalus programs as importable "
            "transducers via 'spec'"
        )
    output = _require(payload, "output", str)
    idb = sorted(program.idb_schema)
    if output is None:
        if len(idb) != 1:
            raise SpecError(
                f"program derives {idb}; pick one with the 'output' field"
            )
        output = idb[0]
    elif output not in program.idb_schema:
        raise SpecError(f"output relation {output!r} is not derived; IDB: {idb}")
    try:
        datalog = DatalogProgram.parse(program_text, program.edb_schema)
        transducer = datalog_to_transducer(datalog, output)
    except (DatalogError, ValueError) as exc:
        raise SpecError(
            f"program is not executable as a transducer "
            f"(needs negation-free Datalog): {exc}",
            code="CALM009",
        ) from exc
    return transducer, program


@dataclass
class JobRequest:
    """One validated verification job, ready to execute."""

    kind: str
    transducer: Transducer
    network: Network
    instance: Instance
    seeds: tuple
    partition_count: int
    #: The run knobs (``max_steps``, ``batch_delivery``, ``faults``),
    #: handed unchanged to every kind's harness.
    options: RunOptions
    static_first: bool
    #: The object the static analyzer lints (program when the job came
    #: in as text, else the transducer).
    lint_subject: object = field(repr=False, default=None)
    fingerprint: str = ""

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "transducer": self.transducer.name or "anonymous",
            "network": self.network.name,
            "seeds": list(self.seeds),
            "partition_count": self.partition_count,
            "max_steps": self.options.max_steps,
            "batch_delivery": self.options.batch_delivery,
            "faults": _faults_token(self.options.faults),
            "static_first": self.static_first,
        }


def _faults_token(faults: FaultPlan | None) -> str | None:
    return faults.token() if faults is not None else None


def _network_token(network: Network) -> str:
    nodes = ",".join(sorted(str(n) for n in network.nodes))
    edges = ",".join(
        sorted("{}-{}".format(*sorted((str(a), str(b)))) for a, b in network.edges)
    )
    return f"{network.name}|{nodes}|{edges}"


def job_fingerprint(req: JobRequest) -> str:
    """Canonical job identity: same tokens as ``run_key``, job-level.

    Two payloads that would execute the same grid collapse to one
    fingerprint (in-flight dedup); any knob that changes a run —
    faults, batching, seeds, static-first — separates them, so a
    `FaultPlan` job can never alias a clean one.
    """
    digest = hashlib.sha256()
    for token in (
        req.kind,
        transducer_fingerprint(req.transducer),
        _network_token(req.network),
        instance_digest(req.instance),
        repr(tuple(req.seeds)),
        str(req.partition_count),
        str(req.options.max_steps),
        str(req.options.batch_delivery),
        _faults_token(req.options.faults) or "-",
        str(req.static_first),
    ):
        digest.update(token.encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def parse_job(payload) -> JobRequest:
    """Validate one ``POST /jobs`` payload into a :class:`JobRequest`."""
    if not isinstance(payload, dict):
        raise SpecError("job payload must be a JSON object")
    kind = payload.get("kind", "calm-verdict")
    if kind not in KINDS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {list(KINDS)}")

    transducer, lint_subject = _resolve_transducer(payload)
    network = _build_network(payload.get("network"))
    instance = _build_instance(payload.get("instance"), transducer.schema.inputs)

    seeds = payload.get("seeds", list(DEFAULT_SEEDS))
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) for s in seeds
    ):
        raise SpecError("field 'seeds' must be a non-empty list of ints")
    partition_count = _require(payload, "partition_count", int,
                               DEFAULT_PARTITIONS)
    max_steps = _require(payload, "max_steps", int, RunOptions.max_steps)
    if partition_count < 1 or max_steps < 1:
        raise SpecError("'partition_count' and 'max_steps' must be >= 1")

    scheduler = payload.get("scheduler", "fair-random")
    if scheduler not in SCHEDULERS:
        raise SpecError(
            f"unknown scheduler {scheduler!r}; registry: {sorted(SCHEDULERS)}"
        )
    if scheduler not in SWEEP_SCHEDULERS:
        raise SpecError(
            f"scheduler {scheduler!r} is a run-level tool, not a sweep "
            f"grid; jobs accept {list(SWEEP_SCHEDULERS)}"
        )
    batch_delivery = scheduler == "round-robin-batch" or bool(
        payload.get("batch_delivery", False)
    )

    faults = payload.get("faults")
    if faults is not None:
        if kind == "coordination-free":
            raise SpecError(
                "coordination-freeness probes are defined over clean "
                "heartbeat runs; 'faults' is not accepted for this kind"
            )
        if not isinstance(faults, dict):
            raise SpecError("field 'faults' must be a FaultPlan object")
        try:
            faults = FaultPlan(**faults)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad fault plan: {exc}") from exc

    static_first = bool(payload.get("static_first", False))

    req = JobRequest(
        kind=kind,
        transducer=transducer,
        network=network,
        instance=instance,
        seeds=tuple(seeds),
        partition_count=partition_count,
        options=RunOptions(max_steps, batch_delivery, faults),
        static_first=static_first,
        lint_subject=lint_subject,
    )
    req.fingerprint = job_fingerprint(req)
    return req


# --------------------------------------------------------------------------
# JSON-safe report rendering


def _facts_to_json(output) -> list:
    """Run outputs → deterministic nested lists.

    Handles both shapes the harnesses produce: output-query results
    are frozensets of plain tuples; partition fragments are
    :class:`~repro.db.Instance`\\ s / fact sets whose elements carry a
    relation name.
    """
    rows = []
    for item in output:
        if hasattr(item, "relation"):
            rows.append([item.relation, list(item.values)])
        else:
            rows.append(list(item))
    rows.sort(key=repr)
    return rows


def static_report_json(subject) -> dict:
    """Lint *subject* and return the CLI's JSON report envelope."""
    report = analyze_object(subject)
    return reports_to_json([report])["reports"][0]


def result_to_json(kind: str, result) -> dict:
    """Harness report objects → the job's ``result`` JSON."""
    if kind == "consistency":
        distinct = []
        for output in result.outputs:
            if output not in distinct:
                distinct.append(output)
        return {
            "consistent": result.consistent,
            "distinct_outputs": [_facts_to_json(o) for o in distinct],
            "observations": len(result.observations),
            "unconverged": result.unconverged,
            "cache": {
                "hits": result.cache_hits,
                "misses": result.cache_misses,
                "dedup": result.cache_dedup,
            },
        }
    if kind == "topology-independence":
        return {
            "independent": result.independent,
            "per_network": {
                name: _facts_to_json(out)
                for name, out in sorted(result.per_network.items())
            },
            "inconsistent_networks": sorted(result.inconsistent_networks),
        }
    if kind == "coordination-free":
        witness = None
        if result.witness is not None:
            witness = {
                str(node): _facts_to_json(result.witness.fragment(node))
                for node in result.witness.nodes
            }
        return {
            "coordination_free": result.coordination_free,
            "witness": witness,
            "expected_output": _facts_to_json(result.expected_output),
            "partitions_tried": result.partitions_tried,
            "exhaustive": result.exhaustive,
        }
    if kind == "calm-verdict":
        return {
            "name": result.name,
            "oblivious": result.oblivious,
            "inflationary": result.inflationary,
            "monotone_queries": result.monotone_queries,
            "uses_id": result.uses_id,
            "uses_all": result.uses_all,
            "coordination_free": result.coordination_free,
            "computed_query_monotone": result.computed_query_monotone,
            "topology_independent": result.topology_independent,
            "verdict_source": result.verdict_source,
            "sources": dict(sorted(result.sources.items())),
        }
    raise SpecError(f"unknown kind {kind!r}")  # pragma: no cover
