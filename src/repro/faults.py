"""Deterministic fault injection for the discovery service.

The execution layer (executor, trainers, cache) carries *seams* —
:func:`fault_point` calls naming a site — at which a configured
:class:`FaultPlan` can deterministically inject failures: kill the worker
process handling a dispatch, raise inside a training step, delay a job, or
corrupt the next cache write.  With no plan active a seam is a single
module-global ``None`` check, so production paths pay nothing.

Plans are parsed from the ``REPRO_FAULTS`` environment variable or the CLI's
``--faults`` flag.  The grammar is a comma-separated list of clauses::

    <action>@<site>=<occurrence>[:key=value]...

    kill@dispatch=2                the worker handling the 2nd pooled unit
                                   dispatch exits hard (os._exit)
    raise@train_step=7             the 7th fused training step raises
    raise@lane_step=4              the 4th stacked lockstep step raises
    delay@job=3:seconds=0.5        the 3rd executed job sleeps 0.5 s first
    corrupt@cache_write=1          the 1st result-cache write is truncated

Determinism contract: every clause fires **exactly once**, when its site's
process-local occurrence counter (1-based) reaches the clause's number.
There is no randomness anywhere in the harness — the same plan against the
same workload injects the same faults at the same places, which is what
lets the chaos tests assert bit-identical recovery.  Pool workers are
forked from the submitting process and inherit the plan (and the counters
as of the fork); sites that count inside workers (``job``, ``train_step``)
therefore count per process, while ``dispatch`` is always counted in the
submitting process and travels to the victim worker as an explicit
directive.

Known sites
-----------
``dispatch``
    One count per unit submitted to the process pool
    (:meth:`repro.service.executor.JobExecutor` — ``kill`` supported).
``job``
    One count per job execution (:func:`repro.service.executor.execute_job`
    — ``delay`` and ``raise`` supported).
``train_step``
    One count per fused training step (:class:`repro.core.training.Trainer`
    — ``raise`` fails the fit; the executor's retry refits the job from
    scratch, which being seeded returns the same graph).
``lane_step``
    One count per stacked lockstep step
    (:class:`repro.core.batched.StackedCausalFormerTrainer` — ``raise``
    fails the whole stacked fit, and the service layer re-runs the group
    job by job).
``cache_write``
    One count per :meth:`repro.service.cache.ResultCache.put` (``corrupt``
    supported).

A clause naming any other site is rejected when the plan is parsed: it
could never fire.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

#: environment variable holding the default fault plan
ENV_VAR = "REPRO_FAULTS"

#: actions the grammar accepts
ACTIONS = ("kill", "raise", "delay", "corrupt")

#: sites that carry a seam (see "Known sites" above)
SITES = ("dispatch", "job", "train_step", "lane_step", "cache_write")

#: exit code used by an injected worker kill (recognisable in waitpid logs)
KILL_EXIT_CODE = 87


class FaultSpecError(ValueError):
    """A fault-plan string that does not parse."""


class InjectedFault(RuntimeError):
    """Raised by a ``raise`` clause firing at its seam."""

    def __init__(self, spec: "FaultSpec") -> None:
        message = spec.params.get("error") or f"injected fault at {spec}"
        super().__init__(message)
        self.spec = spec


@dataclass
class FaultSpec:
    """One parsed clause: fire ``action`` at ``site`` occurrence ``occurrence``."""

    action: str
    site: str
    occurrence: int
    params: Dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:
        text = f"{self.action}@{self.site}={self.occurrence}"
        for key in sorted(self.params):
            text += f":{key}={self.params[key]}"
        return text

    @property
    def seconds(self) -> float:
        """Delay duration (``seconds=``), defaulting to 0."""
        return float(self.params.get("seconds", 0.0))


def _parse_clause(clause: str) -> FaultSpec:
    head, _sep, tail = clause.partition(":")
    if "@" not in head or "=" not in head:
        raise FaultSpecError(
            f"bad fault clause {clause!r}; expected action@site=occurrence")
    action, _at, site_part = head.partition("@")
    site, _eq, count = site_part.partition("=")
    action = action.strip()
    site = site.strip()
    if action not in ACTIONS:
        raise FaultSpecError(
            f"unknown fault action {action!r}; known: {', '.join(ACTIONS)}")
    if site not in SITES:
        raise FaultSpecError(
            f"unknown fault site {site!r}; known: {', '.join(SITES)}")
    try:
        occurrence = int(count)
    except ValueError:
        raise FaultSpecError(
            f"fault occurrence must be an integer, got {count!r}")
    if occurrence < 1:
        raise FaultSpecError("fault occurrences are 1-based")
    params: Dict[str, str] = {}
    if tail:
        for pair in tail.split(":"):
            key, sep, value = pair.partition("=")
            if not sep or not key.strip():
                raise FaultSpecError(
                    f"bad fault parameter {pair!r}; expected key=value")
            params[key.strip()] = value.strip()
    return FaultSpec(action=action, site=site, occurrence=occurrence,
                     params=params)


class FaultPlan:
    """An ordered list of :class:`FaultSpec` clauses."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)

    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        specs = []
        for clause in (text or "").split(","):
            clause = clause.strip()
            if clause:
                specs.append(_parse_clause(clause))
        return cls(specs)

    def to_spec(self) -> str:
        """The canonical plan string (round-trips through :meth:`parse`)."""
        return ",".join(str(spec) for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_spec()!r})"


class FaultInjector:
    """Counts seam visits and fires the plan's clauses deterministically."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters: Dict[str, int] = {}
        self.fired: List[FaultSpec] = []
        self._pending = list(plan.specs)

    def fire(self, site: str, **context: Any) -> Optional[FaultSpec]:
        """Count one visit to ``site``; fire any clause that comes due.

        ``raise`` clauses raise :class:`InjectedFault`; other actions return
        the spec for the seam's owner to enact.  At most one non-raising
        spec is returned per visit (the first due in plan order).
        """
        count = self.counters.get(site, 0) + 1
        self.counters[site] = count
        due = [spec for spec in self._pending
               if spec.site == site and spec.occurrence == count]
        if not due:
            return None
        returned: Optional[FaultSpec] = None
        raising: Optional[FaultSpec] = None
        for spec in due:
            self._pending.remove(spec)
            self.fired.append(spec)
            self._record(spec, context)
            if spec.action == "raise":
                raising = raising or spec
            else:
                returned = returned or spec
        if raising is not None:
            raise InjectedFault(raising)
        return returned

    @staticmethod
    def _record(spec: FaultSpec, context: Dict[str, Any]) -> None:
        from repro.telemetry import get_telemetry

        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("faults.injected").inc()
            telemetry.event("fault_injected", fault=str(spec),
                            action=spec.action, site=spec.site,
                            occurrence=spec.occurrence,
                            **{key: value for key, value in context.items()
                               if isinstance(value, (str, int, float, bool))})

    def __repr__(self) -> str:
        return (f"FaultInjector({self.plan.to_spec()!r}, "
                f"fired={len(self.fired)}/{len(self.plan)})")


# ---------------------------------------------------------------------- #
# Process-global injector
# ---------------------------------------------------------------------- #
_UNSET = object()
_injector: Any = _UNSET


def configure(plan: Union[None, str, FaultPlan]) -> Optional[FaultInjector]:
    """Install a plan process-wide (``None``/empty disables injection)."""
    global _injector
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    if plan is None or not len(plan):
        _injector = None
        return None
    _injector = FaultInjector(plan)
    return _injector


def reset() -> None:
    """Forget any installed plan, back to the ``REPRO_FAULTS`` default.

    The environment is re-resolved on the next :func:`get_injector` call
    (with fresh counters), so embedders that configured an explicit plan
    return to the ambient chaos configuration, not to silence.
    """
    global _injector
    _injector = _UNSET


def get_injector() -> Optional[FaultInjector]:
    """The active injector (resolving ``REPRO_FAULTS`` on first use)."""
    global _injector
    if _injector is _UNSET:
        configure(os.environ.get(ENV_VAR))
    return _injector


def active() -> bool:
    """Whether any fault plan is currently installed."""
    return get_injector() is not None


def fault_point(site: str, **context: Any) -> Optional[FaultSpec]:
    """The injection seam: a no-op unless a plan is active.

    Raises for due ``raise`` clauses; returns a due non-raising spec for
    the caller to enact (kill / delay / corrupt), else ``None``.
    """
    injector = get_injector()
    if injector is None:
        return None
    return injector.fire(site, **context)


@contextmanager
def override(plan: Union[None, str, FaultPlan]) -> Iterator[Optional[FaultInjector]]:
    """Temporarily install a plan, restoring the previous injector on exit.

    The restoration preserves the previous injector *object* (counters and
    one-shot state included), so tests can run under an environment-level
    chaos plan without disturbing it.
    """
    global _injector
    previous = get_injector()
    try:
        yield configure(plan)
    finally:
        _injector = previous
