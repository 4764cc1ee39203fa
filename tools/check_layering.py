#!/usr/bin/env python
"""Enforce the import layering described in docs/architecture.md.

Three rules are load-bearing enough to gate CI on:

* ``repro.sim`` is the bottom of the stack: it may import nothing from
  the rest of the package except :mod:`repro.perf.counters` (a leaf the
  kernel increments on its hot path).  That module, not the whole
  ``repro.perf`` package, is the exception everywhere it is allowed:
  the rest of ``repro.perf`` holds benchmark specs built on
  ``repro.scenario``;
* ``repro.proto`` is the transport-agnostic reliability core: it sits
  below the protocol engines and must never import ``repro.gm`` or
  ``repro.mcast`` (nor anything above them);
* ``repro.proto.engines`` (the pluggable reliability families) gets the
  same bound pinned *explicitly*: engine senders/receivers serve the
  ``repro.gm`` and ``repro.mcast`` transports and are therefore the
  modules most tempted to import their types — they must talk to
  transports only through the duck-typed transport surface
  (``self.transport``), never by importing ``repro.gm``/``repro.mcast``
  back.  A future widening of the ``proto`` entry cannot silently
  widen this one;
* ``repro.obs`` is the observation layer on *top*: it may import from
  every layer, but nothing outside ``repro.obs`` and
  ``repro.experiments`` may import it back (instrumented layers reach the
  registry only through the duck-typed ``sim.metrics`` slot and the
  flight recorder only through ``sim.flight`` — no instrumentation
  back-edges).  ``repro.obs.flight`` gets its own dedicated back-edge
  check on top of the package-wide one: hot-path layers must never
  grow a direct dependency on the recorder type;
* ``repro.scenario`` sits between the protocol engines and the
  experiment harness: it may import anything below it but never
  ``repro.experiments``, and only ``repro.scenario``,
  ``repro.workload``, ``repro.experiments``, ``repro.perf``, and
  ``repro.obs`` (the observation layer drives specs through the
  harness) may import it back (the engines stay spec-agnostic);
* ``repro.workload`` (sustained-traffic generators) sits just above the
  scenario layer: it may import the engines and ``repro.scenario`` (it
  registers its runner with the harness on import) but never
  ``repro.experiments`` or ``repro.obs``, and only ``repro.workload``,
  ``repro.experiments``, ``repro.perf``, and ``repro.obs`` may import
  it back.

* ``repro.trees`` is pure structure (shapes, backup/repair managers,
  deadlock-feasibility checks): it may never import ``repro.mcast`` —
  the recovery schemes bind a tree manager to a group, not vice versa;
* failure-injector hooks (``FailureInjector.subscribe``) may only be
  subscribed from ``repro.mcast``, ``repro.scenario``, and
  ``repro.workload`` — failure *application* lives in ``repro.net``,
  failure *reaction* above the engines, and nothing else gets to peek.
* ``repro.codec`` (the spec codec every declarative dataclass
  inherits) is a leaf: it may import nothing from ``repro`` but
  ``repro.errors``, so ``repro.net`` and ``repro.gm`` can depend on it
  without a cycle;
* nothing under ``src/repro`` imports a package listed in
  ``TEST_ONLY_PACKAGES`` (networkx) at run time: the topology searches
  its own link table, and networkx is only the route oracle in tests.

Imports guarded by ``if TYPE_CHECKING:`` are ignored — annotations may
name types from anywhere without creating a runtime dependency.

Usage: ``python tools/check_layering.py`` (exit 0 = clean).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: package -> module prefixes it may import from ``repro``.
ALLOWED = {
    "sim": ("repro.sim", "repro.perf.counters"),
    # Per-module exception: the conservative-parallel conductor
    # partitions Topology/Network state, so it may reach one layer up
    # into repro.net (and the shared error types) — but nothing higher;
    # scenario binds it via PartitionSpec, not an import back-edge.
    "sim/parallel.py": (
        "repro.sim",
        "repro.net",
        "repro.errors",
        "repro.perf.counters",
    ),
    "proto": (
        "repro.proto",
        "repro.sim",
        "repro.net",
        "repro.nic",
        "repro.errors",
        "repro.perf.counters",
    ),
    # Explicit pin for the pluggable reliability engines: their
    # sender/receiver pairs are *used by* repro.gm and repro.mcast, so a
    # back-edge import would be an easy mistake and an instant cycle.
    # Engines reach the transport only through the duck-typed
    # ``self.transport`` surface; this entry keeps that true even if the
    # parent ``proto`` entry is ever widened.
    "proto/engines": (
        "repro.proto",
        "repro.sim",
        "repro.net",
        "repro.nic",
        "repro.errors",
        "repro.perf.counters",
    ),
    # Trees are pure structure (shapes, repair, feasibility checks):
    # they may use the cost model (repro.gm) and packet geometry
    # (repro.net) but never the protocol engines — repro.mcast binds a
    # TreeManager to a group, not the other way around.
    "trees": (
        "repro.trees",
        "repro.errors",
        "repro.gm",
        "repro.net",
    ),
    "scenario": (
        "repro.scenario",
        "repro.cluster",
        "repro.codec",
        "repro.config",
        "repro.errors",
        "repro.gm",
        "repro.host",
        "repro.mcast",
        "repro.mpi",
        "repro.net",
        "repro.nic",
        "repro.proto",
        "repro.sim",
        "repro.trees",
    ),
    "workload": (
        "repro.workload",
        "repro.scenario",
        "repro.cluster",
        "repro.config",
        "repro.errors",
        "repro.gm",
        "repro.host",
        "repro.mcast",
        "repro.net",
        "repro.nic",
        "repro.proto",
        "repro.sim",
        "repro.trees",
    ),
    # The spec codec is inherited by net/ and gm/ dataclasses: it must
    # stay a leaf so those layers can import it without a cycle.
    "codec.py": ("repro.errors",),
}

#: Packages (and top-level modules) allowed to import ``repro.obs``.
OBS_IMPORTERS = ("obs", "experiments")
#: Packages allowed to import ``repro.obs.flight`` specifically — same
#: set today, but checked separately so a future widening of
#: OBS_IMPORTERS cannot silently hand the hot-path recorder type to a
#: lower layer (instrumentation sites stay duck-typed on ``sim.flight``).
OBS_FLIGHT_IMPORTERS = ("obs", "experiments")
#: Packages (and top-level modules) allowed to import ``repro.scenario``.
SCENARIO_IMPORTERS = ("scenario", "workload", "experiments", "perf", "obs")
#: Packages (and top-level modules) allowed to import ``repro.workload``.
WORKLOAD_IMPORTERS = ("workload", "experiments", "perf", "obs")

#: Modules allowed to subscribe to failure-injector hooks
#: (``<injector>.subscribe(cb)``).  Failure *detection* is a protocol /
#: scenario concern: the recovery control plane (repro.mcast) and the
#: declarative layer (repro.scenario) react to it; everything else —
#: trees, net internals, the kernel — must stay failure-agnostic, and
#: repro/net/failure.py itself defines the hook.
SUBSCRIBE_ALLOWED = ("mcast", "scenario", "workload")
SUBSCRIBE_ALLOWED_FILES = ("net/failure.py",)

#: Third-party packages that are test dependencies only: no runtime
#: import of them anywhere under ``src/repro``.
TEST_ONLY_PACKAGES = ("networkx",)


def check_test_only_imports() -> list[str]:
    """No runtime import of a test-only package under ``src/repro``."""
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in runtime_imports(tree):
            if module.split(".")[0] in TEST_ONLY_PACKAGES:
                rel = path.relative_to(REPO)
                violations.append(
                    f"{rel}:{lineno}: {module} is a test-only dependency "
                    "and must not be imported at run time"
                )
    return violations


def check_failure_subscribers() -> list[str]:
    """Only the allowed layers may call ``.subscribe(...)``."""
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel_parts = path.relative_to(SRC).parts
        owner = rel_parts[0] if len(rel_parts) > 1 else path.stem
        rel_src = path.relative_to(SRC).as_posix()
        if owner in SUBSCRIBE_ALLOWED or rel_src in SUBSCRIBE_ALLOWED_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "subscribe"
            ):
                rel = path.relative_to(REPO)
                violations.append(
                    f"{rel}:{node.lineno}: only "
                    f"{', '.join(SUBSCRIBE_ALLOWED)} (and net/failure.py) "
                    "may subscribe to failure hooks"
                )
    return violations


def check_back_edges(
    target: str, importers: tuple[str, ...], reason: str
) -> list[str]:
    """No module outside ``importers`` may import ``repro.<target>``."""
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel_parts = path.relative_to(SRC).parts
        owner = rel_parts[0] if len(rel_parts) > 1 else path.stem
        if owner in importers:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in runtime_imports(tree):
            prefix = f"repro.{target}"
            if module == prefix or module.startswith(prefix + "."):
                rel = path.relative_to(REPO)
                violations.append(
                    f"{rel}:{lineno}: only {', '.join(importers)} may "
                    f"import {prefix} ({reason})"
                )
    return violations


def check_obs_back_edges() -> list[str]:
    return check_back_edges(
        "obs", OBS_IMPORTERS, "instrumentation back-edge"
    )


def check_obs_flight_back_edges() -> list[str]:
    return check_back_edges(
        "obs.flight", OBS_FLIGHT_IMPORTERS,
        "hot paths reach the flight recorder only via sim.flight"
    )


def check_scenario_back_edges() -> list[str]:
    return check_back_edges(
        "scenario", SCENARIO_IMPORTERS, "engines stay spec-agnostic"
    )


def check_workload_back_edges() -> list[str]:
    return check_back_edges(
        "workload", WORKLOAD_IMPORTERS, "runners register via the harness"
    )


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def runtime_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, module) for every import outside TYPE_CHECKING guards."""
    found: list[tuple[int, str]] = []

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                found.extend((node.lineno, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    found.append((node.lineno, node.module))
            elif isinstance(node, ast.If):
                if not _is_type_checking_guard(node):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(
                node,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.With,
                    ast.Try,
                    ast.For,
                    ast.While,
                ),
            ):
                visit(node.body)
                for extra in ("orelse", "finalbody", "handlers"):
                    for sub in getattr(node, extra, []):
                        visit(getattr(sub, "body", [sub]) if isinstance(
                            sub, ast.excepthandler) else [sub])

    visit(tree.body)
    return found


def check_package(package: str, allowed: tuple[str, ...]) -> list[str]:
    violations = []
    target = SRC / package
    if target.suffix == ".py":
        # A single-module exception entry (e.g. ``sim/parallel.py``).
        paths = [target]
    else:
        # Modules with their own ALLOWED entry are checked under that
        # entry's (usually wider) bounds, not the package's.
        exceptions = {
            SRC / key for key in ALLOWED if (SRC / key).suffix == ".py"
        }
        paths = [
            p for p in sorted(target.rglob("*.py")) if p not in exceptions
        ]
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in runtime_imports(tree):
            if not (module == "repro" or module.startswith("repro.")):
                continue
            if not any(
                module == prefix or module.startswith(prefix + ".")
                for prefix in allowed
            ):
                rel = path.relative_to(REPO)
                violations.append(
                    f"{rel}:{lineno}: repro.{package} must not import "
                    f"{module} (allowed: {', '.join(allowed)})"
                )
    return violations


def main() -> int:
    violations = []
    for package, allowed in ALLOWED.items():
        violations.extend(check_package(package, allowed))
    violations.extend(check_obs_back_edges())
    violations.extend(check_obs_flight_back_edges())
    violations.extend(check_scenario_back_edges())
    violations.extend(check_workload_back_edges())
    violations.extend(check_failure_subscribers())
    violations.extend(check_test_only_imports())
    if violations:
        print("import layering violations:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(
        f"layering clean: {', '.join(ALLOWED)} respect their bounds; "
        "no repro.obs, repro.scenario, or repro.workload back-edges; "
        "failure hooks subscribed only from sanctioned layers; "
        "no test-only packages imported at run time"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
