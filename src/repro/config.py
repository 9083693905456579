"""Runtime settings: the single source of truth for engine + obs knobs.

Every consumer of the execution engine — the ``python -m repro.exps``
CLI, the Figures 10-13 drivers, and the benchmark harness — used to read
``EVAL_REPRO_*`` environment variables on its own.  :class:`Settings`
centralises that: :meth:`Settings.from_env` parses the environment once,
:meth:`Settings.from_args` layers parsed CLI arguments on top (explicit
flags beat environment variables beat defaults), and
:meth:`Settings.add_cli_arguments` registers the shared flags on an
``argparse`` parser so every entry point exposes the same surface.

Recognised environment variables::

    EVAL_REPRO_JOBS         worker processes (``--jobs``)
    EVAL_REPRO_CACHE        artifact cache directory (``--cache-dir``)
    EVAL_REPRO_NO_CACHE     any non-empty value disables the disk cache
    EVAL_REPRO_CHIPS        Monte-Carlo population size (``--chips``)
    EVAL_REPRO_CORES        cores per chip (``--cores``)
    EVAL_REPRO_FC_EXAMPLES  fuzzy-training examples (``--fc-examples``)
    EVAL_REPRO_SEED         base RNG seed (``--seed``)
    EVAL_REPRO_LOG_LEVEL    repro logger threshold (``--log-level``)
    EVAL_REPRO_LOG_JSON     any non-empty value selects JSON log lines
    EVAL_REPRO_METRICS_OUT  metrics JSON path (``--metrics-out``)
    EVAL_REPRO_SHARED_MEM   ``0``/``false``/``no``/``off`` disables the
                            shared-memory population broadcast to pool
                            workers (``--no-shared-mem``); any other
                            non-empty value enables it.  Bit-identical
                            either way — workers fall back to the
                            deterministic rebuild.

Campaign-service knobs (see :mod:`repro.serve`)::

    EVAL_REPRO_SERVICE           daemon address, ``host:port`` (``--service``)
    EVAL_REPRO_SERVICE_MAX_JOBS  admission limit on live jobs
    EVAL_REPRO_SERVICE_RETRIES   per-unit retry budget
    EVAL_REPRO_SERVICE_TIMEOUT   per-unit wall-clock budget, seconds

Worker-fleet knobs (see :mod:`repro.serve.fleet`)::

    EVAL_REPRO_WORKER_CONNECT      daemon a fleet worker joins (``--connect``)
    EVAL_REPRO_HEARTBEAT_INTERVAL  worker heartbeat period, seconds
    EVAL_REPRO_LEASE_TIMEOUT       lease age before it becomes stealable
    EVAL_REPRO_STORE_BACKEND       artifact-store backend: local | shared
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from dataclasses import dataclass
from typing import Mapping, Optional

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


@dataclass(frozen=True)
class Settings:
    """Engine, cache, scale and observability knobs for one run."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    cache_enabled: bool = True
    chips: int = 12
    cores: int = 1
    fc_examples: int = 4000
    seed: int = 7
    log_level: str = "WARNING"
    log_json: bool = False
    metrics_out: Optional[str] = None
    shared_mem: bool = True
    service_addr: Optional[str] = None
    service_max_jobs: int = 8
    service_retries: int = 1
    service_cell_timeout: Optional[float] = None
    worker_connect: Optional[str] = None
    heartbeat_interval: float = 2.0
    lease_timeout: float = 60.0
    store_backend: str = "local"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.log_level.upper() not in _LOG_LEVELS:
            raise ValueError(f"log_level must be one of {_LOG_LEVELS}")
        if self.service_max_jobs < 1:
            raise ValueError("service_max_jobs must be >= 1")
        if self.service_retries < 0:
            raise ValueError("service_retries must be >= 0")
        if self.service_cell_timeout is not None and self.service_cell_timeout <= 0:
            raise ValueError("service_cell_timeout must be > 0 when set")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if self.store_backend not in ("local", "shared"):
            raise ValueError("store_backend must be 'local' or 'shared'")

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        defaults: Optional["Settings"] = None,
    ) -> "Settings":
        """Parse ``EVAL_REPRO_*`` variables over ``defaults``.

        Unset (or empty) variables keep the default; the benchmark
        harness passes its own ``defaults`` (8 chips) while the CLI uses
        the dataclass defaults.
        """
        env = os.environ if environ is None else environ
        base = defaults if defaults is not None else cls()

        def text(name: str, fallback: Optional[str]) -> Optional[str]:
            return env.get(name) or fallback

        def integer(name: str, fallback: int) -> int:
            raw = env.get(name)
            return int(raw) if raw not in (None, "") else fallback

        def flag(name: str, fallback: bool) -> bool:
            raw = env.get(name)
            return bool(raw) if raw is not None else fallback

        def number(name: str, fallback: Optional[float]) -> Optional[float]:
            raw = env.get(name)
            return float(raw) if raw not in (None, "") else fallback

        def tristate(name: str, fallback: bool) -> bool:
            raw = env.get(name)
            if raw in (None, ""):
                return fallback
            return raw.strip().lower() not in ("0", "false", "no", "off")

        return cls(
            jobs=integer("EVAL_REPRO_JOBS", base.jobs),
            cache_dir=text("EVAL_REPRO_CACHE", base.cache_dir),
            cache_enabled=not flag("EVAL_REPRO_NO_CACHE", not base.cache_enabled),
            chips=integer("EVAL_REPRO_CHIPS", base.chips),
            cores=integer("EVAL_REPRO_CORES", base.cores),
            fc_examples=integer("EVAL_REPRO_FC_EXAMPLES", base.fc_examples),
            seed=integer("EVAL_REPRO_SEED", base.seed),
            log_level=text("EVAL_REPRO_LOG_LEVEL", base.log_level).upper(),
            log_json=flag("EVAL_REPRO_LOG_JSON", base.log_json),
            metrics_out=text("EVAL_REPRO_METRICS_OUT", base.metrics_out),
            shared_mem=tristate("EVAL_REPRO_SHARED_MEM", base.shared_mem),
            service_addr=text("EVAL_REPRO_SERVICE", base.service_addr),
            service_max_jobs=integer(
                "EVAL_REPRO_SERVICE_MAX_JOBS", base.service_max_jobs
            ),
            service_retries=integer(
                "EVAL_REPRO_SERVICE_RETRIES", base.service_retries
            ),
            service_cell_timeout=number(
                "EVAL_REPRO_SERVICE_TIMEOUT", base.service_cell_timeout
            ),
            worker_connect=text("EVAL_REPRO_WORKER_CONNECT", base.worker_connect),
            heartbeat_interval=number(
                "EVAL_REPRO_HEARTBEAT_INTERVAL", base.heartbeat_interval
            ),
            lease_timeout=number("EVAL_REPRO_LEASE_TIMEOUT", base.lease_timeout),
            store_backend=text("EVAL_REPRO_STORE_BACKEND", base.store_backend),
        )

    @classmethod
    def from_args(
        cls,
        args: argparse.Namespace,
        base: Optional["Settings"] = None,
    ) -> "Settings":
        """Layer parsed CLI arguments over ``base`` (default: the env).

        Only attributes present on the namespace override; a parser that
        registered its flags through :meth:`add_cli_arguments` with
        env-derived defaults therefore yields the full precedence chain
        *flag > environment variable > default* in one call.
        """
        base = base if base is not None else cls.from_env()

        def take(name: str, fallback):
            value = getattr(args, name, None)
            return value if value is not None else fallback

        return cls(
            jobs=take("jobs", base.jobs),
            cache_dir=take("cache_dir", base.cache_dir),
            cache_enabled=base.cache_enabled and not getattr(args, "no_cache", False),
            chips=take("chips", base.chips),
            cores=take("cores", base.cores),
            fc_examples=take("fc_examples", base.fc_examples),
            seed=take("seed", base.seed),
            log_level=str(take("log_level", base.log_level)).upper(),
            log_json=bool(take("log_json", base.log_json)),
            metrics_out=take("metrics_out", base.metrics_out),
            shared_mem=take("shared_mem", base.shared_mem),
            service_addr=take("service", base.service_addr),
            service_max_jobs=take("service_max_jobs", base.service_max_jobs),
            service_retries=take("service_retries", base.service_retries),
            service_cell_timeout=take(
                "service_timeout", base.service_cell_timeout
            ),
            worker_connect=take("connect", base.worker_connect),
            heartbeat_interval=take(
                "heartbeat_interval", base.heartbeat_interval
            ),
            lease_timeout=take("lease_timeout", base.lease_timeout),
            store_backend=take("store_backend", base.store_backend),
        )

    @staticmethod
    def add_cli_arguments(
        parser: argparse.ArgumentParser, defaults: "Settings"
    ) -> None:
        """Register the shared engine/obs flags with env-derived defaults."""
        parser.add_argument(
            "--jobs",
            type=int,
            default=defaults.jobs,
            help="worker processes for Monte-Carlo targets "
                 "(default: $EVAL_REPRO_JOBS or 1)",
        )
        parser.add_argument(
            "--cache-dir",
            default=defaults.cache_dir,
            help="persist measurements/banks/summaries here "
                 "(default: $EVAL_REPRO_CACHE)",
        )
        parser.add_argument(
            "--no-cache",
            action="store_true",
            default=not defaults.cache_enabled,
            help="disable the on-disk artifact cache",
        )
        parser.add_argument(
            "--log-level",
            choices=[level for case in _LOG_LEVELS for level in (case, case.lower())],
            default=defaults.log_level,
            help="repro logger threshold (default: $EVAL_REPRO_LOG_LEVEL "
                 "or WARNING)",
        )
        parser.add_argument(
            "--log-json",
            action="store_true",
            default=defaults.log_json,
            help="emit log records as JSON lines",
        )
        parser.add_argument(
            "--metrics-out",
            default=defaults.metrics_out,
            help="write the merged fleet-wide metrics registry to this "
                 "JSON file at exit",
        )
        parser.add_argument(
            "--shared-mem",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="broadcast the chip population to --jobs N workers over "
                 "shared memory instead of rebuilding it per worker "
                 "(bit-identical; default: $EVAL_REPRO_SHARED_MEM or on)",
        )

    @staticmethod
    def add_service_arguments(
        parser: argparse.ArgumentParser, defaults: "Settings"
    ) -> None:
        """Register the campaign-service policy flags (:mod:`repro.serve`).

        The daemon *address* is deliberately not here: daemons bind it as
        ``--addr`` and clients reach it as ``--service``, both defaulting
        to :attr:`service_addr` ($EVAL_REPRO_SERVICE).
        """
        parser.add_argument(
            "--service-max-jobs",
            type=int,
            default=defaults.service_max_jobs,
            help="reject submissions beyond this many live jobs "
                 "(default: $EVAL_REPRO_SERVICE_MAX_JOBS or 8)",
        )
        parser.add_argument(
            "--service-retries",
            type=int,
            default=defaults.service_retries,
            help="per-unit retry budget before a cell is declared "
                 "poisoned (default: $EVAL_REPRO_SERVICE_RETRIES or 1)",
        )
        parser.add_argument(
            "--service-timeout",
            type=float,
            default=defaults.service_cell_timeout,
            metavar="SECONDS",
            help="per-unit wall-clock budget; an over-budget unit counts "
                 "as a failure (default: $EVAL_REPRO_SERVICE_TIMEOUT)",
        )

    @staticmethod
    def add_fleet_arguments(
        parser: argparse.ArgumentParser,
        defaults: "Settings",
        role: str = "daemon",
    ) -> None:
        """Register the worker-fleet flags (:mod:`repro.serve.fleet`).

        Both the daemon and the ``worker`` subcommand call this;
        ``role`` selects the side-specific flags (the daemon owns the
        liveness policy, the worker owns where it connects).  Both sides
        take ``--store-backend`` — a fleet sharing one cache directory
        should run every member with ``shared``.
        """
        parser.add_argument(
            "--store-backend",
            choices=("local", "shared"),
            default=defaults.store_backend,
            help="artifact-store backend: 'local' single-host layout or "
                 "'shared' with advisory locks + completed-write markers "
                 "for fleet-shared mounts "
                 "(default: $EVAL_REPRO_STORE_BACKEND or local)",
        )
        if role == "worker":
            parser.add_argument(
                "--connect",
                default=defaults.worker_connect or defaults.service_addr,
                metavar="HOST:PORT",
                help="daemon to register with "
                     "(default: $EVAL_REPRO_WORKER_CONNECT or "
                     "$EVAL_REPRO_SERVICE)",
            )
            return
        parser.add_argument(
            "--heartbeat-interval",
            type=float,
            default=defaults.heartbeat_interval,
            metavar="SECONDS",
            help="fleet worker heartbeat period; a worker missing three "
                 "beats is declared dead and its leases are re-queued "
                 "(default: $EVAL_REPRO_HEARTBEAT_INTERVAL or 2)",
        )
        parser.add_argument(
            "--lease-timeout",
            type=float,
            default=defaults.lease_timeout,
            metavar="SECONDS",
            help="lease age after which an idle worker may steal the "
                 "unit from its slow holder "
                 "(default: $EVAL_REPRO_LEASE_TIMEOUT or 60)",
        )
        parser.add_argument(
            "--fleet-only",
            action="store_true",
            help="run no in-process unit workers; all compute comes from "
                 "registered fleet workers",
        )

    # ------------------------------------------------------------------
    # Application.
    # ------------------------------------------------------------------
    @property
    def effective_cache_dir(self) -> Optional[str]:
        """The cache directory, or ``None`` when caching is disabled."""
        return self.cache_dir if self.cache_enabled else None

    def build_store(self):
        """An :class:`~repro.exps.cache.ArtifactStore`, or ``None``.

        The backend is selected by :attr:`store_backend`; the root is
        :attr:`effective_cache_dir`.
        """
        root = self.effective_cache_dir
        if root is None:
            return None
        from .exps.cache import build_store  # lazy: avoids an import cycle

        return build_store(root, self.store_backend)

    def build_cache(self):
        """An :class:`~repro.exps.cache.ExperimentCache`, or ``None``."""
        store = self.build_store()
        if store is None:
            return None
        from .exps.cache import ExperimentCache  # lazy: avoids an import cycle

        return ExperimentCache(store=store)

    def configure(self) -> "Settings":
        """Apply the logging settings; returns self for chaining."""
        from .obs import configure_logging

        configure_logging(self.log_level, json_lines=self.log_json)
        return self

    def replace(self, **changes) -> "Settings":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)
