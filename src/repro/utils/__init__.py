"""Shared utilities: seeded RNG helpers, timing, retry/backoff, and
error types."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".rng": ("SeedSequence", "derive_rng", "rng_from_seed"),
    ".timing": ("Stopwatch",),
    ".retry": ("BackoffPolicy", "RetryOutcome", "retry_call"),
    ".parallel": ("auto_shard_size", "fork_context", "resolve_jobs",
                  "shard_bounds"),
    ".errors": ("ReproError", "NetlistError", "SimulationError",
                "ModelError", "CampaignError", "SerializationError"),
})
