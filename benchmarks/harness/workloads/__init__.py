"""The five workloads; each module exposes ``run(ctx) -> WorkloadResult``."""
