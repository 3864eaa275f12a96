from hypothesis import HealthCheck, settings

# Derandomized: every run draws the same examples, so the suite is
# reproducible; no example database is read or written.
settings.register_profile(
    "dioph",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dioph")
