from hypothesis import HealthCheck, settings

# Examples run dense linear algebra of uneven cost on a shared machine;
# wall-clock deadlines would flake.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
