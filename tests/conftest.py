from hypothesis import HealthCheck, settings

# The exhaustive randomized sweeps (>= 1000 cases per property) live in
# test_acceptance.py with seeded generators; the per-module hypothesis
# tests exist for shrinking quality, so a smaller example budget keeps the
# whole suite inside its time bound.  derandomize draws the same examples
# on every run, so CI and local runs test the same cases.
settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("suite")
