from hypothesis import settings

# `pytest --hypothesis-profile=thorough` runs every property test that does
# not fix its own example count with 20 times the default
settings.register_profile("thorough", max_examples=20 * settings.default.max_examples)
