from hypothesis import settings

# more examples for the planarity and PMFG properties in CI:
# python -m pytest --hypothesis-profile=ci ...
settings.register_profile("ci", max_examples=1000, deadline=None)
