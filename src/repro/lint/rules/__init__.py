"""The three per-file checks run by ``repro lint``; :data:`repro.lint.RULES`
pairs each with its rule id."""

__all__: list[str] = []
