"""Exception vocabulary shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors (bad argument
shapes, misuse of internal helpers) and for malformed oracle fixture
files, which `verify` reports as failed checks.  `ConfigError` covers
the JSON documents a user writes.
"""


class Monge1dError(Exception):
    """Base class for all package-specific failures."""


class MaxIterations(Monge1dError):
    """An iterative solver stopped short of its contract: its step budget
    ran out, or its bracket collapsed, before the tolerance was met."""


class MaxDepth(Monge1dError):
    """Adaptive subdivision exceeded the recursion depth cap."""


class DomainError(Monge1dError):
    """An input left the mathematical domain of a formula."""


class CapacityError(Monge1dError):
    """The target interval cannot hold unit mass under the slope bound."""


class NonPositiveDensity(Monge1dError):
    """A source density is zero or negative somewhere on its interval."""


class InvalidPerturbation(Monge1dError):
    """A variational probe does not vanish at the support endpoints."""


class InsufficientRows(Monge1dError):
    """A convergence report needs at least two successful sweep rows."""


class ConfigError(Monge1dError):
    """A JSON document (run config or problem spec) failed validation."""
