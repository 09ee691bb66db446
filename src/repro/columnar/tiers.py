"""The equivalence-tier declaration registry.

Every kernel that replaces part of the scalar, serial chain, and every
worker the runtime fans out, owes its callers a statement of *how
equivalent* its output is to that chain's. There are three tiers:

``exact``
    bit-identical to the scalar path for every input;
``ulp``
    identical up to one unit-in-the-last-place on
    transcendental-function outputs (``arcsinh``-class eta math);
``statistical``
    drawn from the identical distributions with identical acceptance
    logic, but not bit-identical (re-phased random draws).

:func:`equivalence_tier` declares a function's tier. The declaration
is doubly visible: at runtime through :func:`declared_tier` /
:func:`declared_tiers`, and *statically* — the decorator literally
names the tier at the definition site, which is what the
``repro.lint.par`` order-sensitivity rules (DAS308, DAS310–DAS312)
check kernels against. An ``exact``-tier function that draws random
numbers or accumulates floats in a chunking-dependent order is
claiming an equivalence it cannot deliver, and the analyzer says so.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: The declared equivalence tiers, weakest guarantee last.
EQUIVALENCE_TIERS = ("exact", "ulp", "statistical")

#: ``module.qualname`` -> declared tier.
_DECLARED: dict[str, str] = {}


def equivalence_tier(tier: str):
    """Declare the equivalence tier of a kernel or worker function.

    >>> @equivalence_tier("exact")
    ... def double_all(values):
    ...     return [2 * v for v in values]
    """
    if tier not in EQUIVALENCE_TIERS:
        raise ConfigurationError(
            f"unknown equivalence tier {tier!r}; "
            f"expected one of {EQUIVALENCE_TIERS}"
        )

    def declare(func):
        name = f"{func.__module__}.{func.__qualname__}"
        if _DECLARED.get(name, tier) != tier:
            raise ConfigurationError(
                f"{name} already declared tier {_DECLARED[name]!r}")
        _DECLARED[name] = tier
        func.__equivalence_tier__ = tier
        return func

    return declare


def declared_tier(func_or_name) -> str | None:
    """The declared tier of a function (or dotted name), if any."""
    if isinstance(func_or_name, str):
        return _DECLARED.get(func_or_name)
    return getattr(func_or_name, "__equivalence_tier__", None)


def declared_tiers() -> dict[str, str]:
    """Every declaration, sorted by qualified name."""
    return {name: _DECLARED[name] for name in sorted(_DECLARED)}
