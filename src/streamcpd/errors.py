"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with arguments that break its preconditions."""


class InputError(ValueError):
    """Malformed user-supplied data: unreadable file, non-numeric cell, empty series."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""
