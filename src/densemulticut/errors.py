"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Invalid argument value (bad node id, mismatched lengths, bad flags)."""


class CapacityError(RuntimeError):
    """A requested operation exceeds a configured size budget."""


class StateError(RuntimeError):
    """Operation on a node that is no longer alive, or similar misuse."""

