"""Exceptions shared across the simulator."""


class ConfigError(ValueError):
    """Raised when a config value or combination is invalid; `keys` names the fields at fault."""

    def __init__(self, message: str = "", keys: tuple = ()):
        super().__init__(message)
        self.keys = keys
