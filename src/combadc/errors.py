"""Exception types shared across the package."""


class CombAdcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CombAdcError):
    """A config file or parameter set is malformed or inconsistent.

    Carries an optional line number so the CLI can point at the offending
    line of a config file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SignalError(CombAdcError):
    """A waveform does not satisfy a precondition (rate, length, headroom),
    or a figure cannot be drawn from it: the equalizer diverged or did not
    improve on the raw samples, or the expected tone is lost in the noise
    floor. The runner records such a failure and moves on instead of
    reporting a garbage number.
    """
