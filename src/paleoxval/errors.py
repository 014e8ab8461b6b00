"""Exception hierarchy shared by all modules; errors with fields unpickle intact."""


class PaleoXvalError(Exception):
    """Base class for all library errors."""


class DegenerateColumn(PaleoXvalError):
    """A proxy column has (near-)zero variance over the calibration rows.

    ``column_ids`` lists every offending column; the message names the first
    ten, so one error line stays short however many columns are flat.
    """

    def __init__(self, column_ids):
        self.column_ids = tuple(column_ids)
        more = len(self.column_ids) - 10
        super().__init__("zero-variance column(s) over calibration rows: "
                         + ", ".join(self.column_ids[:10])
                         + (f" ... and {more} more" if more > 0 else ""))

    def __reduce__(self):
        return type(self), (self.column_ids,)


class LengthMismatch(PaleoXvalError):
    """Two vectors that must be equally long are not."""


class SingularSystem(PaleoXvalError):
    """The shifted calibration system could not be factorized."""


class DegenerateTrace(PaleoXvalError):
    """tr(I - H(lambda)) is numerically zero; the GCV score is undefined."""


class InvalidBlockLength(PaleoXvalError):
    """Holdout block length outside 2 <= n_v < n."""


class BlockFailure(PaleoXvalError):
    """A holdout block failed during a strict-mode experiment run."""

    def __init__(self, block_start, cause):
        self.block_start = block_start
        self.cause = cause
        super().__init__(f"block at start {block_start} failed: {cause}")

    def __reduce__(self):
        return type(self), (self.block_start, self.cause)


class ParseError(PaleoXvalError):
    """A CSV file is malformed."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        self.message = message
        super().__init__(f"{path}:{line_no}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.line_no, self.message)


class NonAnnualYears(PaleoXvalError):
    """Year column is not strictly increasing with unit step."""


class NonFiniteValue(PaleoXvalError):
    """A data value is NaN or infinite."""


class YearMismatch(PaleoXvalError):
    """Proxy-file years do not match the target years exactly."""


class ConfigError(PaleoXvalError):
    """An experiment config file is invalid."""
