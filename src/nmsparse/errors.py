"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes or block widths do not line up (e.g. block width not dividing c_in)."""


class DegenerateAxisError(ValueError):
    """An axis vector is too short, or the kept count is 0 or the full length."""


class PatternViolationError(ValueError):
    """A tensor offered for compression has a block with more than n nonzeros."""

    def __init__(self, block: int, message: str):
        super().__init__(message)
        self.block = block


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, weight or bias."""

    def __init__(self, epoch: int, iteration: int, what: str = "loss"):
        super().__init__(f"non-finite {what} at epoch {epoch}, iteration {iteration}")
        self.epoch = epoch
        self.iteration = iteration


class FieldError(ValueError):
    """A dataclass field holds a value its checks reject; ``field`` names it.

    The run-config reader reports it under the field's full key, e.g.
    ``trainer.epochs: need at least one epoch``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
