"""Exception hierarchy.

The CLI maps these onto exit codes: configuration problems exit 1,
numerical or invariant failures exit 2, I/O and format problems exit 3.
"""


class GprClutterError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GprClutterError, ValueError):
    """Invalid configuration: bad values, unknown keys, missing scenarios."""


class DomainError(GprClutterError, ValueError):
    """Constitutive evaluation left its admissible parameter domain."""


class TauFloorError(DomainError):
    """A perturbed relaxation time fell to its hard floor.

    ``index`` locates the offending value in the evaluated array; ``where``
    prefixes the message with the caller's context.
    """

    def __init__(self, index: tuple[int, ...], value: float, floor: float, where: str = ""):
        super().__init__(
            f"{where}perturbed tau at index {index} fell to {value!r} (floor {floor!r}); "
            "perturbation scale too large for channel 'tau'"
        )
        self.index, self.value, self.floor = index, value, floor

    def moved(self, index: tuple[int, ...], where: str) -> "TauFloorError":
        return TauFloorError(index, self.value, self.floor, where)


class NonFiniteError(DomainError):
    """A Cole-Cole value at ``index`` and ``omega`` was not finite; ``parameter`` is to blame."""

    def __init__(self, quantity: str, parameter: str, omega: float, index: tuple, where: str = ""):
        at = f", index {index}" if index else ""
        super().__init__(f"{where}{quantity} overflow at omega={omega!r}{at}; "
                         f"offending parameter {parameter!r}")
        self.quantity, self.parameter, self.omega, self.index = quantity, parameter, omega, index

    def moved(self, index: tuple[int, ...], where: str) -> "NonFiniteError":
        return NonFiniteError(self.quantity, self.parameter, self.omega, index, where)


class SingularBackgroundError(DomainError):
    """Background permittivity vanished where a sensitivity is needed."""


class NearSingularityError(GprClutterError, ValueError):
    """Source and evaluation points closer than the kernel's minimum separation."""


class AssemblyError(GprClutterError, RuntimeError):
    """Forward-matrix assembly produced a non-finite entry."""


class NonPositiveDefiniteError(GprClutterError, RuntimeError):
    """Cholesky factorization failed on a covariance factor."""


class UndefinedSpectrumError(GprClutterError, ValueError):
    """Spectral metrics requested for a zero (or invalid) covariance."""


class InvariantError(GprClutterError, RuntimeError):
    """A structural invariant (Hermitian symmetry, PSD, ...) was violated."""


class FormatError(GprClutterError, ValueError):
    """Malformed binary matrix file. Carries the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
