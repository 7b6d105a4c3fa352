"""Exception types shared across the package."""


class InterdictError(Exception):
    """Base class for all package errors."""


class InstanceError(InterdictError):
    """An instance (in-memory or on disk) is structurally invalid."""


class ParseError(InstanceError):
    """Malformed instance text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TrivialTree(InstanceError):
    """Fewer than two nodes: there is no root-leaf path to harden."""


class DuplicateChild(InstanceError):
    """A node appears as the child endpoint of more than one edge."""


class CycleDetected(InstanceError):
    """The parent map contains a cycle (or gives the root a parent)."""


class DisconnectedInput(InstanceError):
    """Some node is not reachable from the root."""


class NegativeWeight(InstanceError):
    """Edge lengths must be non-negative integers."""


class UpgradeBelowBase(InstanceError):
    """An edge's upgraded length is smaller than its base length."""


class LeafInSet(InterdictError):
    """An upgrade set contains a leaf; upgrading a leaf touches no edge."""


class TooLargeForOracle(InterdictError):
    """The instance exceeds the brute-force enumeration guard."""


def _decimal(n: int) -> str:
    """``n`` in decimal, or its digit count where Python's int-to-str limit
    (``sys.get_int_max_str_digits``) refuses the conversion."""
    try:
        return str(n)
    except ValueError:
        # bit_length * log10(2) gives the digit count or one above it; the
        # two checks also absorb float rounding.
        digits = int(abs(n).bit_length() * 0.30102999566398120) + 1
        if 10 ** (digits - 1) > abs(n):
            digits -= 1
        elif 10 ** digits <= abs(n):
            digits += 1
        return f"of {digits} digits"


class TargetUnreachable(InterdictError):
    """The requested distance exceeds the all-upgraded ceiling."""

    def __init__(self, target: int, ceiling: int):
        super().__init__(f"target {_decimal(target)} unreachable: "
                         f"ceiling {_decimal(ceiling)}")
        self.target = target
        self.ceiling = ceiling
