"""The package's two exception types, one per CLI exit code.

InputError (exit 2): the input lies outside the model's domain.  A
configuration that does not parse or validate, a parameter that fails a
validity check, a patch interval outside the beam, a request that does not
fit the model (a mesh, layout, state or point that does not match it, or a
scenario that never moves the beam).  It carries issues, a list of
(line_number, message) pairs with line 0 when not tied to a line, and key,
the parameter or config key it names, or None.

NumericalFailure (exit 3): a computation on valid input failed.  A matrix
that is not positive definite, a step matrix that does not factor, an
eigenvalue iteration that does not converge, an energy ledger that does not
balance or a state that overflows.  pivot is LAPACK's first leading minor
that is not positive definite (1-based, in the band numbering), or None
when the failure is not one pivot.
"""


class InputError(Exception):
    def __init__(self, issues, key: str | None = None):
        if isinstance(issues, str):
            issues = [(0, issues)]
        self.issues = list(issues)
        self.key = key
        super().__init__("; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.issues))


class NumericalFailure(Exception):
    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot
