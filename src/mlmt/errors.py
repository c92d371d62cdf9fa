"""Exception types shared across the package."""


class MlmtError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateNode(MlmtError):
    pass


class DuplicateArrow(MlmtError):
    pass


class DanglingArrow(MlmtError):
    """An arrow references a node that is not declared in the graph."""


class GraphMismatch(MlmtError):
    """Morphisms being combined do not share the required graphs."""


class NotInclusion(MlmtError):
    """A morphism expected to be an inclusion is not."""


class DanglingDeletion(MlmtError):
    """Deleting a node image would orphan an arrow that is not deleted.

    Signals a violation of the gluing condition; the match is rejected.
    """


class NonTotalRootTyping(MlmtError):
    """A typing morphism to the root level is not total."""


class UniquenessViolation(MlmtError):
    """Composed transitive typing disagrees with the direct jump typing."""

    def __init__(self, k, j, i, element, message=None):
        self.levels = (k, j, i)
        self.element = element
        super().__init__(
            message
            or f"uniqueness condition fails at levels {(k, j, i)} on {element!r}"
        )


class RootMismatch(MlmtError):
    pass


class CompatibilityViolation(MlmtError):
    """Multilevel typing violates the strong compatibility condition."""


class DepthMismatch(MlmtError):
    pass


class NotInclusionChain(MlmtError):
    pass


class InheritanceCycle(MlmtError):
    pass


class ParseError(MlmtError):
    """Syntax error in a textual input; carries line/column information."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


class InputError(MlmtError):
    """An input file is malformed: it is not valid UTF-8, or a field is
    missing or of the wrong kind.  The message names the byte or the JSON
    path of the field."""


class SchemaError(MlmtError):
    """A structurally valid file references unknown models or elements."""


class UnresolvedReference(MlmtError):
    pass


class DuplicateDeclaration(MlmtError):
    pass


class TypeMismatch(MlmtError):
    """A rule is typed over a different model than the one it is applied to."""


class IncompatibleMatch(MlmtError):
    """A match fails the level-wise typing compatibility square."""

    def __init__(self, level, element, message=None):
        self.level = level
        self.element = element
        super().__init__(
            message or f"match incompatible at level {level} on {element!r}"
        )
