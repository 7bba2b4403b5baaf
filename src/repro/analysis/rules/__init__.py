"""The five project-specific checkers.  Importing this package registers them.

Each module holds one rule; the module docstring (shared with the rule
class) documents the invariant with a real in-repo example and is what
``repro lint --list-rules`` prints.
"""

from repro.analysis.rules import blocking_in_async  # noqa: F401
from repro.analysis.rules import permit_leak  # noqa: F401
from repro.analysis.rules import shed_discipline  # noqa: F401
from repro.analysis.rules import span_discipline  # noqa: F401
from repro.analysis.rules import staging_pairing  # noqa: F401
