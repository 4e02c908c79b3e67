"""JSON document forms of the package's values.

Exact rationals travel as "p/q" strings so nothing is ever rounded; plain
integers are accepted on input, floats never are. Field names are camelCase.
Structural problems (wrong type, unknown or missing field, unknown kind)
raise ParseError; value problems (zero denominators, negative terms, bad
radices) surface as the constructors' usual ValidationError.

This module holds every form in both directions: the ``*_to_doc`` writers
live in ``writers``, which every command's answer goes through, and the
``*_from_doc`` readers, with their checks, in ``readers``, which only JSON
input needs; a launch loads one or both of those, and never this module.
"""

from .readers import algebra_from_doc, model_from_doc, tail_from_doc, word_from_doc
from .writers import (
    algebra_to_doc, approximation_to_doc, convexity_to_doc, expansion_to_doc, model_to_doc, report_to_doc,
    tail_to_doc, verdict_to_doc, word_to_doc,
)
