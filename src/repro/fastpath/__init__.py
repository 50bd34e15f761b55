"""``repro.fastpath`` — the columnar/vectorized batch engine.

Splits per-packet work into a *vectorizable classification stage*
(decode, role bits, expected ACKs — :mod:`repro.net.columnar` and
:mod:`repro.fastpath.classify`) and the *scalar mutation stage* every
entry point shares (``Dart._packet`` in :mod:`repro.core.pipeline`,
which ``Dart.process_columns`` calls once per row with the column
values and which does all the hashing, as on every other path), with
byte-identical verdicts, stats, and sample multisets versus the
reference object path.  DESIGN §15 states the equivalence argument.
numpy is optional and nothing selects this path by flag:
:meth:`MonitorEngine.ingest_wire_chunk
<repro.engine.MonitorEngine.ingest_wire_chunk>` (which ``dart-replay``
and every ``repro.stream`` source feed raw frames) takes it when
:data:`HAVE_NUMPY` is true and the monitor has ``process_columns``, and
the object path otherwise.  The serial engine is its only user: cluster
process workers read their framed batches with ``struct``
(``Dart.process_framed``) and never import numpy.
"""

from ..net.columnar import (
    HAVE_NUMPY,
    KIND_RECORD,
    KIND_SKIP,
    KIND_VEC,
    PacketColumns,
    decode_wire_columns,
    records_to_columns,
)
from . import classify

__all__ = [
    "HAVE_NUMPY",
    "KIND_RECORD",
    "KIND_SKIP",
    "KIND_VEC",
    "PacketColumns",
    "classify",
    "decode_wire_columns",
    "records_to_columns",
]
