"""Seeded, fixed operation sequences for the read/write mix.

A sequence is a list of epochs.  Every epoch has the same shape:

1. ``write`` — one synthetic ``fleet_events`` batch committed through a
   :class:`~repro.store.writer.StoreWriter`; the client then waits until
   the served generation has advanced, so every run sees the new
   generation at the same point of the sequence;
2. ``report`` — the first report-table request after the advance (a
   result-cache miss that recomputes the table);
3. one ``scan``, then ``epoch_len - 3`` reads drawn from three classes:

   * ``hit`` — a repeat of one of the last :data:`RECENT_SCANS` scans of
     this epoch, i.e. at the current generation (a result-cache hit that
     no epoch length can evict; always a scan, so that hits all serve
     payloads of one shape);
   * ``scan`` — a grouped aggregate whose predicate value was never used
     before (misses both cache tiers);
   * ``lookup`` — a point aggregate on one key, with a never-used filler
     predicate so that it too misses both cache tiers.

Predicate values stay in a narrow band, so every scan selects nearly the
same rows and costs the same.  The same ``(seed, epochs, epoch_len,
templates)`` always gives the same sequence and class labels.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence
from urllib.parse import urlencode

#: Draw weights of the free slots of an epoch.  This is a chosen synthetic
#: mix, not a measured one: the program has no production traffic to learn
#: from, so the three read classes get equal shares and none is favoured.
#: ``report`` and ``write`` are not drawn; each epoch has one of each at
#: fixed positions (the first read after an advance, and the commit).
MIX = (("hit", 1 / 3), ("scan", 1 / 3), ("lookup", 1 / 3))

#: Hits repeat one of this many most recent scans.
RECENT_SCANS = 4
#: Rows of each committed synthetic batch.
WRITE_ROWS = 32
#: ``synthetic_fleet_batch`` draws user ids below ``rows // 4``.  Scans
#: and lookups read only the users above, so the segments the mix
#: commits are pruned from them and every epoch reads the same segments.
COMMITTED_USERS = WRITE_ROWS // 4


class Templates(NamedTuple):
    """Request shapes of one store: query parameters with ``{u}``/``{k}``."""

    scan: tuple[tuple[str, str], ...]
    lookup: tuple[tuple[str, str], ...]
    #: Lookup keys (``{k}``), drawn uniformly.
    keys: tuple
    report: str


class Op(NamedTuple):
    index: int
    epoch: int
    cls: str
    #: Request target for reads; the batch index (as text) for writes.
    target: str


def _target(params: Sequence[tuple[str, str]], **values) -> str:
    return "/v1/query?" + urlencode(
        [(key, value.format(**values)) for key, value in params])


def warmup_targets(seed: int, count: int, templates: Templates) -> list[str]:
    """Scans and lookups to run before the sequence, so that its first
    epoch does not pay the server's one-time costs.  Their predicate values
    lie outside the sequence's band, so they share no cache entry with it.
    """
    rng = random.Random(f"pipebench-warmup-{seed}")
    return [_target(templates.scan if index % 2 == 0 else templates.lookup,
                    u=0.5 + index * 1e-6, k=rng.choice(templates.keys))
            for index in range(count)]


def operation_sequence(seed: int, epochs: int, epoch_len: int,
                       templates: Templates) -> list[Op]:
    """The fixed sequence of ``epochs * epoch_len`` operations."""
    if epoch_len < 3:
        raise ValueError("an epoch needs a write, a report and a scan")
    rng = random.Random(f"pipebench-ops-{seed}")
    classes = [name for name, _ in MIX]
    weights = [weight for _, weight in MIX]
    # A per-seed offset far below the unique-value step keeps values of
    # different seeds apart without moving the selectivity band.
    offset = (seed % 997) * 1e-9
    unique = 0
    ops: list[Op] = []
    for epoch in range(epochs):
        ops.append(Op(len(ops), epoch, "write", str(epoch)))
        ops.append(Op(len(ops), epoch, "report", templates.report))
        scans: list[str] = []
        for slot in range(epoch_len - 2):
            cls = "scan" if slot == 0 else rng.choices(classes, weights)[0]
            if cls == "hit":
                target = rng.choice(scans[-RECENT_SCANS:])
            else:
                unique += 1
                u = round(unique * 1e-6 + offset, 12)
                params = templates.scan if cls == "scan" else templates.lookup
                target = _target(params, u=u, k=rng.choice(templates.keys))
                if cls == "scan":
                    scans.append(target)
            ops.append(Op(len(ops), epoch, cls, target))
    return ops
