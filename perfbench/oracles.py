"""Output checks written apart from the program.

Nothing here calls into ``repro`` to decide what is right:

* the detector oracle says what a sequence detector must print,
  from the definition of the pattern alone;
* the program replayer runs a reconfiguration program's steps against
  a plain dict table, with the paper's one-write-per-cycle rule, and
  checks its length against Thms 4.2/4.3;
* the rollout check reads a live migration's report and, where the
  journal is on, the timeline rebuilt from that rollout's events.
"""

from __future__ import annotations

#: The workload pair every serving workload uses: a fleet serving the
#: source detector, live-migrated to the target and back.
PAIR = "ctrl/pattern-1011-to-0110"
PATTERNS = ("1011", "0110")


def detector_outputs(pattern, word, tail=""):
    """What a detector for ``pattern`` prints on ``word``.

    Output ``i`` is ``"1"`` exactly when the last ``len(pattern)``
    symbols of ``tail + word[: i + 1]`` equal the pattern.  ``tail`` is
    the end of the history before ``word`` (a session that started at
    reset); without it the first ``len(pattern) - 1`` outputs are only
    right from reset, and ``window_outputs`` is the check to use.
    """
    history = tail + "".join(word)
    k = len(pattern)
    offset = len(tail)
    return [
        "1" if history[max(0, j - k + 1):j + 1] == pattern else "0"
        for j in range(offset, len(history))
    ]


def window_outputs(pattern, word):
    """The outputs at positions ``i >= len(pattern) - 1`` of ``word``,
    which a detector prints the same from any start state."""
    return detector_outputs(pattern, word)[len(pattern) - 1:]


def delta_size(source, target):
    """``|T_d|``: target table entries the source lacks or differs on."""
    before = source.table
    return sum(
        1 for key, entry in target.table.items() if before.get(key) != entry
    )


def replay_program(program, source, target):
    """Replay ``program`` on a dict table; ``None`` when it is right,
    else a one-line reason.

    One step is one cycle: a reset moves to the target's reset state; a
    traverse takes an entry that already holds its transition; a write
    rewrites the entry addressed by the current state and takes it.
    The final table must agree with the target on every target entry,
    and the length must lie in ``[|T_d|, 3 (|T_d| + 1)]``.
    """
    table = dict(source.table)
    state = source.reset_state
    for index, step in enumerate(program.steps):
        kind = step.kind.value
        if kind == "reset":
            state = target.reset_state
            continue
        t = step.transition
        if t.source != state:
            return f"step {index} fires from {t.source} in state {state}"
        key = (t.input, t.source)
        if kind == "traverse":
            if table.get(key) != (t.target, t.output):
                return f"step {index} traverses an entry it does not hold"
        else:
            table[key] = (t.target, t.output)
        state = t.target
    for key, entry in target.table.items():
        if table.get(key) != entry:
            return f"entry {key} is {table.get(key)}, target has {entry}"
    low = delta_size(source, target)
    if not low <= len(program) <= 3 * (low + 1):
        return f"length {len(program)} outside [{low}, {3 * (low + 1)}]"
    return None


def check_rollout(report, events=None):
    """``None`` when a rollout is right, else a one-line reason.

    The report must be verified with 0 service-downtime cycles.  With
    ``events`` (that rollout's journal, first event included), the
    timeline rebuilt from them must agree with the report.
    """
    if not report.verified:
        return "rollout not verified"
    if report.service_downtime_cycles != 0:
        return f"{report.service_downtime_cycles} downtime cycles"
    if events is None:
        return None
    from repro.obs import migration_timeline

    timeline = migration_timeline(events)
    shards = timeline.shards.values()
    if not (timeline.completed and timeline.zero_downtime
            and timeline.verified):
        return "journal timeline incomplete or not zero-downtime"
    if len(timeline.shards) != len(report.shards):
        return "journal timeline misses a shard"
    cycles = sum(shard.migration_cycles for shard in shards)
    if cycles != report.migration_cycles:
        return (f"journal shows {cycles} migration cycles, report "
                f"{report.migration_cycles}")
    return None
