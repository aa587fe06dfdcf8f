#!/usr/bin/env python3
"""Compile a protocol run into a timed AOD/RF schedule, print the timeline,
then break the timing on purpose to show what the validator catches."""

from maqmsim import (
    CellAddress,
    Channel,
    MemoryId,
    MemorySpec,
    ProtocolConfig,
    RfGrid,
    cell_to_rf,
    compile_schedule,
    schedule_from_jsonl,
    schedule_to_jsonl,
    superposition_rf,
)

GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)

SPEC1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, 0.2, 65.0, 7.8, GRID1)
SPEC2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0, 27.8, 1.3, GRID2,
                   eta_eit=0.2)


def config(t1=15.6, tau=7.8, t2=7.8):
    return ProtocolConfig(
        dimension=2,
        spec1=SPEC1, spec2=SPEC2,
        source_cells=(CellAddress(MemoryId.MAQM1, 1, 1),
                      CellAddress(MemoryId.MAQM1, 1, 2)),
        target_cells=(CellAddress(MemoryId.MAQM2, 1, 1),
                      CellAddress(MemoryId.MAQM2, 1, 2)),
        t1=t1, tau=tau, t2=t2)


def tone_text(tones):
    return " + ".join(f"{t.f_mhz:.1f}MHz@{t.amp:.3f}" for t in tones)


def main():
    print("Cell addressing: crossed deflectors take one tone pair per cell")
    fx, fy = cell_to_rf(SPEC1, CellAddress(MemoryId.MAQM1, 1, 2))
    print(f"  source cell (1, 2) -> f_x={fx} MHz, f_y={fy} MHz")

    # a two-cell superposition in one column factors into a single x tone
    # and two y tones; patterns that do not factor are rejected at compile
    x_tones, y_tones = superposition_rf(
        SPEC1,
        [CellAddress(MemoryId.MAQM1, 1, 1), CellAddress(MemoryId.MAQM1, 1, 2)],
        [2 ** -0.5, 2 ** -0.5])
    print(f"  write pattern    x: {tone_text(x_tones)}")
    print(f"                   y: {tone_text(y_tones)}")

    print()
    print("Compiled two-bin schedule (t1=15.6, tau=7.8, t2=7.8)")
    sched = compile_schedule(config())
    print(f"  {'start':>7}  {'dur':>5}  {'channel':<15} x tones | y tones")
    for ev in sched.events:
        print(f"  {ev.t_start_us:7.2f}  {ev.duration_us:5.2f}  "
              f"{ev.channel.value:<15} {tone_text(ev.x_tones)}"
              f" | {tone_text(ev.y_tones)}")
    print(f"  valid: {sched.valid}   violations: {len(sched.violations)}")
    reads = [e.t_start_us for e in sched.on_channel(Channel.READ)]
    final = sched.on_channel(Channel.COUPLING_FINAL)[0].t_start_us
    print(f"  timings recovered from events: t1, tau, t2 = "
          f"{(reads[0], reads[1] - reads[0], final - reads[-1])}")

    print()
    print("Same run with tau=1.0: bins collide with the retune window and")
    print("fall off the source Larmor grid")
    bad = compile_schedule(config(tau=1.0))
    print(f"  valid: {bad.valid}")
    for v in bad.violations:
        print(f"  [{v.severity}] {v.code}: {v.message}")

    print()
    print("JSONL round trip preserves the schedule exactly")
    text = schedule_to_jsonl(sched)
    again = schedule_from_jsonl(text)
    print(f"  {len(text.splitlines())} lines, round trip equal: "
          f"{again.events == sched.events}")
    print("  first line:", text.splitlines()[0])


if __name__ == "__main__":
    main()
