// The host's speed, measured with a fixed piece of reference work that runs
// no netadv code, so that no change to the program can move it.
//
// On a shared host the same machine code runs up to twice as slowly for
// minutes at a time, while co-tenants load the physical cores. The harness
// times the reference work between every two timed spans and scales each
// span to a nominal host speed: span * kNominalReferenceS / reference. A
// slower program takes longer against the same reference, so it still shows
// in full; a slower host stretches both, and most of it cancels out.
#pragma once

namespace perfbench {

/// The reference work's CPU time on the nominal host. Scaled times are
/// seconds on a host that runs the reference work in exactly this long (a
/// 4-vCPU Xeon VM on a busy shared host takes about 8 ms).
inline constexpr double kNominalReferenceS = 0.008;

/// Run the reference work once on the calling thread and return the CPU
/// seconds it took. CPU time, not wall time: a thread descheduled midway
/// would otherwise read as a slow host and scale the next span down.
double time_reference();

}  // namespace perfbench
