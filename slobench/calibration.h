// A fixed CPU kernel timed between servings to track the machine's speed.
//
// Host time on a shared machine drifts by 10-30% over minutes as other load
// comes and goes, and the drift moves every serving of a run together. The
// kernel mimics the simulator's hot path — hashed sparse distributions
// coalesced, sorted and normalised — so it slows down with the simulator.
// It lives in its own build target with fixed flags and calls nothing in
// the simulator, so no change to the program can speed it up.
#ifndef SLOBENCH_CALIBRATION_H_
#define SLOBENCH_CALIBRATION_H_

namespace slobench {

// Wall-clock seconds of one pass of the kernel.
double CalibrationKernelSeconds();

// The kernel's time on a quiet reference machine (a 4-core Xeon VM).
// Host times are reported as seconds at that machine's speed:
// measured * kKernelNominalSeconds / mean kernel time of the run.
inline constexpr double kKernelNominalSeconds = 0.1;

}  // namespace slobench

#endif  // SLOBENCH_CALIBRATION_H_
