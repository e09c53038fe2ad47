// Core scalar types shared by every AdaServe module.
#ifndef ADASERVE_SRC_COMMON_TYPES_H_
#define ADASERVE_SRC_COMMON_TYPES_H_

#include <cstdint>

namespace adaserve {

// Vocabulary token id. Negative values are reserved for sentinels.
using Token = int32_t;

// Sentinel used where "no token" must be representable.
inline constexpr Token kInvalidToken = -1;

// Monotonically increasing request identifier assigned at arrival.
using RequestId = int64_t;

inline constexpr RequestId kInvalidRequestId = -1;

// Simulated wall-clock time in seconds. All latency math is done in seconds;
// reporting layers convert to milliseconds.
using SimTime = double;

// Converts seconds to milliseconds for reporting.
inline constexpr double ToMs(SimTime seconds) { return seconds * 1e3; }

}  // namespace adaserve

#endif  // ADASERVE_SRC_COMMON_TYPES_H_
