// Future-application profile presets.
//
// The paper's slide 10 characterizes the family of future applications with
// two histograms (typical WCET at 20/50/100/150 time units, typical message
// size at 2/4/6/8 bytes) plus Tmin, tneed and bneed. The bar heights are
// not numerically legible in the published figure; we use a mid-heavy shape
// {0.2, 0.4, 0.3, 0.1} for both, as an estimate of the figure's bars.
#pragma once

#include "core/future_profile.h"

namespace ides {

/// The paper's histograms with the given periodic needs.
FutureProfile paperFutureProfile(Time tmin, Time tneed,
                                 std::int64_t bneedBytes);

/// Distribution helpers exposed for generators and tests.
DiscreteDistribution paperWcetDistribution();
DiscreteDistribution paperMessageSizeDistribution();

}  // namespace ides
