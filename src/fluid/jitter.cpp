#include "fluid/jitter.hpp"

#include <cmath>

#include "core/hash.hpp"

namespace ecnd::fluid {

double JitterProcess::value(double t) const {
  if (!enabled()) return 0.0;
  const auto bucket = static_cast<std::int64_t>(std::floor(t / interval_));
  const std::uint64_t h = splitmix64_mix(
      seed_ ^ (kGoldenGamma * static_cast<std::uint64_t>(bucket + 0x100000)));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u * amplitude_;
}

}  // namespace ecnd::fluid
