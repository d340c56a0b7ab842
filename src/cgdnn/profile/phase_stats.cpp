#include "cgdnn/profile/phase_stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace cgdnn::profile {

double PhaseStats::total_us() const {
  return std::accumulate(samples_us.begin(), samples_us.end(), 0.0);
}

double PhaseStats::mean_us() const {
  return samples_us.empty() ? 0.0 : total_us() / static_cast<double>(samples_us.size());
}

double PhaseStats::min_us() const {
  return samples_us.empty()
             ? 0.0
             : *std::min_element(samples_us.begin(), samples_us.end());
}

double PhaseStats::max_us() const {
  return samples_us.empty()
             ? 0.0
             : *std::max_element(samples_us.begin(), samples_us.end());
}

double PhaseStats::stddev_us() const {
  if (samples_us.size() < 2) return 0.0;
  const double mean = mean_us();
  double sq = 0.0;
  for (const double v : samples_us) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(samples_us.size()));
}

double PhaseStats::p50_us() const {
  if (samples_us.empty()) return 0.0;
  std::vector<double> sorted = samples_us;
  const std::size_t mid = (sorted.size() - 1) / 2;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                   sorted.end());
  return sorted[mid];
}

}  // namespace cgdnn::profile
