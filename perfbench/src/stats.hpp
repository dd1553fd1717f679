// Small numeric helpers shared by the benchmark and its self-tests: the
// result digest, seed derivation, the percentile rule and ratios that keep
// their base.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// FNV-1a 64 over the bytes of `text`.
inline std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
  return out;
}

/// SplitMix64 of (seed, purpose): every input the benchmark generates —
/// dataset, search seeds, replay seeds — comes from the one --seed argument
/// through this function, so the program only ever sees generated inputs.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (purpose + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q*n samples at or below it. 0 for an empty set.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

/// Samples strictly above the nearest-rank q-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The percentile rule: report a timing at the highest percentile that still
/// has at least `min_beyond` samples above it. `q` is 0 when no candidate
/// qualifies (fewer than min_beyond + 1 samples).
struct TailPercentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline TailPercentile tail_percentile(const std::vector<double>& v, std::size_t min_beyond = 10) {
  static constexpr double kCandidates[] = {0.999, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5};
  TailPercentile out;
  out.samples = v.size();
  for (const double q : kCandidates) {
    const std::size_t beyond = samples_beyond(v.size(), q);
    if (beyond >= min_beyond) {
      out.q = q;
      out.value = percentile(v, q);
      out.beyond = beyond;
      return out;
    }
  }
  return out;
}

/// The p95 a round latency is reported at: the nearest-rank 95th percentile
/// when at least ten samples lie beyond it, else the median — with too few
/// samples for any tail percentile, the largest sample mostly measures noise.
inline double p95_or_median(const std::vector<double>& v) {
  return samples_beyond(v.size(), 0.95) >= 10 ? percentile(v, 0.95) : median(v);
}

/// A ratio that carries its base, so every share the report prints can say
/// what it is a share of. value() is 0 when the base is 0.
struct Ratio {
  double part = 0.0;
  double base = 0.0;
  [[nodiscard]] double value() const { return base > 0.0 ? part / base : 0.0; }
};

}  // namespace perfbench
