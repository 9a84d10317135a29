// Timeline series for the observability layer: named (sim-time, value)
// sample streams. The Perfetto export, the timeline CSV and bench_f2 read
// the samples as recorded.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcore/time.h"

namespace vafs::obs {

/// The well-known per-session series every instrumented session maintains.
enum class SeriesId : std::uint8_t {
  kFreqKhz,        // big-cluster programmed frequency at each transition
  kBufferSeconds,  // playback buffer level at arrivals and presentations
  kBandwidthMbps,  // link rate observed passively at downloader pumps
  kCpuPowerMw,     // mean CPU power over each constant-frequency segment
};
inline constexpr std::size_t kSeriesCount = 4;

const char* series_name(SeriesId id);
const char* series_unit(SeriesId id);

struct Sample {
  std::int64_t t_us = 0;
  double value = 0.0;

  bool operator==(const Sample&) const = default;
};

/// One sample stream, in time order.
class Series {
 public:
  void push(sim::SimTime at, double value) {
    samples_.push_back(Sample{at.as_micros(), value});
  }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;
};

/// The fixed set of well-known series, preallocated so instrumented hot
/// paths index an array instead of hashing names.
class Timeline {
 public:
  void push(SeriesId id, sim::SimTime at, double value) {
    series_[static_cast<std::size_t>(id)].push(at, value);
  }
  Series& at(SeriesId id) { return series_[static_cast<std::size_t>(id)]; }
  const Series& at(SeriesId id) const { return series_[static_cast<std::size_t>(id)]; }

 private:
  std::array<Series, kSeriesCount> series_;
};

}  // namespace vafs::obs
