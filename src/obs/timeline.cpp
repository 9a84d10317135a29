#include "obs/timeline.h"

namespace vafs::obs {

const char* series_name(SeriesId id) {
  switch (id) {
    case SeriesId::kFreqKhz: return "freq_khz";
    case SeriesId::kBufferSeconds: return "buffer_s";
    case SeriesId::kBandwidthMbps: return "bandwidth_mbps";
    case SeriesId::kCpuPowerMw: return "cpu_power_mw";
  }
  return "?";
}

const char* series_unit(SeriesId id) {
  switch (id) {
    case SeriesId::kFreqKhz: return "kHz";
    case SeriesId::kBufferSeconds: return "s";
    case SeriesId::kBandwidthMbps: return "Mbps";
    case SeriesId::kCpuPowerMw: return "mW";
  }
  return "?";
}

}  // namespace vafs::obs
