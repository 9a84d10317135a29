// Supervisor <-> worker pipe protocol.
//
// Records of the fleet record codec (fleet/record.h), one message per
// line, every line shorter than PIPE_BUF (4096 B on Linux) so a single
// write() is atomic and messages from a dying worker are never interleaved
// or torn. Doubles travel as IEEE-754 hex bit patterns, so a result folded
// by the supervisor is bit-identical to one folded in-process.
//
//   supervisor -> worker (cmd pipe)
//     T <task_index> <attempt>     run this task
//     Q                            drain and exit cleanly
//
//   worker -> supervisor (res pipe)
//     B <task_index>               begin-ack: the task is now in flight
//     R <task_index> <finished> <digest> <v0> ... <v34>
//                                  result: per-metric value vector
//     F <task_index> <hex-error>   captured task failure (session threw)
//     H <beat> <events> <digest>   heartbeat (from the worker's beat
//                                  thread; events/digest = last obs
//                                  checkpoint window of the in-flight task)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/aggregate.h"

namespace vafs::supervise {

struct WireResult {
  std::uint64_t task_index = 0;
  bool finished = false;
  std::uint64_t digest = 0;
  double values[exp::kMetricCount] = {};
};

struct WireFailure {
  std::uint64_t task_index = 0;
  std::string error;
};

struct WireHeartbeat {
  std::uint64_t beat = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_digest = 0;
};

// Encoders append one complete line (with '\n') to `out`.
void encode_task(std::string* out, std::uint64_t task_index, int attempt);
void encode_quit(std::string* out);
void encode_begin(std::string* out, std::uint64_t task_index);
void encode_result(std::string* out, const WireResult& r);
void encode_failure(std::string* out, std::uint64_t task_index, std::string_view error);
void encode_heartbeat(std::string* out, const WireHeartbeat& h);

// Parsers take one line without its '\n'; false = malformed.
bool parse_task(std::string_view line, std::uint64_t* task_index, int* attempt);
bool is_quit(std::string_view line);
bool parse_begin(std::string_view line, std::uint64_t* task_index);
bool parse_result(std::string_view line, WireResult* r);
bool parse_failure(std::string_view line, WireFailure* f);
bool parse_heartbeat(std::string_view line, WireHeartbeat* h);

/// Captured failure messages are clamped to keep the F line a single
/// atomic write: 2 hex chars per byte + tag/index overhead < PIPE_BUF.
inline constexpr std::size_t kMaxErrorBytes = 1500;

}  // namespace vafs::supervise
