// The decision daemon's wire protocol: length-prefixed binary frames over
// a Unix-domain stream socket.
//
// Frame layout (all integers little-endian):
//
//   u32  payload_len      bytes after the header (<= kMaxPayload)
//   u8   magic 'V'
//   u8   magic 'F'
//   u8   version          kWireVersion
//   u8   type             MsgType
//   u64  stream_id        connection-scoped session identifier
//   u64  checksum         FNV-1a over (version, type, stream_id, payload)
//   ...  payload
//
// A connection multiplexes many decision streams; stream ids are scoped
// to their connection, so two clients can both use stream 0 without
// coordination and the server keeps zero cross-connection state — the
// property the determinism proof leans on: each DecisionCore sees exactly
// one client's request order.
//
// Every numeric field is fixed-width and doubles travel as their IEEE-754
// bit pattern (std::bit_cast), so a value decodes to the identical bits
// the client encoded — the decision core's arithmetic is then exactly the
// in-process controller's.
//
// Malformed input (bad magic, unknown version/type, oversized length,
// checksum mismatch, a payload shorter or longer than its fields, a flag
// byte other than 0 or 1) decodes to a WireError; the server
// answers with an Error frame when the header was intact enough to reply
// to, and drops the connection otherwise. VafsConfig's watchdog block is
// not carried: the watchdog is actuation-side state the decision core
// never reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/decision_core.h"

namespace vafs::serve {

inline constexpr std::uint8_t kWireMagic0 = 'V';
inline constexpr std::uint8_t kWireMagic1 = 'F';
/// 2: the stream geometry dropped its `routed` byte (one plan serves every
/// cluster count), so a version-1 peer is refused rather than misread.
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kWireHeaderSize = 24;
/// Generous cap: the largest legitimate payload (Hello with 8 clusters of
/// long OPP tables) is well under 4 KiB.
inline constexpr std::uint32_t kMaxPayload = 64 * 1024;

enum class MsgType : std::uint8_t {
  kHello = 1,     // open stream: payload = DecisionStreamInfo
  kHelloOk = 2,   // stream opened (empty payload)
  kDecide = 3,    // payload = DecisionRequest
  kDecision = 4,  // payload = DecisionResponse
  kClose = 5,     // close stream (empty payload, no reply)
  kError = 6,     // payload = u32 WireError code
  kPing = 7,      // health probe (empty payload)
  kPong = 8,      // health reply (empty payload)
};

enum class WireError : std::uint32_t {
  kNone = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadType = 3,
  kOversized = 4,
  kBadChecksum = 5,
  kShortPayload = 6,
  kUnknownStream = 7,
  kDuplicateStream = 8,
  kBadGeometry = 9,
  kServerOverloaded = 10,
  kServerDraining = 11,
};

const char* wire_error_name(WireError e);

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = kWireVersion;
  MsgType type = MsgType::kPing;
  std::uint64_t stream_id = 0;
  std::uint64_t checksum = 0;
};

/// FNV-1a over the checksummed region: version, type, stream_id (LE
/// bytes), then the payload.
std::uint64_t frame_checksum(std::uint8_t version, MsgType type, std::uint64_t stream_id,
                             const std::uint8_t* payload, std::size_t len);

/// Serializes a complete frame (header + payload) into `out` (appended).
void encode_frame(std::vector<std::uint8_t>& out, MsgType type, std::uint64_t stream_id,
                  const std::vector<std::uint8_t>& payload);

/// Parses and validates the 24-byte header. On success fills `header` and
/// returns kNone; the caller then reads payload_len bytes and calls
/// verify_payload. Magic/version/type/length problems return their error.
WireError decode_header(const std::uint8_t* buf, FrameHeader& header);

/// Checks the payload against the header's checksum.
WireError verify_payload(const FrameHeader& header, const std::uint8_t* payload,
                         std::size_t len);

// ---- Little-endian field writer / reader --------------------------------

class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // IEEE-754 bit pattern

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked reader: every getter returns false once the buffer is
/// exhausted (and keeps returning false), so decode loops can check once
/// at the end instead of after every field.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  bool u8(std::uint8_t& v);
  /// A bool: one byte that must be 0 or 1.
  bool flag(bool& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool i64(std::int64_t& v);
  bool f64(double& v);
  bool ok() const { return ok_; }
  /// Every read succeeded and consumed the buffer exactly: a payload with
  /// bytes after its last field is refused.
  bool done() const { return ok_ && pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Message payloads ----------------------------------------------------

void encode_stream_info(std::vector<std::uint8_t>& out, const core::DecisionStreamInfo& info);
bool decode_stream_info(const std::uint8_t* data, std::size_t size,
                        core::DecisionStreamInfo& info);

void encode_request(std::vector<std::uint8_t>& out, const core::DecisionRequest& req);
bool decode_request(const std::uint8_t* data, std::size_t size, core::DecisionRequest& req);

void encode_response(std::vector<std::uint8_t>& out, const core::DecisionResponse& resp);
bool decode_response(const std::uint8_t* data, std::size_t size, core::DecisionResponse& resp);

void encode_error(std::vector<std::uint8_t>& out, WireError code);
bool decode_error(const std::uint8_t* data, std::size_t size, WireError& code);

}  // namespace vafs::serve
