// Cloud-gaming streaming-flow detection (paper §4.1 front-end).
//
// Adapted from the state-of-the-art signatures the paper cites
// [Graff'23, Lyu'24, Shirmarz'24]: a cloud-game streaming flow is a
// long-lived bidirectional UDP conversation whose downstream is a
// consistent-SSRC RTP stream at multi-Mbps rates containing MTU-limited
// ("full") packets, paired with a low-rate upstream input stream, on a
// known platform port range. VoIP shares the RTP shape but not the rate;
// video streaming shares the rate but is TCP and one-directional.
#pragma once

#include <optional>
#include <string>

#include "net/flow_table.hpp"

namespace cgctx::core {

enum class Platform : std::uint8_t {
  kGeforceNow,
  kXboxCloud,
  kAmazonLuna,
  kPsCloudStreaming,
};

const char* to_string(Platform platform);

/// The platform whose streaming flows use this server UDP port, if any
/// (GeForce NOW's 49003-49006 is documented by NVIDIA [46]; the others
/// follow the signatures of the works the paper adapts).
constexpr std::optional<Platform> platform_for_port(std::uint16_t port) {
  if (port >= 49003 && port <= 49006) return Platform::kGeforceNow;
  if (port >= 9002 && port <= 9002 + 28) return Platform::kXboxCloud;
  if (port >= 44300 && port <= 44380) return Platform::kAmazonLuna;
  if (port >= 9295 && port <= 9304) return Platform::kPsCloudStreaming;
  return std::nullopt;
}

struct FlowDetectorParams {
  /// Minimum downstream payload throughput for a gaming stream (VoIP sits
  /// around 0.1 Mbps; cloud-game launch animations exceed 1 Mbps).
  double min_downstream_mbps = 1.0;
  /// Minimum fraction of downstream packets parsing as same-SSRC RTP.
  double min_rtp_consistency = 0.85;
  /// Full-size payload marking an MTU-limited video stream.
  std::uint32_t full_payload = 1432;
  /// Observation floor before a verdict is attempted.
  std::uint64_t min_packets = 200;
  net::Duration min_age = net::kNanosPerSecond;
};

struct DetectionResult {
  Platform platform = Platform::kGeforceNow;
  net::FiveTuple flow;  ///< canonical tuple of the detected flow

  friend bool operator==(const DetectionResult&,
                         const DetectionResult&) = default;
};

class CloudGamingFlowDetector {
 public:
  explicit CloudGamingFlowDetector(FlowDetectorParams params = {})
      : params_(params) {}

  /// Verdict for one flow: nullopt = not (yet) classifiable as a cloud
  /// gaming stream. Idempotent; callers typically re-test as the flow
  /// grows and cache the first positive.
  [[nodiscard]] std::optional<DetectionResult> detect(
      const net::FlowState& flow) const;

  /// Whether detect() could ever accept a flow with this tuple: UDP with
  /// either port in a platform streaming range. It depends on the tuple
  /// alone and not on its orientation, so the packet front-ends apply it
  /// to the tuple as it came off the wire, before canonicalising, and
  /// gate every other packet out; detect() applies the same test.
  [[nodiscard]] static constexpr bool is_candidate(
      const net::FiveTuple& tuple) {
    return tuple.protocol == 17 && (platform_for_port(tuple.dst_port) ||
                                    platform_for_port(tuple.src_port));
  }

  [[nodiscard]] const FlowDetectorParams& params() const { return params_; }

 private:
  FlowDetectorParams params_;
};

}  // namespace cgctx::core
