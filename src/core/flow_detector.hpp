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

  /// Whether detect() could ever accept a flow with this canonical tuple:
  /// UDP with either port in a platform streaming range. Depends on the
  /// tuple alone, so front-ends use it to decide which undetected packets
  /// are worth buffering for replay; detect() applies the same test.
  [[nodiscard]] static bool is_candidate(const net::FiveTuple& canonical);

  [[nodiscard]] const FlowDetectorParams& params() const { return params_; }

 private:
  FlowDetectorParams params_;
};

}  // namespace cgctx::core
