#include "core/flow_detector.hpp"

namespace cgctx::core {

const char* to_string(Platform platform) {
  switch (platform) {
    case Platform::kGeforceNow: return "GeForce NOW";
    case Platform::kXboxCloud: return "Xbox Cloud Gaming";
    case Platform::kAmazonLuna: return "Amazon Luna";
    case Platform::kPsCloudStreaming: return "PS5 Cloud Streaming";
  }
  return "?";
}

std::optional<DetectionResult> CloudGamingFlowDetector::detect(
    const net::FlowState& flow) const {
  // Observation floor: don't judge a flow from its first handful of
  // packets.
  if (flow.total_packets() < params_.min_packets) return std::nullopt;
  if (flow.age() < params_.min_age) return std::nullopt;

  // UDP with one endpoint on a known platform streaming port. The
  // canonical tuple may have either orientation.
  if (!is_candidate(flow.key)) return std::nullopt;
  std::optional<Platform> platform = platform_for_port(flow.key.dst_port);
  if (!platform) platform = platform_for_port(flow.key.src_port);

  // Downstream must be a consistent RTP video stream at gaming rates
  // containing MTU-limited packets; upstream must exist (player inputs).
  if (flow.downstream_bps() < params_.min_downstream_mbps * 1e6)
    return std::nullopt;
  if (flow.downstream_rtp_consistency() < params_.min_rtp_consistency)
    return std::nullopt;
  if (flow.down.max_payload < params_.full_payload) return std::nullopt;
  if (flow.up.packets == 0) return std::nullopt;

  return DetectionResult{*platform, flow.key};
}

}  // namespace cgctx::core
