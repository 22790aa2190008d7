#pragma once
// Typed camera <-> central-scheduler messages with round-trip serialization.

#include <optional>

#include "detect/detection.hpp"
#include "net/serializer.hpp"

namespace mvs::net {

/// Camera -> scheduler after a key-frame full inspection.
struct DetectionListMsg {
  std::uint32_t camera_id = 0;
  std::uint64_t frame_index = 0;
  std::vector<detect::Detection> detections;

  std::vector<std::uint8_t> encode() const;
  /// encode().size(), computed without serializing.
  std::size_t encoded_size() const;
  static std::optional<DetectionListMsg> decode(
      const std::vector<std::uint8_t>& bytes);
};

/// Scheduler -> camera: this camera's slice of the central-stage assignment
/// plus the horizon-wide priority order (needed by the distributed stage).
struct AssignmentMsg {
  std::uint32_t camera_id = 0;
  std::uint64_t frame_index = 0;
  /// Keys of the objects this camera must track.
  std::vector<std::uint64_t> assigned_keys;
  /// Cameras from highest to lowest distributed-stage priority.
  std::vector<std::uint32_t> priority_order;

  std::vector<std::uint8_t> encode() const;
  /// encode().size(), computed without serializing.
  std::size_t encoded_size() const;
  static std::optional<AssignmentMsg> decode(
      const std::vector<std::uint8_t>& bytes);
};

}  // namespace mvs::net
