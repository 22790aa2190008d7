#include "net/messages.hpp"

namespace mvs::net {

namespace {
// Wire sizes of the fixed-width fields ByteWriter emits.
constexpr std::size_t kU32Bytes = 4;
constexpr std::size_t kU64Bytes = 8;
// bbox (4 x f64) + cls (i32) + score (f64) + truth_id (u64).
constexpr std::size_t kDetectionWireBytes = 4 * 8 + 4 + 8 + 8;
}  // namespace

std::vector<std::uint8_t> DetectionListMsg::encode() const {
  ByteWriter w;
  w.u32(camera_id);
  w.u64(frame_index);
  w.u32(static_cast<std::uint32_t>(detections.size()));
  for (const detect::Detection& d : detections) {
    w.bbox(d.box);
    w.i32(static_cast<std::int32_t>(d.cls));
    w.f64(d.score);
    w.u64(d.truth_id);
  }
  return w.bytes();
}

std::size_t DetectionListMsg::encoded_size() const {
  return kU32Bytes + kU64Bytes + kU32Bytes +
         detections.size() * kDetectionWireBytes;
}

std::optional<DetectionListMsg> DetectionListMsg::decode(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  DetectionListMsg msg;
  const auto cam = r.u32();
  const auto frame = r.u64();
  const auto count = r.u32();
  if (!cam || !frame || !count) return std::nullopt;
  msg.camera_id = *cam;
  msg.frame_index = *frame;
  // Each detection occupies 52 bytes on the wire; a count that cannot fit in
  // the remaining payload is a malformed (or hostile) message — reject it
  // before allocating anything.
  if (static_cast<std::size_t>(*count) * kDetectionWireBytes > r.remaining())
    return std::nullopt;
  msg.detections.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    detect::Detection d;
    const auto box = r.bbox();
    const auto cls = r.i32();
    const auto score = r.f64();
    const auto truth = r.u64();
    if (!box || !cls || !score || !truth) return std::nullopt;
    d.box = *box;
    d.cls = static_cast<detect::ObjectClass>(*cls);
    d.score = *score;
    d.truth_id = *truth;
    msg.detections.push_back(d);
  }
  if (!r.exhausted()) return std::nullopt;
  return msg;
}

std::vector<std::uint8_t> AssignmentMsg::encode() const {
  ByteWriter w;
  w.u32(camera_id);
  w.u64(frame_index);
  w.u32(static_cast<std::uint32_t>(assigned_keys.size()));
  for (std::uint64_t k : assigned_keys) w.u64(k);
  w.u32(static_cast<std::uint32_t>(priority_order.size()));
  for (std::uint32_t c : priority_order) w.u32(c);
  return w.bytes();
}

std::size_t AssignmentMsg::encoded_size() const {
  return kU32Bytes + kU64Bytes + kU32Bytes +
         assigned_keys.size() * kU64Bytes + kU32Bytes +
         priority_order.size() * kU32Bytes;
}

std::optional<AssignmentMsg> AssignmentMsg::decode(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  AssignmentMsg msg;
  const auto cam = r.u32();
  const auto frame = r.u64();
  if (!cam || !frame) return std::nullopt;
  msg.camera_id = *cam;
  msg.frame_index = *frame;
  const auto nk = r.u32();
  if (!nk) return std::nullopt;
  for (std::uint32_t i = 0; i < *nk; ++i) {
    const auto k = r.u64();
    if (!k) return std::nullopt;
    msg.assigned_keys.push_back(*k);
  }
  const auto np = r.u32();
  if (!np) return std::nullopt;
  for (std::uint32_t i = 0; i < *np; ++i) {
    const auto c = r.u32();
    if (!c) return std::nullopt;
    msg.priority_order.push_back(*c);
  }
  if (!r.exhausted()) return std::nullopt;
  return msg;
}

}  // namespace mvs::net
