#include "policy/policy.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mvs::policy {

namespace {

/// Fixed cadence: detect every regular frame (the pre-policy pipeline).
/// The pipeline fast-paths this kind without ever calling decide(), but
/// the implementation exists so the selection logic is uniform.
class FixedPolicy final : public FramePolicy {
 public:
  FixedPolicy() : FramePolicy(PolicyKind::kFixed) {}
  Decision decide(int, const CameraFeatures&) override { return {true, 1.0}; }
};

/// Threshold triggers with hysteresis. Drift and confidence reset on every
/// detect and climb monotonically between detects, so they cannot hover at
/// their threshold; the refractory window alone debounces them. The
/// instantaneous signals (unexplained motion, churn) carry a per-camera
/// latch: after firing, a signal HOVERING inside the hysteresis band
/// [threshold x (1 - h), threshold x (1 + h)] cannot fire again until it
/// first drops below the low-water mark — but a signal clearly ABOVE the
/// band still fires while disarmed (a genuinely busy camera must keep
/// detecting; only threshold-noise oscillation is suppressed).
class HeuristicPolicy final : public FramePolicy {
 public:
  HeuristicPolicy(const PolicyConfig& cfg, std::size_t cameras)
      : FramePolicy(PolicyKind::kHeuristic),
        cfg_(cfg),
        motion_armed_(cameras, 1),
        churn_armed_(cameras, 1) {}

  Decision decide(int camera, const CameraFeatures& f) override {
    const auto i = static_cast<std::size_t>(camera);
    const double h = std::clamp(cfg_.hysteresis, 0.0, 1.0);

    // Re-arm latched triggers whose signal dropped below low water.
    if (!motion_armed_[i] &&
        f.unexplained_motion < cfg_.motion_frac * (1.0 - h))
      motion_armed_[i] = 1;
    if (!churn_armed_[i] && f.churn < cfg_.churn_hi * (1.0 - h))
      churn_armed_[i] = 1;

    if (cfg_.staleness_limit > 0 &&
        f.frames_since_detect >= static_cast<double>(cfg_.staleness_limit))
      return {true, 1.0};
    if (f.frames_since_detect < static_cast<double>(cfg_.min_track_frames))
      return {false, 0.0};  // refractory: just inspected

    // A planned object went missing mid-horizon: coasting can never bring
    // it back, so keep detecting (at the refractory cadence — an object the
    // detector keeps missing anyway must not force EVERY frame) until it is
    // re-acquired or the next key frame re-plans.
    if (f.track_deficit > 0.0) return {true, 1.0};
    if (f.drift_px >= cfg_.drift_px) return {true, 1.0};
    if (f.confidence <= cfg_.conf_floor) return {true, 1.0};
    const double motion_gate =
        cfg_.motion_frac * (motion_armed_[i] ? 1.0 : 1.0 + h);
    if (f.unexplained_motion >= motion_gate) {
      motion_armed_[i] = 0;
      return {true, 1.0};
    }
    const double churn_gate = cfg_.churn_hi * (churn_armed_[i] ? 1.0 : 1.0 + h);
    if (f.churn >= churn_gate) {
      churn_armed_[i] = 0;
      return {true, 1.0};
    }
    return {false, 0.0};
  }

  void reset(int camera) override {
    motion_armed_[static_cast<std::size_t>(camera)] = 1;
    churn_armed_[static_cast<std::size_t>(camera)] = 1;
  }

 private:
  PolicyConfig cfg_;
  std::vector<char> motion_armed_;
  std::vector<char> churn_armed_;
};

/// Model scorer: detect when P(useful) >= threshold. The staleness cap and
/// refractory window bracket the model so a bad fit degrades gracefully
/// toward the heuristic's cadence bounds instead of starving (or spamming)
/// detection.
class LearnedPolicy final : public FramePolicy {
 public:
  LearnedPolicy(const PolicyConfig& cfg, Model model)
      : FramePolicy(PolicyKind::kLearned), cfg_(cfg), model_(std::move(model)) {
    if (cfg_.threshold > 0.0) model_.threshold = cfg_.threshold;
  }

  Decision decide(int, const CameraFeatures& f) override {
    if (cfg_.staleness_limit > 0 &&
        f.frames_since_detect >= static_cast<double>(cfg_.staleness_limit))
      return {true, 1.0};
    if (f.frames_since_detect < static_cast<double>(cfg_.min_track_frames))
      return {false, 0.0};
    const double p = model_.evaluate(f.to_array());
    return {p >= model_.threshold, p};
  }

 private:
  PolicyConfig cfg_;
  Model model_;
};

std::string load_model_text(const PolicyConfig& cfg) {
  if (!cfg.model_json.empty()) return cfg.model_json;
  if (cfg.model_path.empty())
    throw std::runtime_error(
        "policy: learned mode requires a model (policy.model path or inline "
        "model_json)");
  std::ifstream in(cfg.model_path);
  if (!in)
    throw std::runtime_error("policy: cannot read model file " +
                             cfg.model_path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFixed: return "fixed";
    case PolicyKind::kHeuristic: return "heuristic";
    case PolicyKind::kLearned: return "learned";
  }
  return "fixed";
}

std::optional<PolicyKind> parse_policy_kind(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (name == "fixed") return PolicyKind::kFixed;
  if (name == "heuristic") return PolicyKind::kHeuristic;
  if (name == "learned") return PolicyKind::kLearned;
  return std::nullopt;
}

std::unique_ptr<FramePolicy> make_policy(const PolicyConfig& config,
                                         std::size_t cameras) {
  switch (config.kind) {
    case PolicyKind::kFixed:
      return std::make_unique<FixedPolicy>();
    case PolicyKind::kHeuristic:
      return std::make_unique<HeuristicPolicy>(config, cameras);
    case PolicyKind::kLearned: {
      std::string error;
      std::optional<Model> model = parse_model(load_model_text(config),
                                               &error);
      if (!model) throw std::runtime_error("policy: " + error);
      return std::make_unique<LearnedPolicy>(config, std::move(*model));
    }
  }
  return std::make_unique<FixedPolicy>();
}

double demand_factor(const PolicyConfig& config) {
  if (config.kind == PolicyKind::kFixed) return 1.0;
  return std::clamp(config.expected_detect_ratio, 0.05, 1.0);
}

}  // namespace mvs::policy
