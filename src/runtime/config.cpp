#include "runtime/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <type_traits>

#include "policy/policy.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace mvs::runtime {

std::optional<Policy> parse_policy(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (name == "full") return Policy::kFull;
  if (name == "balb-ind" || name == "balbind" || name == "ind")
    return Policy::kBalbInd;
  if (name == "balb-cen" || name == "balbcen" || name == "cen")
    return Policy::kBalbCen;
  if (name == "balb") return Policy::kBalb;
  if (name == "sp" || name == "static" || name == "static-partition")
    return Policy::kStaticPartition;
  return std::nullopt;
}

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFull: return "full";
    case Policy::kBalbInd: return "balb-ind";
    case Policy::kBalbCen: return "balb-cen";
    case Policy::kBalb: return "balb";
    case Policy::kStaticPartition: return "sp";
  }
  return "?";
}

std::optional<LatePolicy> parse_late_policy(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (name == "drop") return LatePolicy::kDrop;
  if (name == "supersede") return LatePolicy::kSupersede;
  if (name == "finish-late" || name == "finishlate" || name == "late")
    return LatePolicy::kFinishLate;
  return std::nullopt;
}

const char* to_string(LatePolicy policy) {
  switch (policy) {
    case LatePolicy::kDrop: return "drop";
    case LatePolicy::kSupersede: return "supersede";
    case LatePolicy::kFinishLate: return "finish-late";
  }
  return "?";
}

const char* to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kWeightedPriority: return "weighted";
  }
  return "?";
}

std::optional<DispatchPolicy> parse_dispatch(std::string name) {
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  if (name == "rr" || name == "round-robin") return DispatchPolicy::kRoundRobin;
  if (name == "weighted" || name == "weighted-priority")
    return DispatchPolicy::kWeightedPriority;
  return std::nullopt;
}

bool FieldRange::contains(double v) const {
  return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
}

namespace {

using util::Json;

/// ">= 0", "in [0, 1)", ...
std::string describe(const FieldRange& r) {
  const auto num = [](double v) { return Json(v).dump(); };
  if (std::isinf(r.hi)) return (r.lo_open ? "> " : ">= ") + num(r.lo);
  return std::string("in ") + (r.lo_open ? "(" : "[") + num(r.lo) + ", " +
         num(r.hi) + (r.hi_open ? ")" : "]");
}

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

// --- The field engine ------------------------------------------------------
//
// A Field<S> is one table entry for struct S: its FieldInfo plus a getter
// and a checked setter generated from the member pointer, so the member's
// C++ type decides how a JSON value is read and written.

template <class S>
struct Field {
  FieldInfo info;
  Json (*get)(const S& s, const FieldInfo& f);
  /// Type- and range-check `v`, then store it.
  bool (*set)(S& s, const Json& v, const FieldInfo& f, std::string* why);
};

template <class S>
struct Table {
  const char* block;
  std::vector<Field<S>> fields;
};

template <class M>
struct MemberOf;
template <class S, class T>
struct MemberOf<T S::*> {
  using Owner = S;
  using Value = T;
};
template <auto M>
using OwnerOf = typename MemberOf<decltype(M)>::Owner;
template <auto M>
using ValueOf = typename MemberOf<decltype(M)>::Value;

template <auto M, auto Name>
Json get_member(const OwnerOf<M>& s, const FieldInfo&) {
  using T = ValueOf<M>;
  if constexpr (std::is_enum_v<T>)
    return Json(Name(s.*M));
  else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
    return Json(static_cast<double>(s.*M));
  else
    return Json(s.*M);
}

template <auto M, auto Parse>
bool set_member(OwnerOf<M>& s, const Json& v, const FieldInfo& f,
                std::string* why) {
  using T = ValueOf<M>;
  T value{};
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return fail(why, "must be true or false");
    value = v.as_bool();
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (!v.is_number()) return fail(why, "must be a number");
    const double d = v.as_number();
    if (!std::isfinite(d)) return fail(why, "must be finite");
    if constexpr (std::is_integral_v<T>) {
      if (d != std::floor(d)) return fail(why, "must be an integer");
      // Checked before the cast, which is undefined outside T's range.
      if (d < static_cast<double>(std::numeric_limits<T>::min()) ||
          d >= static_cast<double>(std::numeric_limits<T>::max()) + 1.0)
        return fail(why, Json(d).dump() + " does not fit an integer field");
    }
    if (!f.range.contains(d))
      return fail(why, Json(d).dump() + " out of range (must be " +
                           describe(f.range) + ")");
    value = static_cast<T>(d);
  } else {
    if (!v.is_string()) return fail(why, "must be a string");
    if constexpr (std::is_enum_v<T>) {
      const auto parsed = Parse(v.as_string());
      if (!parsed) return fail(why, "unknown value \"" + v.as_string() + "\"");
      value = *parsed;
    } else {
      if constexpr (!std::is_same_v<decltype(Parse), std::nullptr_t>)
        if (!Parse(v.as_string()))
          return fail(why, "unknown value \"" + v.as_string() + "\"");
      value = v.as_string();
    }
  }
  s.*M = std::move(value);
  return true;
}

/// The default `Name` of a field; taking its address fails to compile for
/// an enum, which must name its module's to_string.
template <class T>
const char* no_name(T) {
  static_assert(!std::is_enum_v<T>, "an enum field needs its to_string");
  return nullptr;
}

/// One table entry. `Parse` (optional) reads an enum value or accepts a
/// string; `Name`, the enum module's to_string, dumps an enum value.
/// `choices` lists the accepted names for --help, '|'-separated.
template <auto M, auto Parse = nullptr,
          const char* (*Name)(ValueOf<M>) = no_name<ValueOf<M>>>
Field<OwnerOf<M>> field(const char* key, FieldRange range = {},
                        const char* flag = nullptr, const char* help = nullptr,
                        const char* choices = nullptr) {
  using T = ValueOf<M>;
  const FieldKind kind = choices                           ? FieldKind::kChoice
                         : std::is_same_v<T, bool>         ? FieldKind::kBool
                         : std::is_integral_v<T>           ? FieldKind::kInt
                         : std::is_floating_point_v<T>     ? FieldKind::kNumber
                                                           : FieldKind::kString;
  return {{nullptr, key, kind, range, choices, flag, help, nullptr},
          &get_member<M, Name>,
          &set_member<M, Parse>};
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr FieldRange at_least(double lo) { return {lo, kInf, false, false}; }
constexpr FieldRange above(double lo) { return {lo, kInf, true, false}; }
constexpr FieldRange closed(double lo, double hi) {
  return {lo, hi, false, false};
}
/// [lo, hi)
constexpr FieldRange half_open(double lo, double hi) {
  return {lo, hi, false, true};
}
/// (lo, hi]
constexpr FieldRange left_open(double lo, double hi) {
  return {lo, hi, true, false};
}

bool valid_scenario(const std::string& name) {
  return name == "S1" || name == "S2" || name == "S3" ||
         sim::parse_city_name(name).has_value();
}

bool non_empty(const std::string& s) { return !s.empty(); }

// --- The tables: every config key, once -------------------------------------

const Table<RunConfig> kTop{
    "config",
    {
        field<&RunConfig::scenario, valid_scenario>(
            "scenario", {}, "scenario",
            "scenario to simulate (or an encoded city:... name); may also "
            "be given positionally",
            "S1|S2|S3|city"),
        field<&RunConfig::frames>(
            "frames", at_least(0), "frames",
            "evaluation frames to run (fleet: base frame periods)"),
    }};

const Table<PipelineConfig> kPipeline{
    "pipeline",
    {
        field<&PipelineConfig::policy, parse_policy, policy_name>(
            "policy", {}, "policy", "scheduling policy",
            "full|balb-ind|balb-cen|balb|sp"),
        field<&PipelineConfig::horizon_frames>(
            "horizon_frames", at_least(1), "horizon",
            "frames per scheduling horizon"),
        field<&PipelineConfig::training_frames>("training_frames",
                                                at_least(0)),
        field<&PipelineConfig::mask_cell_px>("mask_cell_px", at_least(1)),
        field<&PipelineConfig::recall_iou>("recall_iou"),
        // Dumped as a JSON number, so only seeds a double holds exactly.
        field<&PipelineConfig::seed>(
            "seed", closed(0, 0x1p53), "seed",
            "RNG seed (fleet session k uses seed + k)"),
        field<&PipelineConfig::verbose>("verbose", {}, "verbose",
                                        "per-frame progress logging"),
        field<&PipelineConfig::threads>("threads", at_least(0)),
        field<&PipelineConfig::tight_masks>("tight_masks"),
        field<&PipelineConfig::paired_rng>(
            "paired_rng", {}, "paired-rng",
            "common-random-numbers mode: re-seed each camera's RNG per "
            "frame (policy A/B studies)"),
        field<&PipelineConfig::transport, net::parse_transport,
              net::to_string>(
            "transport", {}, "transport",
            "closed-form link model, or the discrete-event transport with "
            "queueing and faults (implied by any network-simulation flag)",
            "ideal|lossy"),
    }};

/// Flattened into "pipeline" and standalone as a session's "faults".
const Table<netsim::FaultConfig> kFaults{
    "faults",
    {
        field<&netsim::FaultConfig::loss_rate>(
            "loss_rate", half_open(0, 1), "loss-rate",
            "per-attempt message loss probability"),
        field<&netsim::FaultConfig::jitter_ms>(
            "jitter_ms", at_least(0), "jitter-ms",
            "mean exponential per-message jitter (ms)"),
        field<&netsim::FaultConfig::retry_timeout_ms>(
            "retry_timeout_ms", above(0), "retry-timeout-ms",
            "sender retransmit timeout (ms)"),
        field<&netsim::FaultConfig::max_retries>(
            "max_retries", at_least(0), "max-retries",
            "retransmissions per message"),
    }};

const Table<netsim::DropoutWindow> kDropout{
    "dropouts",
    {
        field<&netsim::DropoutWindow::camera>("camera", at_least(0)),
        field<&netsim::DropoutWindow::from_frame>("from", at_least(0)),
        field<&netsim::DropoutWindow::to_frame>("to", at_least(-1)),
    }};

const Table<policy::PolicyConfig> kPolicy{
    "policy",
    {
        field<&policy::PolicyConfig::kind, policy::parse_policy_kind,
              policy::to_string>(
            "mode", {}, "frame-policy",
            "per-camera per-frame detect-or-track decision (fixed = detect "
            "every regular frame, bit-identical to the pre-policy pipeline)",
            "fixed|heuristic|learned"),
        field<&policy::PolicyConfig::staleness_limit>(
            "staleness_limit", at_least(0), "policy-staleness",
            "force a detect after N frames without one (safety cap)"),
        field<&policy::PolicyConfig::min_track_frames>("min_track_frames",
                                                       at_least(0)),
        field<&policy::PolicyConfig::drift_px>(
            "drift_px", above(0), "policy-drift-px",
            "heuristic detect trigger: accumulated track drift in pixels"),
        field<&policy::PolicyConfig::conf_floor>("conf_floor"),
        field<&policy::PolicyConfig::motion_frac>("motion_frac"),
        field<&policy::PolicyConfig::churn_hi>("churn_hi"),
        field<&policy::PolicyConfig::hysteresis>("hysteresis", closed(0, 1)),
        field<&policy::PolicyConfig::model_path>(
            "model", {}, "policy-model",
            "learned-policy model JSON (tools/policy_train output); implies "
            "--frame-policy learned"),
        field<&policy::PolicyConfig::model_json>("model_json"),
        field<&policy::PolicyConfig::threshold>(
            "threshold", half_open(0, 1), "policy-threshold",
            "learned decision threshold override (0 keeps the model's own)"),
        field<&policy::PolicyConfig::expected_detect_ratio>(
            "expected_detect_ratio", left_open(0, 1)),
        field<&policy::PolicyConfig::feature_trace>(
            "feature_trace", {}, "policy-feature-trace",
            "record policy features + labels as JSONL for tools/policy_train"),
        field<&policy::PolicyConfig::correlation_gate>(
            "correlation_gate", {}, "correlation-gate",
            "learn ReXCam-style cross-camera correlations in training and "
            "skip detection on cold cameras"),
        field<&policy::PolicyConfig::gate_threshold>("gate_threshold",
                                                     closed(0, 1)),
        field<&policy::PolicyConfig::gate_window>("gate_window", at_least(1)),
        field<&policy::PolicyConfig::gate_hold>(
            "gate_hold", at_least(0), "gate-hold",
            "frames a camera stays hot after its trigger goes away"),
    }};

const Table<RtConfig> kRt{
    "rt",
    {
        field<&RtConfig::paced>(
            "paced", {}, "paced",
            "run under the paced runtime (virtual wall clock, deadline "
            "budgets); implied by any rt flag; standalone runs only"),
        field<&RtConfig::frame_period_ms>(
            "frame_period_ms", at_least(0), "frame-period-ms",
            "arrival period (0 = derive from the scenario's fps)"),
        field<&RtConfig::deadline_ms>(
            "deadline_ms", at_least(0), "deadline-ms",
            "per-frame budget past capture (0 = infinite)"),
        field<&RtConfig::late_policy, parse_late_policy, to_string>(
            "late_policy", {}, "late-policy",
            "what happens to a frame already past its budget",
            "drop|supersede|finish-late"),
        field<&RtConfig::arrival_jitter_ms>(
            "arrival_jitter_ms", at_least(0), "arrival-jitter-ms",
            "mean exponential per-camera capture jitter (ms)"),
        field<&RtConfig::fixed_overhead_ms>(
            "fixed_overhead_ms", at_least(0), "rt-overhead-ms",
            "fixed per-frame service overhead (ms)"),
        field<&RtConfig::miss_budget>("miss_budget", closed(0, 1)),
    }};

/// Edits the CityConfig encoded in the scenario name.
const Table<sim::CityConfig> kCity{
    "city",
    {
        field<&sim::CityConfig::cameras>(
            "cameras", closed(1, 1000), "city-grid",
            "use an N-camera sparse city grid as the scenario"),
        field<&sim::CityConfig::block_m>("block_m", above(0)),
        field<&sim::CityConfig::rate_per_s>("rate_per_s", at_least(0)),
        field<&sim::CityConfig::camera_depth_m>("camera_depth_m", above(0)),
        field<&sim::CityConfig::flash_at_s>("flash_at_s"),
        field<&sim::CityConfig::flash_duration_s>("flash_duration_s",
                                                  above(0)),
        field<&sim::CityConfig::flash_multiplier>("flash_multiplier",
                                                  above(0)),
        field<&sim::CityConfig::day_night>("day_night"),
        field<&sim::CityConfig::night_period_s>("night_period_s", above(0)),
        field<&sim::CityConfig::night_miss_boost>("night_miss_boost",
                                                  closed(0, 1)),
    }};

const Table<ObsConfig> kObs{
    "obs",
    {
        field<&ObsConfig::enabled>("enabled"),
        field<&ObsConfig::chrome_trace>(
            "chrome_trace", {}, "chrome-trace",
            "record spans and write Chrome trace-event JSON (chrome://tracing "
            "or Perfetto); implies instrumentation on"),
        field<&ObsConfig::metrics_json>(
            "metrics_json", {}, "metrics-json",
            "write the metrics registry snapshot (counters, gauges, "
            "histograms); implies instrumentation on and --attribution"),
        field<&ObsConfig::attribution>(
            "attribution", {}, "attribution",
            "per-frame critical-path latency attribution (independent of the "
            "span/metrics instrumentation)"),
        field<&ObsConfig::postmortem_dir>(
            "postmortem_dir", {}, "postmortem-dir",
            "write flight-recorder postmortems here on deadline-miss bursts "
            "and evictions; implies --attribution"),
        field<&ObsConfig::postmortem_miss_window>("postmortem_miss_window",
                                                  at_least(1)),
        field<&ObsConfig::postmortem_miss_threshold>(
            "postmortem_miss_threshold", at_least(0)),
    }};

const Table<FleetRunConfig> kFleet{
    "fleet",
    {
        field<&FleetRunConfig::slo_ms>(
            "slo_ms", {}, "slo-ms",
            "per-tick GPU latency SLO driving admission control and dispatch "
            "deferral (0 = off)"),
        field<&FleetRunConfig::frame_period_ms>("frame_period_ms", above(0)),
        field<&FleetRunConfig::dispatch, parse_dispatch>(
            "dispatch", {}, "dispatch",
            "dispatch order under SLO pressure (rr = round-robin)",
            "round-robin|weighted"),
        field<&FleetRunConfig::threads>("threads", at_least(0)),
        field<&FleetRunConfig::allow_degrade>("allow_degrade"),
        field<&FleetRunConfig::assumed_tasks_per_camera>(
            "assumed_tasks_per_camera"),
        field<&FleetRunConfig::readmit_interval>(
            "readmit_interval", at_least(0), "readmit-interval",
            "ticks between re-admission scans that reverse the degrade "
            "ladder (0 = degradation is sticky)"),
        field<&FleetRunConfig::readmit_low_water>("readmit_low_water"),
        field<&FleetRunConfig::readmit_high_water>("readmit_high_water"),
        field<&FleetRunConfig::allow_split>(
            "allow_split", {}, "split-batches",
            "let the arbiter split an over-full batch across two ticks to "
            "protect the SLO"),
        field<&FleetRunConfig::dispatch_overhead_ms>(
            "dispatch_overhead_ms", at_least(0), "dispatch-overhead-ms",
            "fixed per-batch dispatch cost charged by the device pools"),
        field<&FleetRunConfig::shards>(
            "shards", at_least(1), "shards",
            "shard the serving plane across N schedulers, each with its own "
            "arbiter and tick wheel"),
        field<&FleetRunConfig::shard_capacity>("shard_capacity", at_least(0)),
        field<&FleetRunConfig::rebalance_interval>(
            "rebalance_interval", at_least(0), "rebalance-interval",
            "ticks between live-migration rebalance scans over the shards "
            "(0 = no background migration)"),
        field<&FleetRunConfig::rebalance_high_water>("rebalance_high_water",
                                                     above(1)),
        field<&FleetRunConfig::burn_error_budget>("burn_error_budget",
                                                  closed(0, 1)),
        field<&FleetRunConfig::burn_fast_window>(
            "burn_fast_window", closed(1, kMaxBurnWindow)),
        field<&FleetRunConfig::burn_slow_window>(
            "burn_slow_window", closed(1, kMaxBurnWindow)),
        field<&FleetRunConfig::burn_raise>("burn_raise", above(0)),
        field<&FleetRunConfig::burn_clear>("burn_clear", above(0)),
        field<&FleetRunConfig::burn_degrade>("burn_degrade"),
    }};

const Table<FleetDeviceScale> kDeviceScale{
    "device_scale",
    {
        field<&FleetDeviceScale::device_class, non_empty>("class"),
        field<&FleetDeviceScale::delta>("delta"),
    }};

/// Besides these, a session may carry "pipeline", "policy" and "faults".
const Table<FleetSessionSpec> kSession{
    "session",
    {
        field<&FleetSessionSpec::name>("name"),
        field<&FleetSessionSpec::scenario, valid_scenario>(
            "scenario", {}, nullptr, nullptr, "S1|S2|S3|city"),
        field<&FleetSessionSpec::weight>("weight", above(0)),
        field<&FleetSessionSpec::fps>("fps", at_least(0)),
        field<&FleetSessionSpec::slo_ms>("slo_ms"),
        field<&FleetSessionSpec::synthetic>("synthetic"),
    }};

template <class Fn>
void for_each_table(Fn&& fn) {
  fn(kTop), fn(kPipeline), fn(kFaults), fn(kDropout), fn(kPolicy), fn(kRt),
      fn(kCity), fn(kObs), fn(kFleet), fn(kDeviceScale), fn(kSession);
}

// --- JSON reads and dumps ---------------------------------------------------

/// Reject a non-object, and any key that is neither in `tables` nor one of
/// the `nested` block names.
template <class... S>
bool check_keys(const Json& obj, const char* block,
                std::initializer_list<const char*> nested, std::string* error,
                const Table<S>&... tables) {
  if (!obj.is_object())
    return fail(error, std::string("\"") + block + "\" must be an object");
  for (const auto& [key, value] : obj.as_object()) {
    const auto is_key = [&](const char* k) { return key == k; };
    const bool known =
        std::any_of(nested.begin(), nested.end(), is_key) ||
        (std::any_of(tables.fields.begin(), tables.fields.end(),
                     [&](const auto& f) { return is_key(f.info.key); }) ||
         ...);
    if (!known)
      return fail(error,
                  std::string("unknown ") + block + " key: \"" + key + "\"");
  }
  return true;
}

/// Read every table key present in `obj`; absent keys keep their value.
template <class S>
bool read_fields(const Json& obj, const Table<S>& table, S& s,
                 const char* block, std::string* error) {
  for (const Field<S>& f : table.fields) {
    std::string why;
    if (const Json* v = obj.find(f.info.key); v && !f.set(s, *v, f.info, &why))
      return fail(error,
                  std::string(block) + " key \"" + f.info.key + "\": " + why);
  }
  return true;
}

/// A block of one table; `nested` names the sub-blocks the caller reads.
template <class S>
bool read_block(const Json& obj, const Table<S>& table, S& s,
                std::string* error,
                std::initializer_list<const char*> nested = {}) {
  return check_keys(obj, table.block, nested, error, table) &&
         read_fields(obj, table, s, table.block, error);
}

template <class S>
Json dump_block(const Table<S>& table, const S& s, Json::Object out = {}) {
  for (const Field<S>& f : table.fields) out[f.info.key] = f.get(s, f.info);
  return Json(std::move(out));
}

/// Replace `out` with the entries of the array `obj[key]`, if present;
/// read(entry, item) reads one.
template <class S, class Read>
bool read_array(const Json& obj, const char* key, std::vector<S>& out,
                std::string* error, Read&& read) {
  const Json* array = obj.find(key);
  if (!array) return true;
  if (!array->is_array())
    return fail(error, std::string("\"") + key + "\" must be an array");
  out.clear();
  for (const Json& entry : array->as_array()) {
    S item;
    if (!read(entry, item)) return false;
    out.push_back(std::move(item));
  }
  return true;
}

template <class S>
Json dump_array(const Table<S>& table, const std::vector<S>& items) {
  Json::Array out;
  for (const S& item : items) out.push_back(dump_block(table, item));
  return Json(std::move(out));
}

bool read_dropouts(const Json& obj, netsim::FaultConfig& faults,
                   std::string* error) {
  return read_array(obj, "dropouts", faults.dropouts, error,
                    [&](const Json& entry, netsim::DropoutWindow& w) {
                      return read_block(entry, kDropout, w, error);
                    });
}

Json dump_faults(const netsim::FaultConfig& faults, Json::Object out = {}) {
  out["dropouts"] = dump_array(kDropout, faults.dropouts);
  return dump_block(kFaults, faults, std::move(out));
}

bool read_pipeline(const Json& obj, PipelineConfig& pc, std::string* error) {
  return check_keys(obj, "pipeline", {"dropouts"}, error, kPipeline,
                    kFaults) &&
         read_fields(obj, kPipeline, pc, "pipeline", error) &&
         read_fields(obj, kFaults, pc.faults, "pipeline", error) &&
         read_dropouts(obj, pc.faults, error);
}

Json dump_pipeline(const PipelineConfig& pc) {
  return dump_faults(pc.faults, dump_block(kPipeline, pc).as_object());
}

/// Session entries start from the document's scenario and pipeline.
bool read_session(const Json& entry, const RunConfig& base,
                  FleetSessionSpec& spec, std::string* error) {
  spec.scenario = base.scenario;
  spec.pipeline = base.pipeline;
  if (!read_block(entry, kSession, spec, error,
                  {"pipeline", "policy", "faults"}))
    return false;
  if (const Json* p = entry.find("pipeline"))
    if (!read_pipeline(*p, spec.pipeline, error)) return false;
  if (const Json* p = entry.find("policy"))
    if (!read_block(*p, kPolicy, spec.pipeline.frame_policy, error))
      return false;
  if (const Json* f = entry.find("faults")) {
    netsim::FaultConfig faults;
    if (!read_block(*f, kFaults, faults, error, {"dropouts"}) ||
        !read_dropouts(*f, faults, error))
      return false;
    spec.faults = std::move(faults);
  }
  return true;
}

bool read_fleet(const Json& obj, const RunConfig& base, FleetRunConfig& fleet,
                std::string* error) {
  return read_block(obj, kFleet, fleet, error, {"device_scale", "sessions"}) &&
         read_array(obj, "device_scale", fleet.device_scale, error,
                    [&](const Json& entry, FleetDeviceScale& ds) {
                      return read_block(entry, kDeviceScale, ds, error);
                    }) &&
         read_array(obj, "sessions", fleet.sessions, error,
                    [&](const Json& entry, FleetSessionSpec& spec) {
                      return read_session(entry, base, spec, error);
                    });
}

Json dump_fleet(const FleetRunConfig& fleet) {
  Json::Array sessions;
  for (const FleetSessionSpec& spec : fleet.sessions) {
    Json::Object s;
    s["pipeline"] = dump_pipeline(spec.pipeline);
    s["policy"] = dump_block(kPolicy, spec.pipeline.frame_policy);
    if (spec.faults) s["faults"] = dump_faults(*spec.faults);
    sessions.push_back(dump_block(kSession, spec, std::move(s)));
  }
  Json::Object out;
  out["device_scale"] = dump_array(kDeviceScale, fleet.device_scale);
  out["sessions"] = Json(std::move(sessions));
  return dump_block(kFleet, fleet, std::move(out));
}

bool read_document(const Json& doc, RunConfig& config, std::string* error) {
  if (!read_block(doc, kTop, config, error,
                  {"pipeline", "policy", "rt", "obs", "city", "fleet"}))
    return false;
  if (const Json* c = doc.find("city")) {
    // A "city" block generates the scenario; an explicit non-city scenario
    // name alongside it is a contradiction, not a tiebreak.
    const std::string declared =
        doc.find("scenario") ? config.scenario : "city";
    if (declared.rfind("city", 0) != 0)
      return fail(error, "\"city\" block conflicts with scenario: " + declared);
    sim::CityConfig city =
        sim::parse_city_name(declared).value_or(sim::CityConfig{});
    if (!read_block(*c, kCity, city, error)) return false;
    config.scenario = sim::city_scenario_name(city);
  }
  if (const Json* p = doc.find("pipeline"))
    if (!read_pipeline(*p, config.pipeline, error)) return false;
  // Detect-or-track layer ("pipeline.policy" already names the scheduling
  // policy, so the frame policy is its own top-level block).
  if (const Json* p = doc.find("policy"))
    if (!read_block(*p, kPolicy, config.pipeline.frame_policy, error))
      return false;
  if (const Json* o = doc.find("obs"))
    if (!read_block(*o, kObs, config.obs, error)) return false;
  if (const Json* r = doc.find("rt"))
    if (!read_block(*r, kRt, config.rt, error)) return false;
  if (const Json* f = doc.find("fleet")) {
    config.fleet.emplace();
    if (!read_fleet(*f, config, *config.fleet, error)) return false;
  }
  return true;
}

Json dump_document(const RunConfig& config) {
  Json::Object root;
  if (const auto city = sim::parse_city_name(config.scenario))
    root["city"] = dump_block(kCity, *city);
  root["pipeline"] = dump_pipeline(config.pipeline);
  root["policy"] = dump_block(kPolicy, config.pipeline.frame_policy);
  root["rt"] = dump_block(kRt, config.rt);
  root["obs"] = dump_block(kObs, config.obs);
  if (config.fleet) root["fleet"] = dump_fleet(*config.fleet);
  return dump_block(kTop, config, std::move(root));
}

// --- Cross-field rules (per-field ranges live in the tables) ----------------

bool check_policy(const policy::PolicyConfig& fp, std::string* error) {
  if (fp.staleness_limit > 0 && fp.min_track_frames >= fp.staleness_limit)
    return fail(error, "policy min_track_frames must be < staleness_limit");
  if (fp.kind == policy::PolicyKind::kLearned && fp.model_path.empty() &&
      fp.model_json.empty())
    return fail(error,
                "policy mode learned needs a model (\"model\", "
                "\"model_json\" or --policy-model)");
  return true;
}

bool check_fleet(const FleetRunConfig& fleet, std::string* error) {
  if (fleet.readmit_low_water > fleet.readmit_high_water)
    return fail(error, "fleet readmit_low_water must be <= readmit_high_water");
  if (fleet.burn_fast_window > fleet.burn_slow_window)
    return fail(error, "fleet burn_fast_window must be <= burn_slow_window");
  if (fleet.burn_clear > fleet.burn_raise)
    return fail(error, "fleet burn_clear must be <= burn_raise");
  return std::all_of(fleet.sessions.begin(), fleet.sessions.end(),
                     [&](const FleetSessionSpec& s) {
                       return check_policy(s.pipeline.frame_policy, error);
                     });
}

/// The obs implications, then every cross-field rule of a config whose
/// fields have passed their table checks.
bool check_rules(RunConfig& config, std::string* error) {
  ObsConfig& obs = config.obs;
  // A metrics export carries the attribution table and a postmortem dir is
  // useless without frames to record: both imply attribution.
  if (!obs.metrics_json.empty() || !obs.postmortem_dir.empty())
    obs.attribution = true;
  if (obs.postmortem_miss_threshold > obs.postmortem_miss_window)
    return fail(error,
                "obs postmortem_miss_threshold must be <= "
                "postmortem_miss_window");
  return check_policy(config.pipeline.frame_policy, error) &&
         (!config.fleet || check_fleet(*config.fleet, error));
}

// --- CLI flags --------------------------------------------------------------

template <class S>
bool set_from_text(const Field<S>& f, S& target, const std::string& text,
                   const std::string& what, std::string* error) {
  Json v;
  if (f.info.kind == FieldKind::kBool) {
    v = Json(true);
  } else if (f.info.kind == FieldKind::kInt ||
             f.info.kind == FieldKind::kNumber) {
    const auto number = util::parse_number(text);
    if (!number)
      return fail(error, what + ": malformed number \"" + text + "\"");
    v = Json(*number);
  } else {
    v = Json(text);
  }
  std::string why;
  return f.set(target, v, f.info, &why) || fail(error, what + ": " + why);
}

}  // namespace

std::optional<RunConfig> parse_run_config(const std::string& json_text,
                                          std::string* error) {
  const auto doc = Json::parse(json_text, error);
  if (!doc) return std::nullopt;
  RunConfig config;
  if (!doc->is_object()) {
    fail(error, "config root must be an object");
    return std::nullopt;
  }
  // validate() also catches a default that a missing key leaves invalid
  // (a dropout without "camera", a device_scale entry without "class").
  if (!read_document(*doc, config, error) || !validate(config, error))
    return std::nullopt;
  return config;
}

std::string dump_run_config(const RunConfig& config) {
  return dump_document(config).dump();
}

// A config built in code is valid iff its dump reads back: each value goes
// through the same typed, range-checked setter as a config file's.

bool validate(const FleetRunConfig& fleet, std::string* error) {
  FleetRunConfig copy;
  return read_fleet(dump_fleet(fleet), RunConfig{}, copy, error) &&
         check_fleet(fleet, error);
}

bool validate(RunConfig& config, std::string* error) {
  RunConfig copy;
  return read_document(dump_document(config), copy, error) &&
         check_rules(config, error);
}

const std::vector<FieldInfo>& config_schema() {
  static const std::vector<FieldInfo> schema = [] {
    std::vector<FieldInfo> out;
    for_each_table([&](const auto& table) {
      for (const auto& f : table.fields) {
        out.push_back(f.info);
        out.back().block = table.block;
      }
    });
    return out;
  }();
  return schema;
}

bool apply_flags(const util::Args& args, std::span<const FieldInfo> cli_options,
                 RunConfig& config, std::string* error) {
  const auto lookup = [](std::span<const FieldInfo> options,
                          const std::string& name) -> const FieldInfo* {
    for (const FieldInfo& f : options)
      if (f.flag && name == f.flag) return &f;
    return nullptr;
  };
  for (const auto& [name, value] : args.options()) {
    const FieldInfo* f = lookup(config_schema(), name);
    if (!f) f = lookup(cli_options, name);
    if (!f) return fail(error, "unknown flag: --" + name);
    if (f->kind == FieldKind::kBool && !value.empty())
      return fail(error, "--" + name + " takes no value");
    if (std::string(f->block) == "fleet" && !config.fleet)
      return fail(error, "--" + name +
                             " needs fleet mode (--fleet or a config "
                             "\"fleet\" block)");
  }
  const auto apply = [&](const auto& table, auto& target) {
    for (const auto& f : table.fields)
      if (const auto text = args.get(f.info.flag ? f.info.flag : ""))
        if (!set_from_text(f, target, *text, std::string("--") + f.info.flag,
                           error))
          return false;
    return true;
  };
  if (!apply(kTop, config) || !apply(kPipeline, config.pipeline) ||
      !apply(kFaults, config.pipeline.faults) ||
      !apply(kPolicy, config.pipeline.frame_policy) ||
      !apply(kRt, config.rt) || !apply(kObs, config.obs) ||
      (config.fleet && !apply(kFleet, *config.fleet)))
    return false;
  // City flags edit the CityConfig decoded from the scenario name, after
  // --scenario has landed; any of them selects the city scenario, even
  // with every value at its default.
  if (std::none_of(kCity.fields.begin(), kCity.fields.end(), [&](auto& f) {
        return f.info.flag && args.has(f.info.flag);
      }))
    return true;
  sim::CityConfig city =
      sim::parse_city_name(config.scenario).value_or(sim::CityConfig{});
  if (!apply(kCity, city)) return false;
  config.scenario = sim::city_scenario_name(city);
  return true;
}

std::string flag_help(std::span<const FieldInfo> cli_options) {
  // Defaults come from default-constructed structs, so no help text
  // restates one.
  std::map<std::string, std::string> defaults;
  for_each_table([&]<class S>(const Table<S>& table) {
    const S fresh{};
    for (const Field<S>& f : table.fields) {
      if (!f.info.flag || f.info.kind == FieldKind::kBool) continue;
      const Json v = f.get(fresh, f.info);
      const std::string text = v.is_string() ? v.as_string() : v.dump();
      if (!text.empty()) defaults[f.info.flag] = text;
    }
  });
  static const std::pair<const char*, const char*> kSections[] = {
      {"config", "run options"},
      {"pipeline", nullptr},  // same section
      {"policy", "detect-or-track policy (mvs::policy)"},
      {"fleet", "fleet serving (mvs::fleet)"},
      {"rt", "streaming perception (mvs::rt)"},
      {"city", "city-scale scenarios (mvs::sim)"},
      {"obs", "observability (mvs::obs)"},
      {"faults", "network simulation (mvs::netsim)"},
  };
  std::vector<FieldInfo> options = config_schema();
  options.insert(options.end(), cli_options.begin(), cli_options.end());
  constexpr std::size_t kIndent = 26, kWidth = 79;
  std::string out;
  for (const auto& [block, title] : kSections) {
    if (title) out += std::string(out.empty() ? "" : "\n") + title + ":\n";
    for (const FieldInfo& f : options) {
      if (!f.flag || std::string(f.block) != block) continue;
      const char* metavar = f.metavar                        ? f.metavar
                            : f.kind == FieldKind::kChoice ? f.choices
                            : f.kind == FieldKind::kInt    ? "N"
                            : f.kind == FieldKind::kNumber ? "X"
                            : f.kind == FieldKind::kString ? "PATH"
                                                           : "";
      std::string line = std::string("  --") + f.flag +
                         (*metavar ? " " : "") + metavar;
      line += line.size() < kIndent ? std::string(kIndent - line.size(), ' ')
                                    : "\n" + std::string(kIndent, ' ');
      std::string help = f.help;
      if (f.key && defaults.count(f.flag))
        help += " (default " + defaults[f.flag] + ")";
      // Greedy word wrap of the help text at kWidth columns.
      std::size_t col = kIndent;
      std::istringstream words(help);
      for (std::string w; words >> w;) {
        if (col > kIndent && col + 1 + w.size() > kWidth) {
          line += "\n" + std::string(kIndent, ' ');
          col = kIndent;
        }
        if (col > kIndent) line += ' ', ++col;
        line += w;
        col += w.size();
      }
      out += line + "\n";
    }
  }
  return out;
}

}  // namespace mvs::runtime
