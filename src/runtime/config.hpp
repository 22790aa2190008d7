#pragma once
// JSON run configuration for the pipeline and the fleet — what a deployment
// would ship in /etc: scenario, policy, horizon, seeds, and (optionally) a
// whole multi-session fleet. Round-trips through util::Json.
//
// Example document:
//   {
//     "scenario": "S1",
//     "frames": 200,
//     "pipeline": {
//       "policy": "balb", "horizon_frames": 10,
//       "training_frames": 200, "seed": 42
//     },
//     "policy": {"mode": "heuristic", "staleness_limit": 8},
//     "fleet": {
//       "slo_ms": 120, "dispatch": "weighted", "readmit_interval": 10,
//       "allow_split": true,
//       "device_scale": [{"class": "jetson-nano", "delta": 1}],
//       "sessions": [
//         {"name": "cam-east", "scenario": "S2", "weight": 2, "fps": 15,
//          "slo_ms": 90, "faults": {"loss_rate": 0.05}}
//       ]
//     }
//   }
//
// Session entries inherit the document's top-level scenario and pipeline
// unless they override them; a session "faults" object builds a per-session
// netsim::FaultConfig and implies the lossy transport (the self-contained
// session API — prefer it over reaching into pipeline.faults).
//
// Every key is declared once, in a field table per block (config.cpp,
// DESIGN.md §15). The tables drive typed JSON reads, unknown-key rejection,
// per-field ranges, dump, the mvsched_cli flags and its --help. Parsing is
// strict: an unknown key, a value of the wrong JSON type, a non-integral or
// out-of-range integer, or an out-of-range number is an error that names
// the key. Cross-field rules live in validate(), which parse_run_config
// and fleet::make_fleet_config both call.

#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runtime/pipeline.hpp"

namespace mvs::util {
class Args;
}

namespace mvs::runtime {

/// Self-contained per-session serving spec. mvs::fleet aliases this as
/// fleet::SessionSpec; everything a hosted session needs lives here —
/// deployment, QoS declaration (fps + SLO override), dispatch weight, and
/// an optional private transport fault profile.
struct FleetSessionSpec {
  std::string name;
  std::string scenario = "S2";
  PipelineConfig pipeline;
  /// Weighted-priority dispatch share; higher = deferred later, and batch
  /// splits shed lower-weight tasks first.
  double weight = 1.0;
  /// Native frame rate (fps). 0 = the fleet's base rate
  /// (1000 / frame_period_ms). Rates that do not divide the current tick
  /// wheel grow it to the least common multiple.
  int fps = 0;
  /// Per-session latency SLO override (ms) for violation accounting;
  /// < 0 = the fleet-wide SLO.
  double slo_ms = -1.0;
  /// Per-session transport fault profile. When set it replaces
  /// pipeline.faults and, unless fault-free, implies the lossy transport.
  /// Preferred over mutating pipeline.faults directly (deprecated for
  /// hosted sessions).
  std::optional<netsim::FaultConfig> faults;
  /// Serve a deterministic synthetic GPU-load generator instead of a real
  /// pipeline: the session submits seeded partial-frame task multisets on
  /// the scenario's device classes but runs no vision stack (no scenario
  /// playback, no association training). This is what makes 1k-10k-session
  /// fleets constructible; scheduling, batching, and attribution behave
  /// exactly as for real sessions (see fleet::SyntheticSource).
  bool synthetic = false;
};

/// Runtime device-pool adjustment applied after admission
/// (Fleet::scale_devices).
struct FleetDeviceScale {
  std::string device_class;
  int delta = 0;
};

enum class DispatchPolicy {
  kRoundRobin,        ///< rotate deferral burden fairly across sessions
  kWeightedPriority,  ///< defer lowest-weight sessions first under pressure
};

const char* to_string(DispatchPolicy policy);
/// Parse "rr" | "round-robin" | "weighted", case-insensitive.
std::optional<DispatchPolicy> parse_dispatch(std::string name);

/// Largest SLO burn-rate window (ticks). fleet::BurnWindow sizes its ring
/// from the same bound; src/fleet static_asserts that the two agree.
inline constexpr int kMaxBurnWindow = 256;

/// The "fleet" block of a run config: fleet-wide knobs plus the session
/// roster. `dispatch` stays the name as written (validated against
/// parse_dispatch) so a config round-trips verbatim.
struct FleetRunConfig {
  double slo_ms = 0.0;
  double frame_period_ms = 100.0;
  std::string dispatch = "round-robin";
  int threads = 0;
  bool allow_degrade = true;
  double assumed_tasks_per_camera = 4.0;
  /// Ticks between re-admission scans (reverse degrade ladder); 0 keeps
  /// degradation sticky for a session's lifetime.
  int readmit_interval = 10;
  /// Hysteresis band (fractions of the SLO): scan only when the windowed
  /// demand falls below low water, restore only if the projection stays
  /// below high water.
  double readmit_low_water = 0.7;
  double readmit_high_water = 0.9;
  /// Let the arbiter split an over-full merged batch across two tick slots.
  bool allow_split = false;
  /// Fixed per-batch dispatch cost (ms) charged by the device pools —
  /// models kernel-launch / DMA setup overhead serialized through one
  /// dispatcher per device class, which is what keeps wide pools from
  /// scaling linearly. 0 preserves the ideal (overhead-free) arbiter.
  double dispatch_overhead_ms = 0.0;
  /// Serving-plane width: the number of shards, each with its own GPU
  /// arbiter and tick wheel (1 = one shard, the ordinary case).
  int shards = 1;
  /// Max live sessions per shard (sharded admission's O(1) capacity
  /// check); 0 = unbounded.
  int shard_capacity = 0;
  /// Ticks between sharded rebalance scans (live migration off hot
  /// shards); 0 disables background migration.
  int rebalance_interval = 0;
  /// Rebalance hysteresis: migrate only when the hottest shard's windowed
  /// busy exceeds this multiple (> 1) of the mean shard busy.
  double rebalance_high_water = 1.25;
  /// SLO burn-rate monitoring (DESIGN.md §14). The error budget is the
  /// tolerated per-tick SLO-violation ratio; 0 disables the monitors and all
  /// alert events. Window sizes are in ticks; raise/clear are burn-rate
  /// multiples (raise needs fast AND slow >= burn_raise, clear needs fast <
  /// burn_clear — hysteresis).
  double burn_error_budget = 0.0;
  int burn_fast_window = 16;
  int burn_slow_window = 64;
  double burn_raise = 2.0;
  double burn_clear = 1.0;
  /// Couple alerting to mitigation: a shard-level raise edge immediately
  /// applies one degrade rung to the heaviest restorable session.
  bool burn_degrade = false;
  std::vector<FleetDeviceScale> device_scale;
  std::vector<FleetSessionSpec> sessions;
};

/// The "obs" block of a run config: observability (mvs::obs) switches. When
/// `enabled`, the runner turns the global metrics/span instrumentation on and
/// exports to the given paths after the run (empty path = no file export; the
/// CLI flags --chrome-trace/--metrics-json override and imply enabled).
struct ObsConfig {
  bool enabled = false;
  std::string chrome_trace;  ///< Chrome trace-event JSON output path
  std::string metrics_json;  ///< MetricsRegistry snapshot output path
  /// Critical-path attribution (obs::critical_path(), DESIGN.md §14).
  /// Independent of `enabled`; a non-empty metrics_json implies it so the
  /// export carries the attribution block.
  bool attribution = false;
  /// Flight-recorder postmortem directory; non-empty implies attribution.
  /// Empty = dumps stay in memory only (obs::recorder().last_dump()).
  std::string postmortem_dir;
  /// Deadline-miss burst trigger: dump when >= miss_threshold of the last
  /// miss_window frames missed. threshold 0 disables automatic dumps.
  int postmortem_miss_window = 32;
  int postmortem_miss_threshold = 8;
};

/// What the paced runtime (mvs::rt) does with a frame that cannot meet its
/// deadline. Lives here (not in src/rt/) so the config layer and CLI can
/// name policies without depending on mvs_rt.
enum class LatePolicy {
  kDrop,        ///< stale frame is dropped at its would-be start (miss)
  kSupersede,   ///< newest-wins: a fresh arrival displaces queued stale work
  kFinishLate,  ///< never drop; a late emission still counts as a miss
};

/// nullopt on unknown names ("drop", "supersede", "finish-late").
std::optional<LatePolicy> parse_late_policy(std::string name);
const char* to_string(LatePolicy policy);

/// The "rt" block of a run config: streaming-perception pacing (mvs::rt).
/// Defaults leave the classic unpaced runner untouched.
struct RtConfig {
  /// Run under the paced runtime (virtual wall clock + deadlines) instead of
  /// the as-fast-as-possible stepper.
  bool paced = false;
  /// Frame arrival period (ms); <= 0 derives it from the scenario's fps.
  double frame_period_ms = 0.0;
  /// Per-frame deadline budget past capture (ms); <= 0 = infinite (with
  /// kFinishLate this makes the paced run bit-identical to the unpaced
  /// pipeline — the "rt-of-one" guard).
  double deadline_ms = 100.0;
  LatePolicy late_policy = LatePolicy::kSupersede;
  /// Mean exponential arrival jitter per camera (ms); a multi-frame arrives
  /// when its slowest camera's capture lands. 0 = jitter-free.
  double arrival_jitter_ms = 0.0;
  /// Fixed per-frame service overhead (ms) added to the simulated
  /// inference + transport time (models decode/preprocess).
  double fixed_overhead_ms = 0.0;
  /// Deadline-miss error budget (tolerated miss ratio) for the runner's SLO
  /// burn-rate monitor; 0 disables it (no alert events).
  double miss_budget = 0.0;
};

struct RunConfig {
  std::string scenario = "S1";
  int frames = 200;
  PipelineConfig pipeline;
  ObsConfig obs;
  /// Streaming-perception pacing; rt.paced == false (default) means the
  /// block is inert and the classic runner is used.
  RtConfig rt;
  /// Present when the document carries a "fleet" block: run a multi-session
  /// fleet instead of a standalone pipeline.
  std::optional<FleetRunConfig> fleet;
};

/// Parse a policy name ("full", "balb-ind", "balb-cen", "balb", "sp"),
/// case-insensitive. nullopt on unknown names.
std::optional<Policy> parse_policy(std::string name);
/// The config/flag name parse_policy reads back ("balb-ind"); to_string()
/// gives the display name ("BALB-Ind").
const char* policy_name(Policy policy);

/// Parse a config document; nullopt (with *error filled) on malformed JSON,
/// an unknown key, a mistyped or out-of-range value, or a broken
/// cross-field rule (see validate()).
std::optional<RunConfig> parse_run_config(const std::string& json_text,
                                          std::string* error = nullptr);

/// Serialize back to JSON (round-trips through parse_run_config, fleet
/// block included).
std::string dump_run_config(const RunConfig& config);

/// For a config built or edited in code: every field must pass its table
/// check, as a config file's value would; then the obs implications apply
/// and the cross-field rules must hold (DESIGN.md §15).
bool validate(RunConfig& config, std::string* error = nullptr);
/// The fleet part of validate(), for fleet::make_fleet_config.
bool validate(const FleetRunConfig& fleet, std::string* error = nullptr);

// --- Schema introspection and CLI flags -----------------------------------

enum class FieldKind { kInt, kNumber, kBool, kString, kChoice };

/// Accepted numeric interval; an open end excludes its bound.
struct FieldRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  bool contains(double v) const;
};

/// One table entry, without its struct type. A caller's own CLI options
/// (list specs, dual-target flags, outputs) use the same shape with
/// key == nullptr, so --help and unknown-flag rejection see them too.
struct FieldInfo {
  const char* block;    ///< "config" (top level), "pipeline", "faults", ...
  const char* key;      ///< JSON key; nullptr for a caller's CLI option
  FieldKind kind;
  FieldRange range;     ///< kInt / kNumber only
  const char* choices;  ///< kChoice: accepted names, '|'-separated (help)
  const char* flag;     ///< CLI flag without "--"; nullptr = file only.
                        ///< A kBool flag is a switch that stores true.
  const char* help;
  const char* metavar;  ///< nullptr: derived from the kind
};

/// Every table entry, in block order.
const std::vector<FieldInfo>& config_schema();

/// Apply every table flag present in `args` to `config`. Fails on a flag
/// that is neither a table flag nor one of `cli_options`, a value given to
/// a switch, a malformed number, an out-of-range value, or a fleet-block
/// option while `config` has no fleet block. `cli_options` are accepted
/// and left to the caller.
bool apply_flags(const util::Args& args, std::span<const FieldInfo> cli_options,
                 RunConfig& config, std::string* error = nullptr);

/// The option reference for --help: every table flag and `cli_options`,
/// grouped by block.
std::string flag_help(std::span<const FieldInfo> cli_options);

}  // namespace mvs::runtime
