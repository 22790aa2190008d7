#include <gtest/gtest.h>

#include <random>

#include "policy/policy.hpp"
#include "runtime/config.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace mvs {
namespace {

using util::Json;

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5")->as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3")->as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseNested) {
  const auto doc = Json::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": "x"}, "e": null})");
  ASSERT_TRUE(doc.has_value());
  const Json* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_EQ(doc->find("c")->find("d")->as_string(), "x");
  EXPECT_TRUE(doc->find("e")->is_null());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  const auto doc = Json::parse(R"("a\nb\t\"q\" \\ A")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "a\nb\t\"q\" \\ A");
}

TEST(Json, ControlCharacterEscapesRoundTrip) {
  // Every control character must survive dump() -> parse(): \b and \f get
  // their short escapes, the rest go out as \u00XX.
  std::string raw;
  for (char c = 1; c < 0x20; ++c) raw.push_back(c);
  raw += "\b\f plain";
  const std::string dumped = Json(raw).dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);  // no literal controls
  EXPECT_NE(dumped.find("\\b"), std::string::npos);
  EXPECT_NE(dumped.find("\\f"), std::string::npos);
  EXPECT_NE(dumped.find("\\u001f"), std::string::npos);
  const auto back = Json::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), raw);
}

TEST(Json, MalformedInputsRejected) {
  std::string error;
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("12 34").has_value());  // trailing tokens
  EXPECT_FALSE(Json::parse("nul").has_value());
}

TEST(Json, WhitespaceTolerant) {
  EXPECT_TRUE(Json::parse("  { \"a\" :\n[ 1 , 2 ]\t} ").has_value());
}

TEST(Json, DumpRoundTrips) {
  const std::string text =
      R"({"arr":[1,2.5,"s"],"flag":true,"n":null,"nested":{"x":-3}})";
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto again = Json::parse(doc->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), doc->dump());
}

TEST(Json, TypedGettersWithDefaults) {
  const auto doc = Json::parse(R"({"a": 2, "b": "s", "c": true})");
  EXPECT_DOUBLE_EQ(doc->number_or("a", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(doc->number_or("missing", 7.0), 7.0);
  EXPECT_DOUBLE_EQ(doc->number_or("b", 7.0), 7.0);  // wrong type -> default
  EXPECT_EQ(doc->string_or("b", ""), "s");
  EXPECT_TRUE(doc->bool_or("c", false));
}

TEST(Args, FlagsValuesPositional) {
  const char* argv[] = {"prog", "--verbose", "--frames", "100",
                        "--policy=balb", "S1", "extra"};
  const auto args = util::Args::parse(7, argv, {"verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_or("policy", ""), "balb");
  EXPECT_EQ(args.int_or("frames", 0), 100);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "S1");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const auto args = util::Args::parse(1, argv);
  EXPECT_FALSE(args.has("x"));
  EXPECT_EQ(args.get_or("x", "d"), "d");
  EXPECT_DOUBLE_EQ(args.number_or("x", 1.5), 1.5);
}

TEST(ParsePolicy, AllNames) {
  using runtime::Policy;
  EXPECT_EQ(runtime::parse_policy("full"), Policy::kFull);
  EXPECT_EQ(runtime::parse_policy("BALB"), Policy::kBalb);
  EXPECT_EQ(runtime::parse_policy("balb-ind"), Policy::kBalbInd);
  EXPECT_EQ(runtime::parse_policy("balb-cen"), Policy::kBalbCen);
  EXPECT_EQ(runtime::parse_policy("sp"), Policy::kStaticPartition);
  EXPECT_EQ(runtime::parse_policy("static"), Policy::kStaticPartition);
  EXPECT_FALSE(runtime::parse_policy("bogus").has_value());
}

TEST(RunConfig, ParseFullDocument) {
  const std::string text = R"({
    "scenario": "S2", "frames": 50,
    "pipeline": {"policy": "sp", "horizon_frames": 5,
                 "training_frames": 80, "seed": 9, "recall_iou": 0.5}
  })";
  const auto config = runtime::parse_run_config(text);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->scenario, "S2");
  EXPECT_EQ(config->frames, 50);
  EXPECT_EQ(config->pipeline.policy, runtime::Policy::kStaticPartition);
  EXPECT_EQ(config->pipeline.horizon_frames, 5);
  EXPECT_EQ(config->pipeline.seed, 9u);
  EXPECT_DOUBLE_EQ(config->pipeline.recall_iou, 0.5);
}

TEST(RunConfig, DefaultsApplied) {
  const auto config = runtime::parse_run_config("{}");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->scenario, "S1");
  EXPECT_EQ(config->pipeline.policy, runtime::Policy::kBalb);
}

TEST(RunConfig, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config("{bad", &error).has_value());
  EXPECT_FALSE(runtime::parse_run_config(R"({"scenario":"S9"})", &error)
                   .has_value());
  EXPECT_NE(error.find("S9"), std::string::npos);
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"pipeline":{"policy":"zzz"}})", &error)
          .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"pipeline":{"horizon_frames":0}})", &error)
                   .has_value());
}

TEST(RunConfig, DumpRoundTrips) {
  runtime::RunConfig config;
  config.scenario = "S3";
  config.frames = 77;
  config.pipeline.policy = runtime::Policy::kBalbCen;
  config.pipeline.horizon_frames = 20;
  config.pipeline.seed = 1234;
  const auto again = runtime::parse_run_config(dump_run_config(config));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->scenario, "S3");
  EXPECT_EQ(again->frames, 77);
  EXPECT_EQ(again->pipeline.policy, runtime::Policy::kBalbCen);
  EXPECT_EQ(again->pipeline.horizon_frames, 20);
  EXPECT_EQ(again->pipeline.seed, 1234u);
}

TEST(RunConfig, PolicyBlockParseAndRoundTrip) {
  // Defaults: fixed kind, no model, no trace.
  const auto defaults = runtime::parse_run_config("{}");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->pipeline.frame_policy.kind, policy::PolicyKind::kFixed);
  EXPECT_TRUE(defaults->pipeline.frame_policy.model_json.empty());
  EXPECT_TRUE(defaults->pipeline.frame_policy.feature_trace.empty());

  const auto config = runtime::parse_run_config(R"({
    "policy": {"mode": "heuristic", "staleness_limit": 9,
               "min_track_frames": 2, "drift_px": 6.5, "conf_floor": 0.4,
               "motion_frac": 0.02, "churn_hi": 0.5, "hysteresis": 0.25,
               "expected_detect_ratio": 0.4, "feature_trace": "rows.jsonl"}
  })");
  ASSERT_TRUE(config.has_value());
  const policy::PolicyConfig& pc = config->pipeline.frame_policy;
  EXPECT_EQ(pc.kind, policy::PolicyKind::kHeuristic);
  EXPECT_EQ(pc.staleness_limit, 9);
  EXPECT_EQ(pc.min_track_frames, 2);
  EXPECT_DOUBLE_EQ(pc.drift_px, 6.5);
  EXPECT_DOUBLE_EQ(pc.conf_floor, 0.4);
  EXPECT_DOUBLE_EQ(pc.motion_frac, 0.02);
  EXPECT_DOUBLE_EQ(pc.churn_hi, 0.5);
  EXPECT_DOUBLE_EQ(pc.hysteresis, 0.25);
  EXPECT_DOUBLE_EQ(pc.expected_detect_ratio, 0.4);
  EXPECT_EQ(pc.feature_trace, "rows.jsonl");

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  const policy::PolicyConfig& rc = again->pipeline.frame_policy;
  EXPECT_EQ(rc.kind, policy::PolicyKind::kHeuristic);
  EXPECT_EQ(rc.staleness_limit, 9);
  EXPECT_EQ(rc.min_track_frames, 2);
  EXPECT_DOUBLE_EQ(rc.drift_px, 6.5);
  EXPECT_DOUBLE_EQ(rc.hysteresis, 0.25);
  EXPECT_DOUBLE_EQ(rc.expected_detect_ratio, 0.4);
  EXPECT_EQ(rc.feature_trace, "rows.jsonl");
}

TEST(RunConfig, PolicyBlockUnknownKeyIsHardError) {
  // Policy knobs trade GPU time against recall; a typo must not silently
  // fall back to a default (unlike the legacy lenient blocks).
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"mode": "heuristic", "drift_pix": 4}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("unknown policy key"), std::string::npos);
  EXPECT_NE(error.find("drift_pix"), std::string::npos);

  // Must be an object, mode must parse, ranges are enforced.
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"policy": 3})", &error).has_value());
  EXPECT_NE(error.find("policy"), std::string::npos);
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"policy": {"mode": "psychic"}})", &error)
          .has_value());
  EXPECT_NE(error.find("psychic"), std::string::npos);
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"policy": {"hysteresis": 1.5}})", &error)
          .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"staleness_limit": 2,
                                  "min_track_frames": 2}})",
                   &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"expected_detect_ratio": 0}})", &error)
                   .has_value());
}

TEST(RunConfig, PairedRngParsesAndRoundTrips) {
  const auto defaults = runtime::parse_run_config("{}");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->pipeline.paired_rng);  // default preserves bit-identity

  const auto config = runtime::parse_run_config(
      R"({"pipeline": {"paired_rng": true}})");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->pipeline.paired_rng);
  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->pipeline.paired_rng);
}

TEST(RunConfig, ObsBlockParseAndRoundTrip) {
  // Defaults: observability off, no export paths.
  const auto defaults = runtime::parse_run_config("{}");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->obs.enabled);
  EXPECT_TRUE(defaults->obs.chrome_trace.empty());
  EXPECT_TRUE(defaults->obs.metrics_json.empty());

  const auto config = runtime::parse_run_config(R"({
    "obs": {"enabled": true, "chrome_trace": "trace.json",
            "metrics_json": "metrics.json"}
  })");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->obs.enabled);
  EXPECT_EQ(config->obs.chrome_trace, "trace.json");
  EXPECT_EQ(config->obs.metrics_json, "metrics.json");

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->obs.enabled);
  EXPECT_EQ(again->obs.chrome_trace, "trace.json");
  EXPECT_EQ(again->obs.metrics_json, "metrics.json");
}

TEST(RunConfig, ObsBlockMustBeObject) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(R"({"obs": true})", &error)
                   .has_value());
  EXPECT_NE(error.find("obs"), std::string::npos);
}

TEST(FleetRunConfig, ParseFleetBlock) {
  const std::string text = R"({
    "scenario": "S2", "frames": 60,
    "pipeline": {"policy": "balb", "horizon_frames": 5, "seed": 3},
    "fleet": {
      "slo_ms": 120, "dispatch": "weighted", "threads": 2,
      "readmit_interval": 7, "readmit_low_water": 0.6,
      "readmit_high_water": 0.85, "allow_split": true,
      "shards": 4, "shard_capacity": 256,
      "rebalance_interval": 25, "rebalance_high_water": 1.5,
      "device_scale": [{"class": "nano", "delta": 2}],
      "sessions": [
        {"name": "a", "weight": 2, "fps": 15, "slo_ms": 90,
         "faults": {"loss_rate": 0.05, "jitter_ms": 1.5,
                    "dropouts": [{"camera": 1, "from": 10, "to": 20}]}},
        {"name": "b", "scenario": "S3", "synthetic": true,
         "pipeline": {"policy": "sp", "horizon_frames": 8},
         "policy": {"mode": "heuristic", "staleness_limit": 6}}
      ]
    }
  })";
  const auto config = runtime::parse_run_config(text);
  ASSERT_TRUE(config.has_value());
  ASSERT_TRUE(config->fleet.has_value());
  const runtime::FleetRunConfig& fleet = *config->fleet;
  EXPECT_DOUBLE_EQ(fleet.slo_ms, 120.0);
  EXPECT_EQ(fleet.dispatch, "weighted");
  EXPECT_EQ(fleet.threads, 2);
  EXPECT_EQ(fleet.readmit_interval, 7);
  EXPECT_DOUBLE_EQ(fleet.readmit_low_water, 0.6);
  EXPECT_DOUBLE_EQ(fleet.readmit_high_water, 0.85);
  EXPECT_TRUE(fleet.allow_split);
  EXPECT_EQ(fleet.shards, 4);
  EXPECT_EQ(fleet.shard_capacity, 256);
  EXPECT_EQ(fleet.rebalance_interval, 25);
  EXPECT_DOUBLE_EQ(fleet.rebalance_high_water, 1.5);
  ASSERT_EQ(fleet.device_scale.size(), 1u);
  EXPECT_EQ(fleet.device_scale[0].device_class, "nano");
  EXPECT_EQ(fleet.device_scale[0].delta, 2);

  ASSERT_EQ(fleet.sessions.size(), 2u);
  const runtime::FleetSessionSpec& a = fleet.sessions[0];
  EXPECT_EQ(a.name, "a");
  // Sessions inherit the document's top-level scenario and pipeline.
  EXPECT_EQ(a.scenario, "S2");
  EXPECT_EQ(a.pipeline.horizon_frames, 5);
  EXPECT_EQ(a.pipeline.seed, 3u);
  EXPECT_DOUBLE_EQ(a.weight, 2.0);
  EXPECT_EQ(a.fps, 15);
  EXPECT_DOUBLE_EQ(a.slo_ms, 90.0);
  ASSERT_TRUE(a.faults.has_value());
  EXPECT_DOUBLE_EQ(a.faults->loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(a.faults->jitter_ms, 1.5);
  ASSERT_EQ(a.faults->dropouts.size(), 1u);
  EXPECT_EQ(a.faults->dropouts[0].camera, 1);
  EXPECT_EQ(a.faults->dropouts[0].from_frame, 10);
  EXPECT_EQ(a.faults->dropouts[0].to_frame, 20);

  const runtime::FleetSessionSpec& b = fleet.sessions[1];
  EXPECT_EQ(b.scenario, "S3");  // per-session override wins
  EXPECT_EQ(b.pipeline.policy, runtime::Policy::kStaticPartition);
  EXPECT_EQ(b.pipeline.horizon_frames, 8);
  // Sessions may carry their own detect-or-track policy block; session "a"
  // without one inherits the document default (fixed).
  EXPECT_EQ(b.pipeline.frame_policy.kind, policy::PolicyKind::kHeuristic);
  EXPECT_EQ(b.pipeline.frame_policy.staleness_limit, 6);
  EXPECT_EQ(a.pipeline.frame_policy.kind, policy::PolicyKind::kFixed);
  EXPECT_EQ(b.fps, 0);
  EXPECT_DOUBLE_EQ(b.slo_ms, -1.0);
  EXPECT_FALSE(b.faults.has_value());
  EXPECT_TRUE(b.synthetic);
  EXPECT_FALSE(a.synthetic);
}

TEST(FleetRunConfig, RejectsBadFleetInput) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"sessions": [{"scenario": "S9"}]}})", &error)
                   .has_value());
  EXPECT_NE(error.find("S9"), std::string::npos);
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"sessions": [{"weight": 0}]}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"readmit_low_water": 0.9,
                                 "readmit_high_water": 0.5}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"device_scale": [{"delta": 1}]}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"sessions": [{"faults": {"loss_rate": 2}}]}})",
                   &error)
                   .has_value());
  // Sharding knobs: out-of-range values and misspelled keys are hard errors.
  EXPECT_FALSE(runtime::parse_run_config(R"({"fleet": {"shards": 0}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"rebalance_high_water": 1.0}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"rebalance_interval": -1}})", &error)
                   .has_value());
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"fleet": {"shardz": 2}})", &error)
          .has_value());
  EXPECT_NE(error.find("shardz"), std::string::npos);
}

TEST(FleetRunConfig, DumpRoundTrips) {
  runtime::RunConfig config;
  config.scenario = "S1";
  runtime::FleetRunConfig fleet;
  fleet.slo_ms = 95.5;
  fleet.dispatch = "weighted";
  fleet.allow_degrade = false;
  fleet.readmit_interval = 4;
  fleet.readmit_low_water = 0.55;
  fleet.readmit_high_water = 0.8;
  fleet.allow_split = true;
  fleet.shards = 3;
  fleet.shard_capacity = 64;
  fleet.rebalance_interval = 15;
  fleet.rebalance_high_water = 1.4;
  fleet.device_scale.push_back({"xavier", -1});
  runtime::FleetSessionSpec spec;
  spec.name = "cam-east";
  spec.scenario = "S2";
  spec.weight = 3.0;
  spec.fps = 30;
  spec.slo_ms = 70.0;
  spec.pipeline.policy = runtime::Policy::kBalbInd;
  spec.synthetic = true;
  netsim::FaultConfig faults;
  faults.loss_rate = 0.1;
  faults.max_retries = 5;
  spec.faults = faults;
  fleet.sessions.push_back(spec);
  config.fleet = fleet;

  const auto again = runtime::parse_run_config(dump_run_config(config));
  ASSERT_TRUE(again.has_value());
  ASSERT_TRUE(again->fleet.has_value());
  EXPECT_DOUBLE_EQ(again->fleet->slo_ms, 95.5);
  EXPECT_EQ(again->fleet->dispatch, "weighted");
  EXPECT_FALSE(again->fleet->allow_degrade);
  EXPECT_EQ(again->fleet->readmit_interval, 4);
  EXPECT_DOUBLE_EQ(again->fleet->readmit_low_water, 0.55);
  EXPECT_DOUBLE_EQ(again->fleet->readmit_high_water, 0.8);
  EXPECT_TRUE(again->fleet->allow_split);
  EXPECT_EQ(again->fleet->shards, 3);
  EXPECT_EQ(again->fleet->shard_capacity, 64);
  EXPECT_EQ(again->fleet->rebalance_interval, 15);
  EXPECT_DOUBLE_EQ(again->fleet->rebalance_high_water, 1.4);
  ASSERT_EQ(again->fleet->device_scale.size(), 1u);
  EXPECT_EQ(again->fleet->device_scale[0].device_class, "xavier");
  EXPECT_EQ(again->fleet->device_scale[0].delta, -1);
  ASSERT_EQ(again->fleet->sessions.size(), 1u);
  const runtime::FleetSessionSpec& s = again->fleet->sessions[0];
  EXPECT_EQ(s.name, "cam-east");
  EXPECT_EQ(s.scenario, "S2");
  EXPECT_DOUBLE_EQ(s.weight, 3.0);
  EXPECT_EQ(s.fps, 30);
  EXPECT_DOUBLE_EQ(s.slo_ms, 70.0);
  EXPECT_EQ(s.pipeline.policy, runtime::Policy::kBalbInd);
  EXPECT_TRUE(s.synthetic);
  ASSERT_TRUE(s.faults.has_value());
  EXPECT_DOUBLE_EQ(s.faults->loss_rate, 0.1);
  EXPECT_EQ(s.faults->max_retries, 5);
}

TEST(FleetRunConfig, PlainDocumentHasNoFleet) {
  const auto config = runtime::parse_run_config(R"({"scenario": "S1"})");
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(config->fleet.has_value());
  // And a fleet-free config dumps without a fleet block.
  const auto doc = util::Json::parse(dump_run_config(*config));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("fleet"), nullptr);
}

TEST(RtRunConfig, DefaultsAreInert) {
  const auto config = runtime::parse_run_config("{}");
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(config->rt.paced);
  EXPECT_DOUBLE_EQ(config->rt.deadline_ms, 100.0);
  EXPECT_EQ(config->rt.late_policy, runtime::LatePolicy::kSupersede);
}

TEST(RtRunConfig, ParseAndRoundTrip) {
  const auto config = runtime::parse_run_config(R"({
    "rt": {"paced": true, "frame_period_ms": 50, "deadline_ms": 80,
           "late_policy": "drop", "arrival_jitter_ms": 4.5,
           "fixed_overhead_ms": 2.0}
  })");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->rt.paced);
  EXPECT_DOUBLE_EQ(config->rt.frame_period_ms, 50.0);
  EXPECT_DOUBLE_EQ(config->rt.deadline_ms, 80.0);
  EXPECT_EQ(config->rt.late_policy, runtime::LatePolicy::kDrop);
  EXPECT_DOUBLE_EQ(config->rt.arrival_jitter_ms, 4.5);
  EXPECT_DOUBLE_EQ(config->rt.fixed_overhead_ms, 2.0);

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->rt.paced);
  EXPECT_DOUBLE_EQ(again->rt.frame_period_ms, 50.0);
  EXPECT_DOUBLE_EQ(again->rt.deadline_ms, 80.0);
  EXPECT_EQ(again->rt.late_policy, runtime::LatePolicy::kDrop);
  EXPECT_DOUBLE_EQ(again->rt.arrival_jitter_ms, 4.5);
  EXPECT_DOUBLE_EQ(again->rt.fixed_overhead_ms, 2.0);
}

TEST(RtRunConfig, UnknownKeyAndBadValuesAreHardErrors) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"rt": {"paced": true, "deadline": 80}})", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown rt key"), std::string::npos);
  EXPECT_NE(error.find("deadline"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"rt": {"late_policy": "yolo"}})", &error)
                   .has_value());
  EXPECT_NE(error.find("late_policy"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"rt": {"arrival_jitter_ms": -1}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(R"({"rt": 3})", &error).has_value());
}

TEST(RtRunConfig, LatePolicyNames) {
  EXPECT_EQ(runtime::parse_late_policy("drop"), runtime::LatePolicy::kDrop);
  EXPECT_EQ(runtime::parse_late_policy("Supersede"),
            runtime::LatePolicy::kSupersede);
  EXPECT_EQ(runtime::parse_late_policy("finish-late"),
            runtime::LatePolicy::kFinishLate);
  EXPECT_FALSE(runtime::parse_late_policy("never").has_value());
  EXPECT_STREQ(runtime::to_string(runtime::LatePolicy::kDrop), "drop");
  EXPECT_STREQ(runtime::to_string(runtime::LatePolicy::kSupersede),
               "supersede");
  EXPECT_STREQ(runtime::to_string(runtime::LatePolicy::kFinishLate),
               "finish-late");
}

TEST(CityRunConfig, BlockGeneratesScenarioNameAndRoundTrips) {
  const auto config = runtime::parse_run_config(R"({
    "city": {"cameras": 50, "rate_per_s": 0.04, "flash_at_s": 30,
             "day_night": true}
  })");
  ASSERT_TRUE(config.has_value());
  const auto city = sim::parse_city_name(config->scenario);
  ASSERT_TRUE(city.has_value()) << config->scenario;
  EXPECT_EQ(city->cameras, 50);
  EXPECT_DOUBLE_EQ(city->rate_per_s, 0.04);
  EXPECT_DOUBLE_EQ(city->flash_at_s, 30.0);
  EXPECT_TRUE(city->day_night);

  // Dump re-emits a "city" block plus the encoded scenario name; both
  // survive the round trip.
  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->scenario, config->scenario);
}

TEST(CityRunConfig, BareCityScenarioNameIsValid) {
  const auto config = runtime::parse_run_config(R"({"scenario": "city"})");
  ASSERT_TRUE(config.has_value());
  const auto city = sim::parse_city_name(config->scenario);
  ASSERT_TRUE(city.has_value());
  EXPECT_EQ(city->cameras, 50);
}

TEST(CityRunConfig, ConflictsAndUnknownKeysAreHardErrors) {
  std::string error;
  // An explicit non-city scenario alongside a city block is a contradiction.
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"scenario": "S1", "city": {"cameras": 10}})", &error)
                   .has_value());
  EXPECT_NE(error.find("conflicts"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"city": {"camera_count": 10}})", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown city key"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(R"({"city": {"cameras": 0}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"city": {"block_m": -5}})", &error)
                   .has_value());
}

TEST(RunConfig, GateKeysParseAndRoundTrip) {
  const auto config = runtime::parse_run_config(R"({
    "policy": {"correlation_gate": true, "gate_threshold": 0.1,
               "gate_window": 40, "gate_hold": 25}
  })");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->pipeline.frame_policy.correlation_gate);
  EXPECT_DOUBLE_EQ(config->pipeline.frame_policy.gate_threshold, 0.1);
  EXPECT_EQ(config->pipeline.frame_policy.gate_window, 40);
  EXPECT_EQ(config->pipeline.frame_policy.gate_hold, 25);

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->pipeline.frame_policy.correlation_gate);
  EXPECT_DOUBLE_EQ(again->pipeline.frame_policy.gate_threshold, 0.1);
  EXPECT_EQ(again->pipeline.frame_policy.gate_window, 40);
  EXPECT_EQ(again->pipeline.frame_policy.gate_hold, 25);

  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"gate_threshold": 1.5}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"gate_window": 0}})", &error)
                   .has_value());
}

// --- Strict typed reads, one rule per field --------------------------------

/// Args as mvsched_cli parses them: the schema's bool flags are switches.
/// Its own options are not needed here; a fleet block stands in for
/// --fleet.
util::Args cli_args(std::vector<std::string> tokens) {
  std::vector<std::string> switches;
  for (const runtime::FieldInfo& f : runtime::config_schema())
    if (f.flag && f.kind == runtime::FieldKind::kBool)
      switches.push_back(f.flag);
  tokens.insert(tokens.begin(), "prog");
  std::vector<const char*> argv;
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return util::Args::parse(static_cast<int>(argv.size()), argv.data(),
                           switches);
}

std::string parse_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(text, &error).has_value()) << text;
  return error;
}

std::string flag_error(std::vector<std::string> tokens) {
  runtime::RunConfig config;
  std::string error;
  EXPECT_FALSE(runtime::apply_flags(cli_args(std::move(tokens)), {}, config,
                                    &error) &&
               runtime::validate(config, &error));
  return error;
}

TEST(RunConfigStrict, WrongJsonTypeIsAnErrorNamingTheKey) {
  // A mistyped value must not fall back to the default.
  EXPECT_NE(parse_error(R"({"rt": {"deadline_ms": "80"}})").find("deadline_ms"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"pipeline": {"loss_rate": "0.3"}})")
                .find("loss_rate"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"obs": {"enabled": 1}})").find("enabled"),
            std::string::npos);
}

TEST(RunConfigStrict, IntFieldsRejectFractionsAndOverflowBeforeTheCast) {
  EXPECT_NE(parse_error(R"({"pipeline": {"threads": 2.7}})").find("threads"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"pipeline": {"horizon_frames": 1e10}})")
                .find("horizon_frames"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"pipeline": {"seed": -1}})").find("seed"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"pipeline": {"recall_iou": 1e400}})")
                .find("recall_iou"),
            std::string::npos);
}

TEST(RunConfigStrict, MalformedFlagNumbersAreErrors) {
  // A malformed budget must not read as 0, which means an infinite deadline.
  EXPECT_NE(flag_error({"--deadline-ms", "abc"}).find("deadline-ms"),
            std::string::npos);
  EXPECT_NE(flag_error({"--frames", "12x"}).find("frames"), std::string::npos);
  EXPECT_NE(flag_error({"--horizon", "2.5"}).find("horizon"),
            std::string::npos);
  EXPECT_NE(flag_error({"--loss-rate", ""}).find("loss-rate"),
            std::string::npos);
}

TEST(RunConfigStrict, UnknownKeysAreErrorsInEveryBlock) {
  EXPECT_NE(parse_error(R"({"pipeline": {"horizon_frame": 5}})")
                .find("unknown pipeline key: \"horizon_frame\""),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"fleet": {"sessions": [
                          {"faults": {"los_rate": 0.1}}]}})")
                .find("unknown faults key: \"los_rate\""),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"pipeline": {"dropouts": [
                          {"camera": 1, "form": 3}]}})")
                .find("form"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"framez": 3})").find("framez"), std::string::npos);
  EXPECT_NE(flag_error({"--deadlin-ms", "80"})
                .find("unknown flag: --deadlin-ms"),
            std::string::npos);
}

TEST(RunConfigStrict, OneRangePerFieldForJsonAndFlags) {
  // rt budgets >= 0 in both surfaces.
  parse_error(R"({"rt": {"deadline_ms": -5}})");
  parse_error(R"({"rt": {"frame_period_ms": -1}})");
  flag_error({"--deadline-ms", "-5"});
  // min_track_frames < staleness_limit in both.
  parse_error(R"({"policy": {"staleness_limit": 1}})");
  flag_error({"--policy-staleness", "1"});
  // The burn ring bound is a parse-time range now.
  parse_error(R"({"fleet": {"burn_slow_window": 257}})");
  EXPECT_TRUE(runtime::parse_run_config(
                  R"({"fleet": {"burn_slow_window": 256}})")
                  .has_value());
  parse_error(R"({"frames": -1})");
  flag_error({"--frames", "-1"});
  // Dispatch names fail at parse time, not when the fleet is built.
  EXPECT_NE(parse_error(R"({"fleet": {"dispatch": "fifo"}})").find("fifo"),
            std::string::npos);
  // Fleet options need fleet mode.
  flag_error({"--slo-ms", "100"});
}

// --- Table-wide properties ---------------------------------------------------

/// A document that exercises every block: a fleet with a device_scale entry
/// and one session with its own faults, and a pipeline dropout.
runtime::RunConfig populated_config() {
  runtime::RunConfig config;
  config.pipeline.faults.dropouts.push_back({1, 5, 9});
  config.obs.attribution = true;  // what a metrics export would imply
  runtime::FleetRunConfig fleet;
  fleet.device_scale.push_back({"xavier", 1});
  runtime::FleetSessionSpec spec;
  spec.name = "cam";
  spec.faults = netsim::FaultConfig{};
  spec.faults->dropouts.push_back({0, 2, -1});
  fleet.sessions.push_back(spec);
  config.fleet = fleet;
  return config;
}

/// Where a block's fields sit in a dumped document.
Json& block_of(Json& doc, const std::string& block) {
  Json::Object& root = doc.as_object();
  if (block == "config") return doc;
  if (block == "pipeline" || block == "faults") return root["pipeline"];
  if (block == "dropouts")
    return root["pipeline"].as_object()["dropouts"].as_array()[0];
  Json::Object& fleet = root["fleet"].as_object();
  if (block == "fleet") return root["fleet"];
  if (block == "device_scale") return fleet["device_scale"].as_array()[0];
  if (block == "session") return fleet["sessions"].as_array()[0];
  return root[block];  // policy, rt, obs, city
}

/// A value different from `current` that the field's range accepts.
Json sample_value(const runtime::FieldInfo& f, const Json& current) {
  switch (f.kind) {
    case runtime::FieldKind::kBool:
      return Json(!current.as_bool());
    case runtime::FieldKind::kInt:
    case runtime::FieldKind::kNumber: {
      const double step = f.kind == runtime::FieldKind::kInt ? 1.0 : 0.05;
      const double up = current.as_number() + step;
      return Json(f.range.contains(up) ? up : current.as_number() - step);
    }
    case runtime::FieldKind::kString:
      return Json(current.as_string() + "x");
    case runtime::FieldKind::kChoice: {
      std::istringstream names(f.choices);
      for (std::string name; std::getline(names, name, '|');)
        if (name != current.as_string()) return Json(name);
    }
  }
  return current;
}

TEST(ConfigSchema, EveryFieldRoundTripsANonDefaultValue) {
  int checked = 0;
  for (const runtime::FieldInfo& f : runtime::config_schema()) {
    if (!f.key) continue;
    const std::string block = f.block;
    runtime::RunConfig start = populated_config();
    if (block == "city") start.scenario = sim::city_scenario_name({});
    Json doc = *Json::parse(runtime::dump_run_config(start));
    Json& value = block_of(doc, block).as_object().at(f.key);
    const Json sample = sample_value(f, value);
    ASSERT_NE(sample.dump(), value.dump()) << block << "." << f.key;
    value = sample;

    std::string error;
    const auto parsed = runtime::parse_run_config(doc.dump(), &error);
    ASSERT_TRUE(parsed.has_value()) << block << "." << f.key << ": " << error;
    Json again = *Json::parse(runtime::dump_run_config(*parsed));
    EXPECT_EQ(block_of(again, block).find(f.key)->dump(), sample.dump())
        << block << "." << f.key;
    // The city block re-encodes the scenario name; every other edit must
    // leave the rest of the document exactly as written.
    if (block != "city") {
      EXPECT_EQ(again.dump(), doc.dump()) << f.key;
    }
    ++checked;
  }
  EXPECT_GT(checked, 80);
}

TEST(ConfigSchema, EveryFlagMatchesItsJsonKey) {
  int checked = 0;
  for (const runtime::FieldInfo& f : runtime::config_schema()) {
    if (!f.key || !f.flag) continue;
    const std::string block = f.block;
    runtime::RunConfig defaults;
    defaults.scenario = sim::city_scenario_name({});
    defaults.fleet.emplace();
    Json doc = *Json::parse(runtime::dump_run_config(defaults));
    const Json sample = sample_value(f, *block_of(doc, block).find(f.key));

    std::vector<std::string> tokens = {std::string("--") + f.flag};
    if (f.kind != runtime::FieldKind::kBool)
      tokens.push_back(sample.is_string() ? sample.as_string() : sample.dump());
    runtime::RunConfig from_flag;
    if (block == "fleet") from_flag.fleet.emplace();
    std::string error;
    ASSERT_TRUE(runtime::apply_flags(cli_args(tokens), {}, from_flag, &error) &&
                runtime::validate(from_flag, &error))
        << f.flag << ": " << error;

    Json::Object fields;
    fields[f.key] = sample;
    Json::Object root;
    if (block == "config")
      root = fields;
    else
      root[block == "faults" ? "pipeline" : block] = Json(fields);
    const auto from_json = runtime::parse_run_config(Json(root).dump(), &error);
    ASSERT_TRUE(from_json.has_value()) << f.key << ": " << error;
    EXPECT_EQ(runtime::dump_run_config(from_flag),
              runtime::dump_run_config(*from_json))
        << "--" << f.flag << " vs " << block << "." << f.key;
    ++checked;
  }
  EXPECT_GT(checked, 30);
}

TEST(ConfigSchema, EveryPreviouslyDocumentedFlagIsStillAccepted) {
  // The pinned mvsched_cli vocabulary that sets config fields: removing or
  // renaming a flag must fail here. The bool is whether it is a switch
  // (takes no value). The options mvsched_cli implements itself (--config,
  // --csv, --sessions, --drop-camera, ...) are pinned by the
  // test_cli_help_lists_cli_options ctest.
  const std::pair<const char*, bool> kPinned[] = {
      {"scenario", false}, {"policy", false}, {"frames", false},
      {"horizon", false}, {"seed", false}, {"paired-rng", true}, {"verbose", true}, {"frame-policy", false},
      {"policy-model", false}, {"policy-staleness", false},
      {"policy-drift-px", false}, {"policy-threshold", false},
      {"policy-feature-trace", false}, {"slo-ms", false},
      {"dispatch", false}, {"readmit-interval", false},
      {"split-batches", true}, {"dispatch-overhead-ms", false},
      {"shards", false}, {"rebalance-interval", false}, {"paced", true},
      {"frame-period-ms", false}, {"deadline-ms", false},
      {"late-policy", false}, {"arrival-jitter-ms", false},
      {"rt-overhead-ms", false}, {"city-grid", false},
      {"correlation-gate", true}, {"gate-hold", false},
      {"chrome-trace", false}, {"metrics-json", false},
      {"attribution", true}, {"postmortem-dir", false},
      {"transport", false}, {"loss-rate", false}, {"jitter-ms", false},
      {"retry-timeout-ms", false}, {"max-retries", false},
  };
  const std::string help = runtime::flag_help({});
  for (const auto& [name, is_switch] : kPinned) {
    const auto& schema = runtime::config_schema();
    const auto it =
        std::find_if(schema.begin(), schema.end(), [&](const auto& f) {
          return f.flag && std::string(f.flag) == name;
        });
    ASSERT_NE(it, schema.end()) << name;
    EXPECT_EQ(it->kind == runtime::FieldKind::kBool, is_switch) << name;
    EXPECT_NE(help.find(std::string("--") + name + (is_switch ? "" : " ")),
              std::string::npos)
        << name;
    // apply_flags knows the flag (its value may still be out of range).
    std::vector<std::string> tokens = {std::string("--") + name};
    if (!is_switch) tokens.push_back("1");
    runtime::RunConfig config;
    config.fleet.emplace();
    std::string error;
    runtime::apply_flags(cli_args(tokens), {}, config, &error);
    EXPECT_EQ(error.find("unknown flag"), std::string::npos) << error;
  }
}

TEST(ConfigSchema, AnyCityFlagSelectsTheCityScenario) {
  // --city-grid at its default camera count must still leave S1/S2.
  for (const char* scenario : {"S1", "S2"}) {
    runtime::RunConfig config;
    config.scenario = scenario;
    std::string error;
    ASSERT_TRUE(runtime::apply_flags(cli_args({"--city-grid", "50"}), {},
                                     config, &error))
        << error;
    EXPECT_EQ(config.scenario.rfind("city:cams=50;", 0), 0u)
        << config.scenario;
  }
  // No city flag: the scenario is left alone.
  runtime::RunConfig config;
  ASSERT_TRUE(runtime::apply_flags(cli_args({"--frames", "5"}), {}, config));
  EXPECT_EQ(config.scenario, "S1");
}

TEST(ConfigSchema, CliOptionsAreAcceptedAndListedInHelp) {
  const runtime::FieldInfo kOptions[] = {
      {"fleet", nullptr, runtime::FieldKind::kString, {}, nullptr,
       "sessions", "sessions to admit", "N"},
      {"config", nullptr, runtime::FieldKind::kBool, {}, nullptr, "csv",
       "per-frame CSV", nullptr},
  };
  runtime::RunConfig config;
  std::string error;
  EXPECT_TRUE(runtime::apply_flags(cli_args({"--csv"}), kOptions, config,
                                   &error))
      << error;
  // A caller's fleet option needs fleet mode like a table one.
  EXPECT_FALSE(runtime::apply_flags(cli_args({"--sessions", "3"}), kOptions,
                                    config, &error));
  EXPECT_NE(error.find("fleet mode"), std::string::npos) << error;
  config.fleet.emplace();
  EXPECT_TRUE(runtime::apply_flags(cli_args({"--sessions", "3"}), kOptions,
                                   config, &error))
      << error;
  EXPECT_FALSE(runtime::apply_flags(cli_args({"--csvv"}), kOptions, config));
  const std::string help = runtime::flag_help(kOptions);
  EXPECT_NE(help.find("--sessions N"), std::string::npos) << help;
  EXPECT_NE(help.find("--csv "), std::string::npos) << help;
  EXPECT_EQ(runtime::flag_help({}).find("--csv"), std::string::npos);
}

TEST(ConfigSchema, SeededMutationsFailCleanlyOrReachAFixedPoint) {
  runtime::RunConfig config = populated_config();
  config.scenario = sim::city_scenario_name({});
  const Json base = *Json::parse(runtime::dump_run_config(config));
  const Json kRetyped[] = {Json("x"),  Json(1.0),         Json(true),
                           Json(nullptr), Json(Json::Array{}),
                           Json(Json::Object{})};
  std::mt19937_64 rng(20261017);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    Json doc = base;
    for (int edit = 0, edits = 1 + static_cast<int>(rng() % 3); edit < edits;
         ++edit) {
      // Every (object, key) pair in the document, nested arrays included.
      std::vector<std::pair<Json::Object*, std::string>> members;
      std::vector<Json*> pending = {&doc};
      while (!pending.empty()) {
        Json* j = pending.back();
        pending.pop_back();
        if (j->is_array())
          for (Json& v : j->as_array()) pending.push_back(&v);
        if (!j->is_object()) continue;
        for (auto& [key, v] : j->as_object()) {
          members.emplace_back(&j->as_object(), key);
          pending.push_back(&v);
        }
      }
      if (members.empty()) break;
      auto& [object, key] = members[rng() % members.size()];
      Json& value = (*object)[key];
      const double n = value.is_number() ? value.as_number() : 1.0;
      switch (rng() % 5) {
        case 0: object->erase(key); break;
        case 1: value = kRetyped[rng() % std::size(kRetyped)]; break;
        case 2: value = Json(rng() % 2 ? 1e300 : -1e10); break;
        case 3: value = Json(-n - 1.0); break;
        case 4: value = Json(n + 0.5); break;
      }
    }
    std::string text = doc.dump();
    if (rng() % 4 == 0) {
      // Duplicate one key in the text (the parser keeps the first copy).
      std::vector<std::size_t> keys;
      for (std::size_t at = text.find("\":"); at != std::string::npos;
           at = text.find("\":", at + 1))
        keys.push_back(text.rfind('"', at - 1));
      if (!keys.empty()) {
        const std::size_t at = keys[rng() % keys.size()];
        const std::string name =
            text.substr(at, text.find("\":", at) + 2 - at);
        text.insert(at, name + (rng() % 2 ? "-7" : "\"s\"") + ",");
      }
    }
    std::string error;
    const auto parsed = runtime::parse_run_config(text, &error);
    if (!parsed) {
      EXPECT_FALSE(error.empty()) << text;
      ++rejected;
      continue;
    }
    const std::string once = runtime::dump_run_config(*parsed);
    const auto again = runtime::parse_run_config(once, &error);
    ASSERT_TRUE(again.has_value()) << error << "\n" << once;
    EXPECT_EQ(runtime::dump_run_config(*again), once) << text;
    ++accepted;
  }
  // Both outcomes must actually occur for the property to mean anything.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace mvs
