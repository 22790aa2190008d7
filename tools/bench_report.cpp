// Report-only viewer for the JSON documents the runtime and benches write.
// Pass one mode flag; a missing or malformed file exits 1.
//
// Usage:
//   bench_report --metrics-json metrics.json   # print the per-stage latency
//                breakdown from an mvs::obs metrics snapshot (e.g.
//                mvsched_cli --metrics-json output), plus the critical-path
//                attribution table when the snapshot carries one
//   bench_report --postmortem-json postmortem-0.json   # validate an
//                mvs-postmortem-v1 flight-recorder dump and print its
//                dominant-segment breakdown + recent events
//   bench_report --streaming-json BENCH_streaming.json   # pretty-print a
//                bench_streaming artifact (budget sweep, late policies, city
//                gating rows, acceptance verdicts)
//
// Performance numbers come from perfbench/ (the benchmark of record).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace mvs;

/// Per-stage latency breakdown from an mvs::obs metrics snapshot: a
/// stage/count/p50/p95/p99 table over every histogram.
void print_stage_breakdown(const util::Json& metrics) {
  const util::Json* hists = metrics.find("histograms");
  if (!hists || !hists->is_object()) {
    std::printf("  (no \"histograms\" object in metrics snapshot)\n");
    return;
  }
  util::Table table({"stage", "count", "p50_ms", "p95_ms", "p99_ms"});
  for (const auto& [name, h] : hists->as_object()) {
    if (!h.is_object()) continue;
    table.add_row({name, util::Table::fmt(h.number_or("count", 0.0), 0),
                   util::Table::fmt(h.number_or("p50", 0.0), 3),
                   util::Table::fmt(h.number_or("p95", 0.0), 3),
                   util::Table::fmt(h.number_or("p99", 0.0), 3)});
  }
  std::printf("%s", table.to_string().c_str());
}

/// Critical-path attribution table from the "attribution" block of an
/// obs::export_json() snapshot (or a postmortem document): per-segment
/// latency percentiles + dominant-frame share. No-op when absent.
void print_attribution_table(const util::Json& doc) {
  const util::Json* attr = doc.find("attribution");
  if (!attr || !attr->is_object()) return;
  const double frames = attr->number_or("frames", 0.0);
  std::printf("critical-path attribution (%0.f frames, %.0f misses, "
              "conservation err %.3g ms):\n",
              frames, attr->number_or("deadline_misses", 0.0),
              attr->number_or("max_conservation_error_ms", 0.0));
  const util::Json* segs = attr->find("segments");
  if (!segs || !segs->is_object()) return;
  util::Table table({"segment", "count", "sum_ms", "p50_ms", "p95_ms",
                     "p99_ms", "dominant", "dom_frac"});
  for (const auto& [name, s] : segs->as_object()) {
    if (!s.is_object()) continue;
    table.add_row({name, util::Table::fmt(s.number_or("count", 0), 0),
                   util::Table::fmt(s.number_or("sum_ms", 0), 1),
                   util::Table::fmt(s.number_or("p50", 0), 3),
                   util::Table::fmt(s.number_or("p95", 0), 3),
                   util::Table::fmt(s.number_or("p99", 0), 3),
                   util::Table::fmt(s.number_or("dominant_frames", 0), 0),
                   util::Table::fmt(s.number_or("dominant_frac", 0), 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("dominant segment      : %s\n",
              attr->string_or("dominant", "?").c_str());
}

/// Report-only view of a flight-recorder postmortem: schema-validate the
/// document, then print why it fired, the miss density over the recorded
/// ring, the attribution table and the tail of the event log. Returns false
/// (exit 1) on any schema violation so CI can gate on it.
bool print_postmortem_report(const util::Json& doc) {
  const std::string schema = doc.string_or("schema", "");
  if (schema != "mvs-postmortem-v1") {
    std::fprintf(stderr, "bad postmortem schema: \"%s\" (want "
                 "mvs-postmortem-v1)\n", schema.c_str());
    return false;
  }
  const util::Json* frames = doc.find("frames");
  const util::Json* events = doc.find("events");
  const util::Json* attr = doc.find("attribution");
  if (!frames || !frames->is_array() || !events || !events->is_array() ||
      !attr || !attr->is_object()) {
    std::fprintf(stderr,
                 "postmortem missing frames/events/attribution blocks\n");
    return false;
  }
  long misses = 0;
  for (const util::Json& f : frames->as_array()) {
    if (!f.is_object() || !f.find("segments") || !f.find("total_ms")) {
      std::fprintf(stderr, "malformed frame entry in postmortem\n");
      return false;
    }
    if (f.bool_or("deadline_miss", false)) ++misses;
  }
  std::printf("reason                : %s\n",
              doc.string_or("reason", "?").c_str());
  const double shard = doc.number_or("shard", -1.0);
  if (shard >= 0.0) std::printf("shard                 : %.0f\n", shard);
  std::printf("frames seen / kept    : %.0f / %zu (%ld misses in ring)\n",
              doc.number_or("frames_seen", 0.0), frames->as_array().size(),
              misses);
  print_attribution_table(doc);
  const auto& evs = events->as_array();
  const std::size_t tail = std::min<std::size_t>(evs.size(), 10);
  if (tail > 0) std::printf("last %zu events:\n", tail);
  for (std::size_t i = evs.size() - tail; i < evs.size(); ++i) {
    const util::Json& e = evs[i];
    std::printf("  tick %-8.0f %-20s session %-5.0f value %.3f\n",
                e.number_or("tick", 0.0),
                e.string_or("type", "?").c_str(),
                e.number_or("session", -1.0), e.number_or("value", 0.0));
  }
  return true;
}

/// Report-only view of a bench_streaming artifact: one table over the
/// budget sweep, the late-policy comparison and the city gating rows, then
/// the acceptance verdicts. Returns false on a schema mismatch.
bool print_streaming_report(const util::Json& doc) {
  const util::Json* s = doc.find("streaming");
  if (!s || !s->is_object()) {
    std::fprintf(stderr, "no \"streaming\" object in artifact\n");
    return false;
  }
  util::Table table({"row", "budget", "policy", "s_recall", "o_recall",
                     "drop", "miss", "lag_ms", "busy_ms"});
  const auto add_rows = [&table](const util::Json* rows, const char* label) {
    if (!rows || !rows->is_array()) return;
    for (const util::Json& r : rows->as_array()) {
      if (!r.is_object()) continue;
      const double budget = r.number_or("deadline_ms", 0.0);
      std::string name = r.string_or("label", label);
      table.add_row({name,
                     budget > 0.0 ? util::Table::fmt(budget, 0) : "inf",
                     r.string_or("late_policy", "?"),
                     util::Table::fmt(r.number_or("streaming_recall", 0), 3),
                     util::Table::fmt(r.number_or("object_recall", 0), 3),
                     util::Table::fmt(r.number_or("drop_rate", 0), 3),
                     util::Table::fmt(r.number_or("miss_rate", 0), 3),
                     util::Table::fmt(r.number_or("mean_lag_ms", 0), 1),
                     util::Table::fmt(r.number_or("gpu_busy_ms", 0), 0)});
    }
  };
  add_rows(s->find("budget_sweep"), "budget");
  add_rows(s->find("late_policies"), "policy");
  add_rows(s->find("city"), "city");
  std::printf("%s", table.to_string().c_str());
  std::printf("monotone budget curve : %s\n",
              s->bool_or("monotone", false) ? "yes" : "NO");
  std::printf("rt-of-one identity    : %s\n",
              s->bool_or("rt_of_one_identical", false) ? "yes" : "NO");
  if (s->find("city_pass"))
    std::printf("city gating           : busy cut %.1f%% at %.4f recall "
                "loss -> %s\n",
                100.0 * s->number_or("city_busy_cut", 0.0),
                s->number_or("city_recall_loss", 0.0),
                s->bool_or("city_pass", false) ? "pass" : "FAIL");
  std::printf("acceptance            : %s\n",
              s->bool_or("pass", false) ? "pass" : "FAIL");
  return true;
}

/// Read and parse the JSON file named by `--<flag>`; reports the failure on
/// stderr and yields nullopt when the file is unreadable or malformed.
std::optional<util::Json> load_json(const char* flag, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read --%s file: %s\n", flag, path.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  std::optional<util::Json> doc = util::Json::parse(text.str(), &error);
  if (!doc)
    std::fprintf(stderr, "malformed --%s JSON %s: %s\n", flag, path.c_str(),
                 error.c_str());
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args = util::Args::parse(argc, argv);

  if (const std::string path = args.get_or("metrics-json", ""); !path.empty()) {
    const std::optional<util::Json> doc = load_json("metrics-json", path);
    if (!doc) return 1;
    std::printf("per-stage latency breakdown (%s):\n", path.c_str());
    print_stage_breakdown(*doc);
    print_attribution_table(*doc);
    return 0;
  }

  if (const std::string path = args.get_or("postmortem-json", "");
      !path.empty()) {
    const std::optional<util::Json> doc = load_json("postmortem-json", path);
    if (!doc) return 1;
    std::printf("flight-recorder postmortem (%s):\n", path.c_str());
    return print_postmortem_report(*doc) ? 0 : 1;
  }

  if (const std::string path = args.get_or("streaming-json", "");
      !path.empty()) {
    const std::optional<util::Json> doc = load_json("streaming-json", path);
    if (!doc) return 1;
    std::printf("streaming-perception report (%s):\n", path.c_str());
    return print_streaming_report(*doc) ? 0 : 1;
  }

  std::fprintf(stderr,
               "usage: bench_report --metrics-json F | --postmortem-json F | "
               "--streaming-json F\n");
  return 2;
}
