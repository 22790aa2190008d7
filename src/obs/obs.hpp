#pragma once
// mvs::obs — process-wide observability: MetricsRegistry + SpanTracer behind
// a single atomic enable flag (null-sink mode).
//
// All instrumentation macros compile down to a relaxed load of one
// std::atomic<bool> when observability is disabled (the default), so
// instrumented hot paths cost one predictable branch (DESIGN.md §9;
// perfbench's untraced runs measure with it off, obs.trace_overhead_frac
// prices turning it on).
//
// Usage:
//   obs::set_enabled(true);
//   { MVS_SPAN("pipeline.frame"); ... }        // RAII wall-clock scope
//   MVS_COUNT("net.retries", outcome.retries); // counter add
//   MVS_HIST("pipeline.comm_ms", stats.comm_ms);
//   MVS_GAUGE("fleet.queue_depth", depth);
//   obs::metrics().to_json(); obs::tracer().chrome_trace_json();

#include <atomic>
#include <string>

#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace mvs::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_attribution;
}

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Critical-path attribution gate (DESIGN.md §14). Independent of the main
// flag so attribution can stay always-on (it is zero-alloc and lock-free)
// while the span/metrics instrumentation stays off, and vice versa.
inline bool attribution_enabled() {
  return detail::g_attribution.load(std::memory_order_relaxed);
}
void set_attribution_enabled(bool on);

// Process-wide singletons.
MetricsRegistry& metrics();
SpanTracer& tracer();
CriticalPath& critical_path();
FlightRecorder& recorder();

// Full metrics export: the MetricsRegistry snapshot document, plus an
// "attribution" block (the CriticalPath table) when attribution is on.
std::string export_json();

// Clears all metrics, spans, attribution state and the flight recorder
// (leaves the enable flags untouched).
void reset();

// RAII span; pushes a SpanEvent onto the calling thread's SPSC ring at
// scope exit (lock-free; the async exporter drains it off the frame path).
// Inert when obs is disabled at construction time.
class Span {
 public:
  explicit Span(const char* name) {
    if (!enabled()) return;
    begin(name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (buffer_ != nullptr) end();
  }

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  SpanTracer::ThreadSlot* buffer_ = nullptr;
  int depth_ = 0;
  std::uint64_t start_us_ = 0;
};

}  // namespace mvs::obs

#define MVS_OBS_CAT2(a, b) a##b
#define MVS_OBS_CAT(a, b) MVS_OBS_CAT2(a, b)

// RAII wall-clock span covering the rest of the enclosing scope.
#define MVS_SPAN(name) ::mvs::obs::Span MVS_OBS_CAT(mvs_obs_span_, __COUNTER__)(name)

#define MVS_COUNT(name, n)                                  \
  do {                                                      \
    if (::mvs::obs::enabled())                              \
      ::mvs::obs::metrics().counter(name).add(              \
          static_cast<long long>(n));                       \
  } while (0)

#define MVS_GAUGE(name, v)                                          \
  do {                                                              \
    if (::mvs::obs::enabled())                                      \
      ::mvs::obs::metrics().gauge(name).set(static_cast<double>(v)); \
  } while (0)

#define MVS_HIST(name, v)                                         \
  do {                                                            \
    if (::mvs::obs::enabled())                                    \
      ::mvs::obs::metrics().histogram(name).record(               \
          static_cast<double>(v));                                \
  } while (0)
