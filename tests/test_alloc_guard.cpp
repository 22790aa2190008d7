// Zero-allocation guard for the steady-state hot paths (DESIGN.md §11).
//
// Global operator new is replaced with a counting hook that is armed only
// around the measured windows, so gtest's own bookkeeping never pollutes the
// counts. The invariant under test: once warm, a REGULAR (non-key) frame
// tick allocates nothing on the pipeline path, a fleet serving tick
// allocates nothing, and recording an obs span allocates nothing on the
// producer thread. Key frames are exempt by design (mask rebuild, central
// BALB, association); the async span exporter thread is exempt via
// util::alloc_track::t_exempt (it drains rings off the frame path).

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_api.hpp"
#include "obs/obs.hpp"
#include "policy/model.hpp"
#include "rt/runner.hpp"
#include "runtime/pipeline.hpp"
#include "sim/scenario.hpp"
#include "util/alloc_track.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocs{0};

inline void note_alloc() {
  if (g_armed.load(std::memory_order_relaxed) &&
      !mvs::util::alloc_track::t_exempt)
    g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* checked_alloc(std::size_t n) {
  note_alloc();
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* checked_aligned_alloc(std::size_t n, std::size_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_alloc(n); }
void* operator new[](std::size_t n) { return checked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return checked_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace mvs;

class Armed {
 public:
  Armed() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~Armed() { g_armed.store(false, std::memory_order_relaxed); }
  long count() const { return g_allocs.load(std::memory_order_relaxed); }
};

// "Steady state" is reached once every reusable buffer has hit its
// workload high-water mark: per-camera scratch grows amortized whenever a
// frame sets a new peak (more tracks, more matches than ever before), so
// early ticks may allocate while the marks climb. The guard therefore runs
// until it observes a long streak of consecutive zero-allocation regular
// ticks — proving the system actually converges to zero — and fails if the
// streak never materializes within a generous tick budget.
constexpr int kMaxTicks = 1000;

TEST(AllocGuard, PipelineSteadyTicksAllocateNothing) {
  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;  // serving mode: no per-frame history growth
  runtime::Pipeline pipe("S2", cfg);

  constexpr int kRequiredStreak = 15;  // > one full key-frame horizon
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const runtime::FrameStats& stats = pipe.run_frame_ref();
    g_armed.store(false, std::memory_order_relaxed);
    if (stats.key_frame) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  EXPECT_EQ(streak, kRequiredStreak)
      << "pipeline never reached a zero-allocation steady state in "
      << ticks << " ticks";
}

TEST(AllocGuard, FleetSteadyTicksAllocateNothing) {
  for (int shards : {1, 2}) {
    fleet::FleetConfig fc;
    fc.threads = 4;
    fc.shards = shards;
    fleet::Fleet fl(fc);
    runtime::FleetSessionSpec spec;
    spec.scenario = "S2";
    spec.pipeline.keep_history = false;
    ASSERT_TRUE(fl.admit(spec).admitted);
    ASSERT_TRUE(fl.admit(spec).admitted);

    // Sessions key together every horizon (10) ticks (same spec, same phase)
    // and key ticks are exempt, so the longest possible zero streak between
    // key ticks is 9 — require exactly that, end to end through dispatch,
    // session stepping, arbitration, rollups and (two shards) the
    // cross-shard fold.
    constexpr int kRequiredStreak = 9;
    int streak = 0;
    int ticks = 0;
    for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
      g_allocs.store(0, std::memory_order_relaxed);
      g_armed.store(true, std::memory_order_relaxed);
      fl.step();
      g_armed.store(false, std::memory_order_relaxed);
      if (g_allocs.load(std::memory_order_relaxed) == 0)
        ++streak;
      else
        streak = 0;
    }
    EXPECT_EQ(streak, kRequiredStreak)
        << "fleet of " << shards
        << " shard(s) never reached a zero-allocation steady state in "
        << ticks << " ticks";
  }
}

// The paced runtime inherits the invariant: once the arrival queue and the
// streaming scorer's emission pool have hit their high-water marks, a
// steady-state step() — arrival bookkeeping, drop/supersede resolution,
// service accounting, emission copy, instant scoring — allocates nothing.
// Ticks that process a key frame are exempt, exactly like the raw pipeline.
TEST(AllocGuard, PacedRuntimeSteadyTicksAllocateNothing) {
  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 80.0;
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rtc.arrival_jitter_ms = 5.0;
  rt::RtRunner runner("S2", cfg, rtc);

  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const rt::StepOutcome out = runner.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (out.key_frame_ran) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  EXPECT_EQ(streak, kRequiredStreak)
      << "paced runtime never reached a zero-allocation steady state in "
      << ticks << " ticks";
}

// The detect-or-track policy path on the benchmark's city shape: a paced
// city grid under the heuristic frame policy with the correlation gate, a
// lossy network, and supersede. Feature extraction (track drift,
// unexplained motion) and the policy decision run per camera per regular
// frame, so they are held to the same invariant as the fixed pipeline.
TEST(AllocGuard, PacedRuntimeHeuristicPolicySteadyTicksAllocateNothing) {
  sim::CityConfig city;
  city.cameras = 12;
  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;
  cfg.frame_policy.kind = policy::PolicyKind::kHeuristic;
  cfg.frame_policy.correlation_gate = true;
  cfg.transport = net::TransportKind::kLossy;
  cfg.faults.loss_rate = 0.05;
  cfg.faults.jitter_ms = 4.0;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 100.0;
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rtc.arrival_jitter_ms = 5.0;
  rt::RtRunner runner(sim::city_scenario_name(city), cfg, rtc);

  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const rt::StepOutcome out = runner.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (out.key_frame_ran) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  EXPECT_EQ(streak, kRequiredStreak)
      << "paced city runtime under the heuristic policy never reached a "
         "zero-allocation steady state in "
      << ticks << " ticks";
}

// The learned detect-or-track path on the same city shape: a small logistic
// model scores every camera's features per regular frame, evaluated from a
// fixed-size feature array rather than a fresh vector.
TEST(AllocGuard, PacedRuntimeLearnedPolicySteadyTicksAllocateNothing) {
  policy::Model model;  // detect once frames_since_detect reaches ~2
  model.mean.assign(policy::kFeatureCount, 0.0);
  model.scale.assign(policy::kFeatureCount, 1.0);
  model.weights.assign(policy::kFeatureCount, 0.0);
  model.weights[0] = 2.0;
  model.bias = -3.0;

  sim::CityConfig city;
  city.cameras = 12;
  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;
  cfg.frame_policy.kind = policy::PolicyKind::kLearned;
  cfg.frame_policy.model_json = policy::dump_model(model);
  cfg.frame_policy.correlation_gate = true;
  cfg.transport = net::TransportKind::kLossy;
  cfg.faults.loss_rate = 0.05;
  cfg.faults.jitter_ms = 4.0;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 100.0;
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rtc.arrival_jitter_ms = 5.0;
  rt::RtRunner runner(sim::city_scenario_name(city), cfg, rtc);

  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const rt::StepOutcome out = runner.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (out.key_frame_ran) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  EXPECT_EQ(streak, kRequiredStreak)
      << "paced city runtime under the learned policy never reached a "
         "zero-allocation steady state in "
      << ticks << " ticks";
}

// Attribution on (critical-path record + flight-recorder append + burn-rate
// push) must preserve the zero-allocation invariant: the CriticalPath owns
// fixed histogram arrays, the recorder ring is seqlock slots, and the burn
// windows are fixed rings. Auto dumps are disabled (miss_threshold = 0)
// because building a postmortem document allocates by design — it is a cold
// path triggered at most once per ring generation.
TEST(AllocGuard, PacedRuntimeAttributionSteadyTicksAllocateNothing) {
  obs::set_attribution_enabled(true);
  obs::FlightRecorder::Config rc;
  rc.miss_threshold = 0;
  obs::recorder().configure(rc);

  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 80.0;
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rtc.arrival_jitter_ms = 5.0;
  rtc.miss_budget = 0.2;  // the burn monitor pushes on every resolved frame
  rt::RtRunner runner("S2", cfg, rtc);

  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const rt::StepOutcome out = runner.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (out.key_frame_ran) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  obs::set_attribution_enabled(false);
  obs::reset();
  EXPECT_EQ(streak, kRequiredStreak)
      << "paced runtime with attribution never reached a zero-allocation "
         "steady state in "
      << ticks << " ticks";
}

TEST(AllocGuard, FleetAttributionSteadyTicksAllocateNothing) {
  for (int shards : {1, 2}) {
    obs::set_attribution_enabled(true);
    obs::FlightRecorder::Config rc;
    rc.miss_threshold = 0;
    obs::recorder().configure(rc);

    fleet::FleetConfig fc;
    fc.threads = 4;
    fc.shards = shards;
    fc.burn_error_budget = 0.2;  // session burn monitors push every tick
    fleet::Fleet fl(fc);
    runtime::FleetSessionSpec spec;
    spec.scenario = "S2";
    spec.pipeline.keep_history = false;
    ASSERT_TRUE(fl.admit(spec).admitted);
    ASSERT_TRUE(fl.admit(spec).admitted);

    constexpr int kRequiredStreak = 9;
    int streak = 0;
    int ticks = 0;
    for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
      g_allocs.store(0, std::memory_order_relaxed);
      g_armed.store(true, std::memory_order_relaxed);
      fl.step();
      g_armed.store(false, std::memory_order_relaxed);
      if (g_allocs.load(std::memory_order_relaxed) == 0)
        ++streak;
      else
        streak = 0;
    }
    obs::set_attribution_enabled(false);
    obs::reset();
    EXPECT_EQ(streak, kRequiredStreak)
        << "fleet of " << shards
        << " shard(s) with attribution never reached a zero-allocation "
           "steady state in "
        << ticks << " ticks";
  }
}

TEST(AllocGuard, SpanRecordingAllocatesNothingOnHotThread) {
  obs::set_enabled(true);
  // Warm: register this thread's slot and let the ring/exporter settle.
  for (int i = 0; i < 1000; ++i) {
    MVS_SPAN("guard.warm");
  }
  {
    Armed armed;
    for (int i = 0; i < 1000; ++i) {
      MVS_SPAN("guard.hot");
    }
    g_armed.store(false, std::memory_order_relaxed);
    EXPECT_EQ(armed.count(), 0)
        << "recording a span must not allocate on the producer thread";
  }
  obs::set_enabled(false);
  obs::reset();
}

// Satellite: SpanTracer keeps its fixed slot table (rings, drained-vector
// capacity) across reset(), so re-enabling tracing after a reset must not
// reallocate on the producer thread — re-registration only flips the slot's
// generation under the registry mutex.
TEST(AllocGuard, SpanTracerResetReenableDoesNotReallocate) {
  obs::set_enabled(true);
  for (int i = 0; i < 1000; ++i) {
    MVS_SPAN("guard.gen1");
  }
  (void)obs::tracer().span_counts();  // force a full exporter drain (cold)
  obs::reset();
  {
    Armed armed;
    for (int i = 0; i < 1000; ++i) {
      MVS_SPAN("guard.gen2");
    }
    g_armed.store(false, std::memory_order_relaxed);
    EXPECT_EQ(armed.count(), 0)
        << "re-enabling after reset() must reuse the slot table";
  }
  obs::set_enabled(false);
  obs::reset();
}

}  // namespace
