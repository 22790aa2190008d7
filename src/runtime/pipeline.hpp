#pragma once
// End-to-end live-analytics pipeline (paper Fig. 5).
//
// Drives a scenario at its frame rate through the key-frame / regular-frame
// loop: full-frame inspection + cross-camera association + central BALB at
// key frames; optical-flow tracking, ROI slicing, GPU batching, partial
// inspection and the distributed BALB stage at regular frames. All five
// scheduling policies of the evaluation section are selectable.
//
// Time accounting (see DESIGN.md): GPU inference time is SIMULATED from the
// device latency profiles; scheduler / tracker / association overheads
// (Table II) are MEASURED wall-clock. The two are reported separately.

#include <memory>
#include <string>
#include <vector>

#include "geometry/size_class.hpp"
#include "gpu/device_profile.hpp"
#include "net/transport.hpp"
#include "netsim/fault.hpp"
#include "policy/policy.hpp"
#include "runtime/policy.hpp"
#include "runtime/trace.hpp"
#include "util/stats.hpp"

namespace mvs::util {
class ThreadPool;
}

namespace mvs::sim {
struct MultiFrame;
struct Scenario;
}

namespace mvs::runtime {

struct PipelineConfig {
  Policy policy = Policy::kBalb;
  int horizon_frames = 10;      ///< T: frames per scheduling horizon
  int training_frames = 250;    ///< frames used to train association models
  int mask_cell_px = 64;        ///< distributed-stage grid cell size
  double recall_iou = 0.4;      ///< IoU for the object-recall metric
  std::uint64_t seed = 42;
  bool verbose = false;
  /// Worker threads for per-camera parallelism; 0 selects hardware
  /// concurrency. When the cameras are fewer than the workers, each camera's
  /// optical-flow rows are tiled across the idle ones. Results are identical
  /// for any thread count.
  int threads = 0;
  /// kIdeal charges the closed-form LinkModel numbers (bit-exact with the
  /// pre-netsim pipeline); kLossy runs the discrete-event netsim transport.
  net::TransportKind transport = net::TransportKind::kIdeal;
  /// Loss/jitter/retry/dropout knobs; only consulted when transport==kLossy.
  netsim::FaultConfig faults;
  /// Degraded serving mode (fleet admission control): the distributed stage
  /// only adopts NEW objects whose cell no other camera covers
  /// (solo-coverage cells). Shared-coverage discoveries wait for the next
  /// key frame's central plan, shedding regular-frame GPU load at a small
  /// recall cost. Off (full masks) by default.
  bool tight_masks = false;
  /// Detect-or-track layer (mvs::policy): decides per camera per REGULAR
  /// frame whether to run partial-frame detection or coast on optical-flow
  /// tracking alone (zero GPU slices that frame). The default fixed kind
  /// detects every regular frame and is bit-identical to the pre-policy
  /// pipeline; key frames always run the full inspection regardless.
  policy::PolicyConfig frame_policy;
  /// Common-random-numbers mode for policy A/B studies: re-seed every
  /// camera's RNG from (seed, camera, frame) at each frame start, so two
  /// runs that differ only in WHICH frames they inspect draw identical
  /// detector outcomes whenever they inspect the same thing (key frames
  /// resynchronize the sample paths every horizon). Off by default — the
  /// default sequential streams are part of the bit-identity contract.
  bool paired_rng = false;
  /// Retain every frame's FrameStats for result()/run() snapshots. Long-
  /// running embeddings (fleet serving, the allocation guard) that only
  /// consume run_frame_ref() can turn this off so steady-state ticks do not
  /// grow — or allocate — the history vector. With history off, result()
  /// and run() return empty frame lists (the aggregate recall remains
  /// valid).
  bool keep_history = true;
};

/// Per-frame record.
struct FrameStats {
  long frame = 0;
  bool key_frame = false;
  std::vector<double> camera_infer_ms;  ///< simulated GPU time per camera
  double slowest_infer_ms = 0.0;        ///< max over cameras
  double frame_recall = 1.0;
  std::size_t gt_objects = 0;
  std::size_t tracked_objects = 0;  ///< sum of active tracks over cameras
  // Measured wall-clock overheads (ms).
  double central_ms = 0.0;      ///< association + central BALB (key frames)
  double tracking_ms = 0.0;     ///< max per-camera flow + predict + slice
  double distributed_ms = 0.0;  ///< max per-camera distributed stage
  double batching_ms = 0.0;     ///< max per-camera batch plan + assembly
  double comm_ms = 0.0;         ///< modeled link transfer (key frames)
  // Transport accounting (non-zero only on key frames; always zero with the
  // ideal transport).
  double queue_ms = 0.0;   ///< time key-frame messages waited in FIFO queues
  int retries = 0;         ///< key-frame message retransmissions
  int dropped_msgs = 0;    ///< key-frame messages lost after all retries
  int cameras_online = 0;  ///< cameras participating in this frame
};

struct PipelineResult {
  std::string scenario;
  Policy policy = Policy::kBalb;
  std::vector<FrameStats> frames;
  double object_recall = 0.0;  ///< aggregate paper-style object recall

  /// Fig. 13 statistic: mean over frames of the slowest camera's simulated
  /// inference time (key frames averaged in).
  double mean_slowest_infer_ms() const;

  /// Table II statistics: mean per-frame overheads (central amortized over
  /// the horizon by construction — it is only non-zero on key frames).
  double mean_central_ms() const;
  double mean_tracking_ms() const;
  double mean_distributed_ms() const;
  double mean_batching_ms() const;
  double mean_comm_ms() const;
  double mean_queue_ms() const;

  /// Transport fault totals over the run (lossy transport only).
  long total_retries() const;
  long total_dropped_msgs() const;
};

/// One camera's simulated-GPU demand for the most recent frame, exposed so
/// an embedding runtime (mvs::fleet) can merge partial-frame tasks across
/// sessions into shared batches. `tasks` lists the size class of every
/// partial region the camera inspected; `full_frame` marks a full-frame
/// inspection (key frames / Full policy), which is never batch-merged.
struct CameraGpuWork {
  bool full_frame = false;
  std::vector<geom::SizeClassId> tasks;
};

class Pipeline {
 public:
  /// Builds the scenario, trains the association models on the first
  /// `training_frames` frames (when the policy needs them), and leaves the
  /// player positioned at the start of the evaluation split.
  ///
  /// `shared_pool` (optional) makes the pipeline embeddable: when non-null,
  /// all per-camera parallelism runs on the caller's pool (which may serve
  /// many pipelines at once — see util::ThreadPool shareability) instead of
  /// a pool owned by this instance; config.threads is then ignored. The
  /// pool must outlive the pipeline. Results are identical either way.
  Pipeline(const std::string& scenario_name, const PipelineConfig& config,
           util::ThreadPool* shared_pool = nullptr);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Run `frames` evaluation frames and return the collected statistics.
  /// Equivalent to calling run_frame_ref() `frames` times; the returned
  /// result covers exactly the frames of THIS call.
  PipelineResult run(int frames);

  /// Stepwise entry point: advance exactly one evaluation frame and return a
  /// reference to its statistics, overwritten by the next run_frame_ref() or
  /// run() call. Interleavable with other sessions by an embedding runtime
  /// (fleet serving polls it every tick); allocation-free once warm, and
  /// run_frame_ref x N is bit-identical to run(N).
  const FrameStats& run_frame_ref();

  /// Advance one evaluation frame WITHOUT processing it: the scenario
  /// player steps, the frame counter (and with it the key-frame cadence and
  /// dropout schedules) advances, but no camera renders, detects or tracks
  /// — zero GPU demand, no recall sample. The paced runtime (mvs::rt) uses
  /// this for frames its late policy drops or supersedes; tracking flow
  /// simply spans the gap at the next processed frame. Allocation-free once
  /// warm.
  void skip_frame();

  /// Ground truth of the most recently advanced frame (run_frame_ref OR
  /// skip_frame). Valid until the next advance; undefined before the first.
  const sim::MultiFrame& current_frame() const;

  /// Per-camera boxes reported by the most recent PROCESSED frame (what
  /// run_frame_ref scored against recall). Not updated by skip_frame.
  const std::vector<std::vector<geom::BBox>>& last_reported() const;

  /// Snapshot of everything run so far (all frames since construction, with
  /// the aggregate recall over them).
  PipelineResult result() const;

  /// Per-camera simulated-GPU demand of the most recent frame (empty before
  /// the first frame). Valid until the next run_frame_ref()/run() call.
  const std::vector<CameraGpuWork>& last_gpu_work() const;

  std::size_t camera_count() const;
  /// Per-camera device profiles of the deployment (scenario order).
  std::vector<gpu::DeviceProfile> devices() const;
  /// Scenario being driven (fps, camera layout, quality schedule).
  const sim::Scenario& scenario() const;

  /// Flip the tight_masks degraded mode at a frame boundary (fleet
  /// re-admission un-tightens a session's masks without rebuilding it).
  /// Takes effect from the next run_frame_ref(); a no-op when unchanged.
  void set_tight_masks(bool tight);

  /// Optionally record every scheduling decision (assignments, adoptions,
  /// takeovers, drops) into `trace`. The recorder must outlive the
  /// pipeline; pass nullptr to detach.
  void attach_trace(TraceRecorder* trace);

  const PipelineConfig& config() const { return config_; }

 private:
  struct Impl;
  PipelineConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mvs::runtime
