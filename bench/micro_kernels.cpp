// Microbenchmarks (google-benchmark) for the kernels on the per-frame
// critical path: Hungarian matching, KNN queries, optical flow, the central
// BALB stage, greedy batch planning, and message serialization; plus the
// pipeline's set-up kernels: association training and the cell caches.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "assoc/association.hpp"
#include "core/central_balb.hpp"
#include "gpu/batch_planner.hpp"
#include "matching/hungarian.hpp"
#include "ml/kdtree.hpp"
#include "ml/knn.hpp"
#include "net/messages.hpp"
#include "runtime/oracles.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vision/optical_flow.hpp"
#include "vision/renderer.hpp"

namespace {

using namespace mvs;

void BM_Hungarian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> cost(n * n);
  for (double& v : cost) v = rng.uniform(0, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::solve_assignment(cost, n, n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_KnnQuery(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<ml::Feature> xs;
  std::vector<int> ys;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back({rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
    ys.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  ml::KnnClassifier knn(5);
  knn.fit(xs, ys);
  const ml::Feature q = {0.5, 0.5, 0.1, 0.1};
  for (auto _ : state) benchmark::DoNotOptimize(knn.predict(q));
}
BENCHMARK(BM_KnnQuery)->Arg(500)->Arg(2000)->Arg(8000);

void BM_KdTreeVsBrute(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool use_tree = state.range(1) != 0;
  util::Rng rng(6);
  std::vector<ml::Feature> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back({rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
  const ml::KdTree tree(xs);
  const ml::Feature q = {0.5, 0.5, 0.1, 0.1};
  for (auto _ : state) {
    if (use_tree)
      benchmark::DoNotOptimize(tree.nearest(q, 5));
    else
      benchmark::DoNotOptimize(ml::k_nearest(xs, q, 5));
  }
}
BENCHMARK(BM_KdTreeVsBrute)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({16000, 0})
    ->Args({16000, 1});

void BM_Renderer(benchmark::State& state) {
  vision::Renderer::Config rc;
  rc.width = static_cast<int>(state.range(0));
  rc.height = rc.width * 9 / 16;
  const vision::Renderer renderer(rc);
  const geom::BBox box{rc.width / 3.0, rc.height / 3.0, 30, 20};
  long frame = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(renderer.render({{1, box}}, frame++, 7));
}
BENCHMARK(BM_Renderer)->Arg(320)->Arg(640)->Unit(benchmark::kMillisecond);

void BM_RendererInto(benchmark::State& state) {
  vision::Renderer::Config rc;
  rc.width = static_cast<int>(state.range(0));
  rc.height = rc.width * 9 / 16;
  const vision::Renderer renderer(rc);
  const geom::BBox box{rc.width / 3.0, rc.height / 3.0, 30, 20};
  vision::Image out;
  long frame = 0;
  for (auto _ : state) {
    renderer.render_into({{1, box}}, frame++, 7, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RendererInto)->Arg(320)->Arg(640)->Unit(benchmark::kMillisecond);

// A city camera's load: 12 boxes, some overlapping and some clipped by
// every edge, drifting a little each frame, so the object pass is timed
// beside the background and the noise pass.
void BM_RendererIntoCity(benchmark::State& state) {
  vision::Renderer::Config rc;
  rc.width = static_cast<int>(state.range(0));
  rc.height = rc.width * 9 / 16;
  const vision::Renderer renderer(rc);
  const double w = rc.width, h = rc.height;
  const std::vector<vision::RenderObject> base = {
      {1, {0.10 * w, 0.20 * h, 30, 20}},  {2, {0.15 * w, 0.25 * h, 28, 22}},
      {3, {0.40 * w, 0.10 * h, 16, 34}},  {4, {0.55 * w, 0.50 * h, 44, 26}},
      {5, {0.60 * w, 0.55 * h, 20, 18}},  {6, {0.80 * w, 0.30 * h, 12, 9}},
      {7, {-9.5, 0.60 * h, 25, 17}},      {8, {w - 13.0, 0.40 * h, 31, 21}},
      {9, {0.30 * w, -7.0, 19, 15}},      {10, {0.70 * w, h - 11.0, 27, 23}},
      {11, {0.25 * w, 0.70 * h, 9, 7}},   {12, {0.50 * w, 0.30 * h, 33, 19}}};
  std::vector<vision::RenderObject> scene = base;
  vision::Image out;
  long frame = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < scene.size(); ++i)
      scene[i].box = base[i].box.shifted(
          {0.5 * static_cast<double>((frame + static_cast<long>(i)) % 7),
           0.25 * static_cast<double>(frame % 5)});
    renderer.render_into(scene, frame++, 7, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RendererIntoCity)->Arg(320)->Unit(benchmark::kMillisecond);

void BM_DownsampleInto(benchmark::State& state) {
  // One pyramid step: padded plane to padded plane, border fill included.
  vision::Renderer::Config rc;
  rc.width = static_cast<int>(state.range(0));
  rc.height = rc.width * 9 / 16;
  const vision::Renderer renderer(rc);
  vision::PaddedImage img, out;
  img.assign(renderer.render({}, 0, 7), 16);
  for (auto _ : state) {
    img.downsample_into(out, 16);
    benchmark::DoNotOptimize(out.row(0));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DownsampleInto)->Arg(320)->Arg(640);

void BM_PaddedSad(benchmark::State& state) {
  vision::Renderer::Config rc;
  rc.width = 320;
  rc.height = 180;
  const vision::Renderer renderer(rc);
  const geom::BBox box{100, 60, 30, 20};
  const vision::Image a = renderer.render({{1, box}}, 0, 7);
  const vision::Image b = renderer.render({{1, box.shifted({3, 1})}}, 1, 7);
  vision::PaddedImage pa, pb;
  pa.assign(a, 16);
  pb.assign(b, 16);
  const int bs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::uint32_t total = 0;
    for (int y = 0; y + bs <= rc.height; y += bs)
      for (int x = 0; x + bs <= rc.width; x += bs)
        total += vision::padded_block_sad(pa, x, y, pb, x + 2, y + 1, bs);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PaddedSad)->Arg(8)->Arg(16);

void flow_pair(benchmark::State& state, int block_size) {
  vision::Renderer::Config rc;
  rc.width = static_cast<int>(state.range(0));
  rc.height = rc.width * 9 / 16;
  const vision::Renderer renderer(rc);
  const geom::BBox box{rc.width / 3.0, rc.height / 3.0, 30, 20};
  const vision::Image a = renderer.render({{1, box}}, 0, 7);
  const vision::Image b = renderer.render({{1, box.shifted({3, 1})}}, 1, 7);
  vision::OpticalFlow::Config fc;
  fc.block_size = block_size;
  const vision::OpticalFlow flow(fc);
  for (auto _ : state) benchmark::DoNotOptimize(flow.compute(a, b));
}

// The default block side runs the paired 8x8 matcher.
void BM_OpticalFlow(benchmark::State& state) { flow_pair(state, 8); }
BENCHMARK(BM_OpticalFlow)->Arg(160)->Arg(320)->Arg(640)
    ->Unit(benchmark::kMillisecond);

// Any other block side runs the runtime-size SadBlock kernel.
void BM_OpticalFlowBlock12(benchmark::State& state) { flow_pair(state, 12); }
BENCHMARK(BM_OpticalFlowBlock12)->Arg(320)->Unit(benchmark::kMillisecond);

void BM_OpticalFlowIncremental(benchmark::State& state) {
  // Steady-state pipeline path: render straight into the scratch's level 0,
  // compute flow against the cached previous pyramid, advance. One pyramid
  // build per frame and zero steady-state allocation.
  vision::Renderer::Config rc;
  rc.width = static_cast<int>(state.range(0));
  rc.height = rc.width * 9 / 16;
  const vision::Renderer renderer(rc);
  const geom::BBox box{rc.width / 3.0, rc.height / 3.0, 30, 20};
  const vision::OpticalFlow flow;
  vision::FlowScratch scratch;
  vision::FlowField field;
  renderer.render_into({{1, box}}, 0, 7,
                       flow.render_target(scratch, rc.width, rc.height));
  flow.rebase(scratch);
  long frame = 1;
  for (auto _ : state) {
    renderer.render_into({{1, box.shifted({3.0 * (frame % 2), 1})}}, frame, 7,
                         flow.render_target(scratch, rc.width, rc.height));
    flow.compute(scratch, field);
    scratch.advance();
    benchmark::DoNotOptimize(field);
    ++frame;
  }
}
BENCHMARK(BM_OpticalFlowIncremental)->Arg(160)->Arg(320)->Arg(640)
    ->Unit(benchmark::kMillisecond);

void BM_CentralBalb(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(3);
  core::MvsProblem p;
  p.cameras = {gpu::jetson_xavier(), gpu::jetson_xavier(), gpu::jetson_tx2(),
               gpu::jetson_tx2(), gpu::jetson_nano()};
  for (int j = 0; j < n; ++j) {
    core::ObjectSpec obj;
    obj.key = static_cast<std::uint64_t>(j);
    for (int c = 0; c < 5; ++c)
      if (rng.bernoulli(0.4)) obj.coverage.push_back(c);
    if (obj.coverage.empty()) obj.coverage.push_back(rng.uniform_int(0, 4));
    obj.size_class.assign(5, rng.uniform_int(0, 3));
    p.objects.push_back(std::move(obj));
  }
  for (auto _ : state) benchmark::DoNotOptimize(core::central_balb(p));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CentralBalb)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)->Complexity();

void BM_BatchPlanner(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<geom::SizeClassId> tasks(static_cast<std::size_t>(state.range(0)));
  for (auto& t : tasks) t = rng.uniform_int(0, 3);
  const gpu::DeviceProfile device = gpu::jetson_tx2();
  for (auto _ : state)
    benchmark::DoNotOptimize(gpu::plan_batches(tasks, device));
}
BENCHMARK(BM_BatchPlanner)->Arg(16)->Arg(128);

void BM_DetectionListEncode(benchmark::State& state) {
  util::Rng rng(5);
  net::DetectionListMsg msg;
  msg.camera_id = 1;
  for (int i = 0; i < state.range(0); ++i) {
    detect::Detection d;
    d.box = {rng.uniform(0, 1000), rng.uniform(0, 600), 40, 30};
    d.score = 0.9;
    msg.detections.push_back(d);
  }
  for (auto _ : state) {
    const auto bytes = msg.encode();
    benchmark::DoNotOptimize(net::DetectionListMsg::decode(bytes));
  }
}
BENCHMARK(BM_DetectionListEncode)->Arg(10)->Arg(100);

/// The pipeline's association training split: the default 250 frames
/// after a 45 s warmup, seed 42. Arg 0 selects S1 (5 cameras), arg 1 a
/// 30-camera city grid.
struct TrainingSet {
  std::vector<sim::MultiFrame> frames;
  std::vector<std::pair<double, double>> sizes;

  explicit TrainingSet(std::int64_t which) {
    sim::CityConfig city;
    city.cameras = 30;
    const std::string name = which == 0 ? "S1" : sim::city_scenario_name(city);
    sim::ScenarioPlayer player(sim::make_scenario(name, 42), 45.0);
    frames = player.take(250);
    for (const sim::ScenarioCamera& cam : player.scenario().cameras)
      sizes.emplace_back(cam.model.width(), cam.model.height());
  }
};

const char* training_label(std::int64_t which) {
  return which == 0 ? "S1" : "city30";
}

void BM_AssociatorTrain(benchmark::State& state) {
  const TrainingSet set(state.range(0));
  for (auto _ : state) {
    assoc::CrossCameraAssociator associator(set.sizes);
    associator.train(set.frames);
    benchmark::DoNotOptimize(&associator);
  }
  state.SetLabel(training_label(state.range(0)));
}
BENCHMARK(BM_AssociatorTrain)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Every camera's 64-px cell cache on a one-worker pool (the caller takes
/// tiles too, so up to two threads fill it).
void BM_CellCache(benchmark::State& state) {
  const TrainingSet set(state.range(0));
  assoc::CrossCameraAssociator associator(set.sizes);
  associator.train(set.frames);
  util::ThreadPool pool(1);
  for (auto _ : state) {
    const auto caches = runtime::build_cell_caches(associator, set.sizes, 64,
                                                   pool);
    benchmark::DoNotOptimize(caches.data());
  }
  state.SetLabel(training_label(state.range(0)));
}
BENCHMARK(BM_CellCache)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
