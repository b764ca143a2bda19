// End-to-end benchmark driver for the UNIQ calibration system.
//
// One process runs one workload over inputs generated from --seed, times
// the operations a user waits on through the public APIs of core, serve
// and stream, checks every output against ground truth or a property of
// the method, and prints one JSON result line on stdout (see README.md).
//
//   perfbench_driver --workload calibrate|serve --seed N --seconds S
//                    --trace 0|1 --work-dir DIR
//
// Every run executes the same four phases in order — calibrate, aoa, serve
// bursts, cache — so that every metric exists on every workload. The
// workload's own phase (calibrate or serve) runs whole rounds for --seconds;
// every other phase runs two whole rounds (the cache phase a fixed
// sequence). With --trace 1 the driver opens an obs::Span around each public
// call, reports per-layer metrics instead of end-to-end ones, and writes its
// spans to DIR/trace-<workload>-<seed>.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "core/aoa.h"
#include "core/near_far.h"
#include "core/pipeline.h"
#include "core/table_io.h"
#include "dsp/kernels/kernels.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "head/hrtf_database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batch_aoa.h"
#include "serve/calibration_service.h"
#include "serve/table_cache.h"
#include "sim/fault_injector.h"
#include "sim/hardware_model.h"
#include "sim/recorder.h"
#include "sim/room_model.h"

namespace {

using namespace uniq;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: set-up time counts from
// here.
const Clock::time_point kProcessStart = Clock::now();

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Fixed sizes. Thread counts stay below the 4 vCPUs of the reference host.

constexpr std::size_t kPipelineThreads = 2;  // calibrate + serial AoA pool
constexpr std::size_t kBatchAoaThreads = 2;  // BatchAoaEngine fan-out
// One service worker: a streaming job adds its session's 2 node threads, so
// the live compute threads stay at 3.
constexpr std::size_t kServiceWorkers = 1;
constexpr std::size_t kSubjects = 4;
constexpr std::size_t kBurstJobs = 2;  // per serve round: batch, streaming
constexpr double kQuerySnrDb = 25.0;   // Fig. 21/22 protocol
constexpr double kQuerySeconds = 0.5;
// Cache phase: uniq serve-load's traffic model scaled from 10k users to
// kCacheUsers (README.md, "Cache sequence"). Its CI configuration holds
// 4096 of 10000 users in memory (41%) at Zipf skew 1.0 and put 58 tables
// (its calibration jobs) over 34362 operations
// (bench/serve_load_baseline.json); with a disk tier the cold tail is
// served from disk (docs/CAPACITY.md).
constexpr std::size_t kCacheUsers = 200;
constexpr std::size_t kCacheCapacity = 82;  // 41% of kCacheUsers
constexpr double kCacheZipfSkew = 1.0;
constexpr double kCachePutShare = 58.0 / 34362.0;
constexpr std::size_t kCacheNewUserEvery = 1000;
constexpr std::size_t kCacheOps = 12000;
constexpr std::size_t kCacheChunks = 6;  // ops/s is the median over chunks

// Accuracy bounds (EXPERIMENTS.md / paper values with margin; see README.md).
constexpr double kHeadAxisBoundM = 0.030;      // any axis, any subject
constexpr double kHeadAxisMeanBoundM = 0.018;  // worst axis, mean of subjects
constexpr double kStopAngleMedianBoundDeg = 4.8;  // Fig. 17, pooled stops
constexpr double kCorrelationGainBound = 1.3;     // Fig. 18
constexpr double kKnownMedianBoundDeg = 5.0;      // Fig. 21
constexpr double kUnknownFrontBackBound = 0.65;   // Fig. 22
// Traced-run cross-checks (README.md, "Cross-checks").
constexpr double kStageAgreementTolerance = 0.25;
constexpr double kStageAgreementFloorMs = 2.0;
constexpr double kSumAgreementTolerance = 0.15;

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Driver spans (traced runs only): an obs::Span around each public call the
// workloads make, under one obs::TraceContextScope per operation so that
// the spans of an operation share a trace id. The library records its own
// spans too; the driver's are picked out of obs::collectSpans() by name.

bool gTrace = false;

const char* const kDriverSpans[] = {
    "core.calibrate",  "core.extract",     "core.fusion",
    "core.nearfield",  "core.nearfar",     "core.aoa.known",
    "core.aoa.unknown", "serve.batch_aoa", "serve.submit",
    "serve.wait",      "serve.cache.get",  "serve.cache.put"};

class CallSpan {
 public:
  explicit CallSpan(const char* name) {
    if (gTrace) span_.emplace(name);
  }

 private:
  std::optional<obs::Span> span_;
};

/// A fresh id for one operation's spans; 0 (no context) when untraced.
obs::TraceId opId() { return gTrace ? obs::newTraceId() : 0; }

class OpContext {
 public:
  explicit OpContext(obs::TraceId id) {
    if (id != 0) scope_.emplace(id);
  }

 private:
  std::optional<obs::TraceContextScope> scope_;
};

#define BENCH_SPAN_CAT2(a, b) a##b
#define BENCH_SPAN_CAT(a, b) BENCH_SPAN_CAT2(a, b)
#define BENCH_SPAN(name) CallSpan BENCH_SPAN_CAT(benchSpan_, __LINE__)(name)

/// The driver's spans among everything recorded so far.
std::vector<obs::SpanRecord> driverSpans() {
  std::vector<obs::SpanRecord> out;
  for (auto& s : obs::collectSpans()) {
    for (const char* name : kDriverSpans) {
      if (s.name == name) {
        out.push_back(std::move(s));
        break;
      }
    }
  }
  return out;
}

std::vector<double> durationsMs(const std::vector<obs::SpanRecord>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans)
    if (s.name == name) out.push_back(s.durUs / 1000.0);
  return out;
}

void writeSpans(const std::vector<obs::SpanRecord>& spans,
                const std::string& path) {
  std::ofstream os(path);
  os << std::setprecision(15) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"trace_id\": " << s.traceId
       << ", \"start_us\": " << s.startUs << ", \"dur_us\": " << s.durUs
       << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("cannot write spans to " + path);
}

// ---------------------------------------------------------------------------
// Result bookkeeping.

struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

bool allFinite(const head::Hrir& h) {
  if (h.left.empty() || h.right.empty()) return false;
  for (double x : h.left)
    if (!std::isfinite(x)) return false;
  for (double x : h.right)
    if (!std::isfinite(x)) return false;
  return true;
}

bool sameHrir(const head::Hrir& a, const head::Hrir& b) {
  return a.left == b.left && a.right == b.right &&
         a.sampleRate == b.sampleRate;
}

bool sameTable(const core::HrtfTable& a, const core::HrtfTable& b) {
  const auto& an = a.nearTable();
  const auto& bn = b.nearTable();
  const auto& af = a.farTable();
  const auto& bf = b.farTable();
  if (an.byDegree.size() != bn.byDegree.size() ||
      af.byDegree.size() != bf.byDegree.size())
    return false;
  for (std::size_t i = 0; i < an.byDegree.size(); ++i)
    if (!sameHrir(an.byDegree[i], bn.byDegree[i])) return false;
  for (std::size_t i = 0; i < af.byDegree.size(); ++i)
    if (!sameHrir(af.byDegree[i], bf.byDegree[i])) return false;
  return an.tapLeftSamples == bn.tapLeftSamples &&
         an.tapRightSamples == bn.tapRightSamples &&
         af.tapLeftSamples == bf.tapLeftSamples &&
         af.tapRightSamples == bf.tapRightSamples &&
         an.headParams.a == bn.headParams.a &&
         an.headParams.b == bn.headParams.b &&
         an.headParams.c == bn.headParams.c;
}

/// Every field of the table has 181 entries of finite samples.
bool tableWellFormed(const core::HrtfTable& t) {
  if (t.nearTable().byDegree.size() != 181 ||
      t.farTable().byDegree.size() != 181)
    return false;
  for (const auto& h : t.nearTable().byDegree)
    if (!allFinite(h)) return false;
  for (const auto& h : t.farTable().byDegree)
    if (!allFinite(h)) return false;
  return true;
}

/// The quantized container's documented error budget (core/table_io.h):
/// every sample within kQuantSampleError x the degree's peak, tap anchors
/// within kQuantTapErrorSamples.
bool withinQuantBudget(const core::HrtfTable& original,
                       const core::HrtfTable& loaded) {
  const auto degreeOk = [](const head::Hrir& a, const head::Hrir& b) {
    if (a.left.size() != b.left.size() || a.right.size() != b.right.size())
      return false;
    double peak = 0.0;
    for (double x : a.left) peak = std::max(peak, std::fabs(x));
    for (double x : a.right) peak = std::max(peak, std::fabs(x));
    const double budget = core::kQuantSampleError * peak;
    for (std::size_t i = 0; i < a.left.size(); ++i)
      if (std::fabs(a.left[i] - b.left[i]) > budget) return false;
    for (std::size_t i = 0; i < a.right.size(); ++i)
      if (std::fabs(a.right[i] - b.right[i]) > budget) return false;
    return true;
  };
  const auto tapsOk = [](const std::vector<double>& a,
                         const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::fabs(a[i] - b[i]) > core::kQuantTapErrorSamples) return false;
    return true;
  };
  for (int deg = 0; deg <= 180; ++deg) {
    if (!degreeOk(original.nearAt(deg), loaded.nearAt(deg)) ||
        !degreeOk(original.farAt(deg), loaded.farAt(deg)))
      return false;
  }
  return tapsOk(original.farTable().tapLeftSamples,
                loaded.farTable().tapLeftSamples) &&
         tapsOk(original.farTable().tapRightSamples,
                loaded.farTable().tapRightSamples) &&
         tapsOk(original.nearTable().tapLeftSamples,
                loaded.nearTable().tapLeftSamples) &&
         tapsOk(original.nearTable().tapRightSamples,
                loaded.nearTable().tapRightSamples);
}

// ---------------------------------------------------------------------------
// Inputs.

struct QueryCase {
  bool known = false;
  double truthDeg = 0.0;
};

struct Fixture {
  std::vector<std::shared_ptr<const sim::CalibrationCapture>> captures;
  /// Per subject: its AoA queries (userId "user-<subject>") and, parallel
  /// to them, what each query is.
  std::vector<std::vector<serve::AoaQuery>> queries;
  std::vector<std::vector<QueryCase>> queryCases;
  std::vector<std::unique_ptr<head::HrtfDatabase>> truthDbs;
  std::unique_ptr<core::FarFieldTable> globalFar;
};

std::string aoaUser(std::size_t subject) {
  return "user-" + std::to_string(subject);
}

/// Subject i: gesture alternates default / constrained; subjects 1..3 carry
/// one fault the pipeline absorbs (burst noise, clipping, gyro bias).
std::optional<sim::FaultKind> faultFor(std::size_t i) {
  switch (i) {
    case 1:
      return sim::FaultKind::kBurstNoise;
    case 2:
      return sim::FaultKind::kAudioClipping;
    case 3:
      return sim::FaultKind::kGyroBias;
    default:
      return std::nullopt;
  }
}

Fixture makeFixture(std::uint64_t seed) {
  Fixture fx;
  const auto population = head::makePopulation(kSubjects, mix(seed, 1));
  head::HrtfDatabaseOptions dbOpts;
  dbOpts.sampleRate = 48000.0;
  fx.globalFar = std::make_unique<core::FarFieldTable>(
      core::farTableFromDatabase(
          head::HrtfDatabase(head::globalTemplateSubject(), dbOpts)));

  sim::HardwareModel::Options hwOpts;
  hwOpts.sampleRate = dbOpts.sampleRate;
  const sim::HardwareModel hardware(hwOpts);
  const auto samples =
      static_cast<std::size_t>(kQuerySeconds * dbOpts.sampleRate);
  const eval::SignalKind unknownKinds[] = {eval::SignalKind::kWhiteNoise,
                                           eval::SignalKind::kMusic,
                                           eval::SignalKind::kSpeech};

  for (std::size_t i = 0; i < kSubjects; ++i) {
    sim::MeasurementSession::Options so;
    so.noiseSeed = mix(seed, 100 + i);
    const sim::MeasurementSession session(so);
    auto capture = session.run(population[i], i % 2 == 1
                                                  ? sim::constrainedGesture()
                                                  : sim::defaultGesture());
    if (const auto fault = faultFor(i)) {
      sim::FaultInjector injector(mix(seed, 200 + i));
      injector.add(*fault, 0.5);
      capture = injector.apply(capture);
    }
    fx.captures.push_back(
        std::make_shared<const sim::CalibrationCapture>(std::move(capture)));

    // AoA queries rendered from the subject's ground-truth database over
    // the Fig. 21/22 sweep (5..175 deg): an ambient signal (unknown source,
    // class rotating with the angle) at every angle, and a chirp (known
    // source) at every kSubjects-th angle, so the subjects share one sweep.
    fx.truthDbs.push_back(
        std::make_unique<head::HrtfDatabase>(population[i], dbOpts));
    sim::RoomModel::Options roomOpts;
    roomOpts.sampleRate = dbOpts.sampleRate;
    roomOpts.seed = mix(seed, 300 + i);
    const sim::RoomModel room(roomOpts);
    sim::BinauralRecorder::Options recOpts;
    recOpts.snrDb = kQuerySnrDb;
    const sim::BinauralRecorder recorder(*fx.truthDbs.back(), hardware, room,
                                         recOpts);
    Pcg32 rng(mix(seed, 400 + i));
    fx.queries.emplace_back();
    fx.queryCases.emplace_back();
    std::size_t angleIndex = 0;
    for (double angle = 5.0; angle <= 175.0; angle += 10.0, ++angleIndex) {
      for (const bool known : {true, false}) {
        if (known && angleIndex % kSubjects != i) continue;
        Pcg32 sigRng = rng.fork(angleIndex * 2 + (known ? 0 : 1));
        const auto kind = known ? eval::SignalKind::kChirp
                                : unknownKinds[angleIndex % 3];
        auto signal = eval::makeSignal(kind, samples, dbOpts.sampleRate,
                                       sigRng);
        auto rec = recorder.recordFarField(angle, signal, sigRng, known);
        serve::AoaQuery q;
        q.userId = aoaUser(i);
        q.left = std::move(rec.left);
        q.right = std::move(rec.right);
        if (known) q.source = std::move(signal);
        fx.queries.back().push_back(std::move(q));
        fx.queryCases.back().push_back(QueryCase{known, angle});
      }
    }
  }
  return fx;
}

/// How long a phase runs: whole rounds, at least `minRounds`, and more
/// while the phase has run for less than `seconds`.
struct Budget {
  std::size_t minRounds = 1;
  double seconds = 0.0;

  bool more(std::size_t roundsDone, Clock::time_point phaseStart) const {
    return roundsDone < minRounds || msSince(phaseStart) < seconds * 1000.0;
  }
};

core::CalibrationPipelineOptions pipelineOptions() {
  core::CalibrationPipelineOptions opts;
  opts.numThreads = kPipelineThreads;
  return opts;
}

// ---------------------------------------------------------------------------
// Phase: calibrate. Rounds over every subject's capture, one caller.

struct CalibrateOut {
  /// First round, per subject; the tables move into `tables`.
  std::vector<std::optional<core::PersonalHrtf>> personal;
  std::vector<std::shared_ptr<const core::HrtfTable>> tables;
  std::vector<double> opMs;                  ///< untraced operations
  std::vector<double> tracedOpMs;            ///< traced decompositions
  std::map<std::string, std::vector<double>> reportStageMs;
  std::uint64_t objectiveEvals = 0;
  std::uint64_t fftTransforms = 0;
};

/// The pipeline's stages called one by one through their public entry
/// points, each under a span: extract -> fusion -> nearfield -> nearfar.
/// Mirrors CalibrationPipeline::runFromChannels on a capture that passes
/// its gates (the caller checks the table equals run()'s bit for bit).
core::HrtfTable calibrateByStages(const core::CalibrationPipeline& pipeline,
                                  const core::CalibrationPipelineOptions& opts,
                                  const sim::CalibrationCapture& capture) {
  BENCH_SPAN("core.calibrate");
  std::vector<core::BinauralChannel> channels;
  {
    BENCH_SPAN("core.extract");
    channels = pipeline.extractChannels(capture);
  }
  auto measurements =
      core::CalibrationPipeline::toFusionMeasurements(capture, channels);
  measurements.erase(
      std::remove_if(measurements.begin(), measurements.end(),
                     [&](const core::FusionMeasurement& m) {
                       return channels[m.sourceIndex].quality.gated();
                     }),
      measurements.end());
  core::SensorFusionOptions fusionOpts = opts.fusion;
  if (fusionOpts.numThreads == 0) fusionOpts.numThreads = opts.numThreads;
  fusionOpts.minMeasurements =
      std::max(std::size_t{4},
               std::min(fusionOpts.minMeasurements, opts.minUsableStops));
  core::NearFieldBuilderOptions nearOpts = opts.nearField;
  if (nearOpts.numThreads == 0) nearOpts.numThreads = opts.numThreads;

  core::SensorFusionResult fusion;
  {
    BENCH_SPAN("core.fusion");
    fusion = core::SensorFusion(fusionOpts).solveRobust(measurements);
  }
  std::vector<core::FusedStop> fullStops(capture.stops.size());
  for (std::size_t i = 0; i < fullStops.size(); ++i) {
    fullStops[i].localized = false;
    fullStops[i].imuAngleDeg = capture.stops[i].imuAngleDeg;
    fullStops[i].angleDeg = capture.stops[i].imuAngleDeg;
    fullStops[i].sourceIndex = i;
  }
  for (const auto& s : fusion.stops)
    if (s.sourceIndex < fullStops.size()) fullStops[s.sourceIndex] = s;

  core::NearFieldTable nearTable;
  {
    BENCH_SPAN("core.nearfield");
    nearTable = core::NearFieldHrtfBuilder(nearOpts).build(
        fullStops, channels, fusion.headParams);
  }
  core::FarFieldTable farTable;
  {
    BENCH_SPAN("core.nearfar");
    farTable = core::NearFarConverter(opts.nearFar).convert(nearTable);
  }
  return core::HrtfTable(std::move(nearTable), std::move(farTable));
}

CalibrateOut runCalibrate(const Fixture& fx, const Budget& budget, Run& run) {
  const auto opts = pipelineOptions();
  const core::CalibrationPipeline pipeline(opts);
  CalibrateOut out;
  out.personal.resize(kSubjects);
  out.tables.resize(kSubjects);
  const auto phaseStart = Clock::now();
  for (std::size_t round = 0; budget.more(round, phaseStart); ++round) {
    for (std::size_t i = 0; i < kSubjects; ++i) {
      const auto& capture = *fx.captures[i];
      ++run.attempted;
      const auto evals0 = counter("dsf.objective.evals");
      const auto fft0 = counter("fft.transforms");
      obs::RunReport report;
      const auto t0 = Clock::now();
      auto personal = pipeline.run(capture, &report);
      out.opMs.push_back(msSince(t0));
      out.objectiveEvals += counter("dsf.objective.evals") - evals0;
      out.fftTransforms += counter("fft.transforms") - fft0;
      if (personal.status == core::PipelineStatus::kFailed) ++run.failed;
      for (const auto& stage : report.stages)
        out.reportStageMs[stage.name].push_back(stage.wallMs);

      if (gTrace) {
        const OpContext op(opId());
        const auto t1 = Clock::now();
        const auto staged = calibrateByStages(pipeline, opts, capture);
        out.tracedOpMs.push_back(msSince(t1));
        run.check(sameTable(staged, personal.table),
                  "stage-by-stage table differs from run() for subject " +
                      std::to_string(i));
      }
      if (round == 0) {
        out.tables[i] =
            std::make_shared<const core::HrtfTable>(std::move(personal.table));
        out.personal[i] = std::move(personal);
      } else {
        run.check(sameTable(personal.table, *out.tables[i]),
                  "repeat calibration of subject " + std::to_string(i) +
                      " is not bitwise identical");
      }
    }
  }
  return out;
}

/// Fig. 18: mean far-field HRIR correlation of `table` against the subject's
/// ground truth, divided by the same for the global template.
double correlationGain(const core::HrtfTable& table,
                       const head::HrtfDatabase& truthDb,
                       const core::FarFieldTable& globalFar) {
  double personal = 0.0, global = 0.0;
  for (int deg = 0; deg <= 180; deg += 5) {
    const auto truth = truthDb.farField(deg);
    const auto p = eval::hrirSimilarityPerEar(table.farAt(deg), truth);
    const auto g = eval::hrirSimilarityPerEar(globalFar.at(deg), truth);
    personal += p.left + p.right;
    global += g.left + g.right;
  }
  return global > 0.0 ? personal / global : 0.0;
}

/// Largest per-axis error of the head estimate E = (a, b, c).
double headAxisError(const head::HeadParameters& est,
                     const head::HeadParameters& truth) {
  return std::max({std::fabs(est.a - truth.a), std::fabs(est.b - truth.b),
                   std::fabs(est.c - truth.c)});
}

void checkCalibrations(const Fixture& fx, const CalibrateOut& out, Run& run) {
  std::vector<double> stopErrs, headErrs;
  for (std::size_t i = 0; i < kSubjects; ++i) {
    const auto& personal = *out.personal[i];
    const auto& table = *out.tables[i];
    const auto& capture = *fx.captures[i];
    const std::string who = "subject " + std::to_string(i);
    if (personal.status == core::PipelineStatus::kFailed) continue;
    run.check(tableWellFormed(table),
              who + ": table is not 181 finite entries per field");
    headErrs.push_back(headAxisError(personal.headParams,
                                     capture.truth.subject.headParams));
    run.check(headErrs.back() <= kHeadAxisBoundM,
              who + ": head estimate off by " +
                  std::to_string(headErrs.back() * 1000.0) + " mm");
    for (const auto& stop : personal.fusion.stops) {
      if (!stop.localized || stop.sourceIndex >= capture.truth.trajectory.size())
        continue;
      stopErrs.push_back(angularDistanceDeg(
          capture.truth.trajectory[stop.sourceIndex].trueAngleDeg,
          stop.angleDeg));
    }
    const double gain =
        correlationGain(table, *fx.truthDbs[i], *fx.globalFar);
    run.check(gain >= kCorrelationGainBound,
              who + ": correlation gain " + std::to_string(gain));
  }
  run.check(!headErrs.empty() &&
                eval::mean(headErrs) <= kHeadAxisMeanBoundM,
            "mean head-axis error " +
                std::to_string(eval::mean(headErrs) * 1000.0) + " mm");
  run.check(!stopErrs.empty() && eval::median(stopErrs) <= kStopAngleMedianBoundDeg,
            "median fused-stop angle error " +
                std::to_string(eval::median(stopErrs)) + " deg");
}

// ---------------------------------------------------------------------------
// Phase: aoa. Per subject, serial queries through one AoaEstimator, then a
// BatchAoaEngine pass over the same queries.

struct AoaOut {
  std::vector<double> knownMs, unknownMs;
  /// The subjects' batches differ in make-up (known queries are ~10x the
  /// cost of unknown ones), so the rate is taken over all of them.
  std::uint64_t batchQueries = 0;
  double batchMs = 0.0;
  std::size_t batchCalls = 0;
  std::uint64_t serialQueries = 0;
  std::uint64_t fftTransforms = 0;
  std::uint64_t templateHits = 0, templateFills = 0;
};

AoaOut runAoa(const Fixture& fx, const CalibrateOut& cal,
              const Budget& budget, Run& run) {
  AoaOut out;
  core::AoaEstimatorOptions opts;
  opts.numThreads = kPipelineThreads;
  serve::TableCache tables(kSubjects);
  for (std::size_t i = 0; i < kSubjects; ++i)
    tables.put(aoaUser(i), cal.tables[i]);
  const serve::BatchAoaEngine engine(tables);

  std::vector<double> knownErrs;
  std::size_t unknownTotal = 0, unknownFrontBack = 0;
  const auto hits0 = counter("aoa.template_cache.hits");
  const auto fills0 = counter("aoa.template_cache.fills");
  const auto phaseStart = Clock::now();
  for (std::size_t round = 0; budget.more(round, phaseStart); ++round) {
    for (std::size_t i = 0; i < kSubjects; ++i) {
      const auto& queries = fx.queries[i];
      const auto& cases = fx.queryCases[i];
      const core::AoaEstimator estimator(cal.tables[i]->farTable(), opts);
      std::vector<core::AoaEstimate> serial(queries.size());
      for (std::size_t k = 0; k < queries.size(); ++k) {
        const auto& q = queries[k];
        ++run.attempted;
        const OpContext op(opId());
        const auto fft0 = counter("fft.transforms");
        const auto t0 = Clock::now();
        try {
          if (cases[k].known) {
            BENCH_SPAN("core.aoa.known");
            serial[k] = estimator.estimateKnown(q.left, q.right, q.source);
          } else {
            BENCH_SPAN("core.aoa.unknown");
            serial[k] = estimator.estimateUnknown(q.left, q.right);
          }
        } catch (const std::exception&) {
          ++run.failed;
          continue;
        }
        (cases[k].known ? out.knownMs : out.unknownMs).push_back(msSince(t0));
        out.fftTransforms += counter("fft.transforms") - fft0;
        ++out.serialQueries;
        if (round > 0) continue;
        // Fig. 21 / Fig. 22 accuracy, from the first round.
        if (cases[k].known) {
          knownErrs.push_back(
              angularDistanceDeg(cases[k].truthDeg, serial[k].angleDeg));
        } else {
          ++unknownTotal;
          if ((cases[k].truthDeg <= 90.0) == (serial[k].angleDeg <= 90.0))
            ++unknownFrontBack;
        }
      }

      run.attempted += queries.size();
      const OpContext op(opId());
      std::vector<serve::AoaBatchItem> batch;
      const auto t0 = Clock::now();
      try {
        BENCH_SPAN("serve.batch_aoa");
        batch = engine.run(queries, kBatchAoaThreads);
      } catch (const std::exception&) {
        run.failed += queries.size();
        continue;
      }
      out.batchMs += msSince(t0);
      out.batchQueries += queries.size();
      ++out.batchCalls;
      bool equal = batch.size() == serial.size();
      for (std::size_t k = 0; equal && k < batch.size(); ++k)
        equal = batch[k].personalized &&
                batch[k].estimate.angleDeg == serial[k].angleDeg &&
                batch[k].estimate.score == serial[k].score;
      run.check(equal, "BatchAoaEngine estimates differ from AoaEstimator's");
    }
  }
  out.templateHits = counter("aoa.template_cache.hits") - hits0;
  out.templateFills = counter("aoa.template_cache.fills") - fills0;

  const double knownMedian = eval::median(knownErrs);
  const double frontBack = unknownTotal == 0
                               ? 0.0
                               : static_cast<double>(unknownFrontBack) /
                                     static_cast<double>(unknownTotal);
  std::cerr << "aoa accuracy: known median error " << knownMedian
            << " deg, unknown front/back " << frontBack << "\n";
  run.check(knownMedian <= kKnownMedianBoundDeg,
            "known-source median AoA error " + std::to_string(knownMedian));
  run.check(frontBack >= kUnknownFrontBackBound,
            "unknown-source front/back rate " + std::to_string(frontBack));
  return out;
}

// ---------------------------------------------------------------------------
// Phase: serve. Bursts of calibration jobs (half batch, half streaming)
// through one CalibrationService.

struct ServeOut {
  std::vector<double> jobMs, queueMs, runMs;
  double burstMs = 0.0;  ///< summed over bursts, first submit to drain
  std::uint64_t stopsIngested = 0, sessionsConverged = 0;
};

ServeOut runServe(const Fixture& fx, const CalibrateOut& cal,
                  const Budget& budget, Run& run) {
  ServeOut out;
  serve::CalibrationServiceOptions so;
  so.workers = kServiceWorkers;
  so.maxQueued = 4 * kBurstJobs;  // admission never rejects a burst
  so.cacheCapacity = 2 * kBurstJobs;
  so.pipeline = pipelineOptions();
  serve::CalibrationService service(so);

  const auto stops0 = counter("stream.stops.ingested");
  const auto converged0 = counter("stream.sessions.converged");
  const auto phaseStart = Clock::now();
  for (std::size_t round = 0; budget.more(round, phaseStart); ++round) {
    struct Pending {
      std::uint64_t id;
      obs::TraceId op;
      std::size_t subject;
      bool streaming;
      Clock::time_point submitted;
    };
    std::vector<Pending> pending;
    const auto burstStart = Clock::now();
    for (std::size_t j = 0; j < kBurstJobs; ++j) {
      // Every burst is batch, streaming, batch, ... in that order, so each
      // queue position has the same kind of job in every burst; the
      // subjects rotate through the positions from burst to burst.
      const std::size_t subject = (round + j) % kSubjects;
      serve::JobOptions jo;
      jo.streaming = j % 2 == 1;
      const obs::TraceId opTrace = opId();
      const OpContext op(opTrace);
      const auto submitted = Clock::now();
      std::uint64_t id;
      {
        BENCH_SPAN("serve.submit");
        id = service.submit(
            "burst-" + std::to_string(round) + "-" + std::to_string(j),
            fx.captures[subject], jo);
      }
      ++run.attempted;
      if (id == serve::kInvalidJobId) {
        ++run.failed;
        continue;
      }
      pending.push_back(
          Pending{id, opTrace, subject, jo.streaming, submitted});
    }
    std::vector<serve::JobResult> results;
    for (const auto& p : pending) {
      {
        const OpContext op(p.op);
        BENCH_SPAN("serve.wait");
        results.push_back(service.wait(p.id));
      }
      out.jobMs.push_back(msSince(p.submitted));
    }
    out.burstMs += msSince(burstStart);

    // Outside the timed region: each job against the serial reference.
    for (std::size_t k = 0; k < results.size(); ++k) {
      const auto& r = results[k];
      const auto& p = pending[k];
      out.queueMs.push_back(r.queueMs);
      out.runMs.push_back(r.runMs);
      if (r.state != serve::JobState::kDone ||
          r.status == core::PipelineStatus::kFailed || !r.table) {
        ++run.failed;
        continue;
      }
      const std::string who = (p.streaming ? "streaming" : "batch") +
                              std::string(" job of subject ") +
                              std::to_string(p.subject);
      const auto& reference = *cal.tables[p.subject];
      const auto* extract = r.report.find("extract");
      const bool sawEveryStop =
          extract && extract->value("stops") ==
                         static_cast<double>(
                             fx.captures[p.subject]->stops.size());
      if (!p.streaming || sawEveryStop) {
        run.check(sameTable(*r.table, reference),
                  who + " differs from the serial pipeline");
      } else {
        // Early-converged streaming job: held to the calibrate accuracy
        // checks that a table alone supports.
        run.check(tableWellFormed(*r.table), who + ": malformed table");
        run.check(headAxisError(r.table->nearTable().headParams,
                                fx.captures[p.subject]
                                    ->truth.subject.headParams) <=
                      kHeadAxisBoundM,
                  who + ": head estimate outside bound");
        run.check(correlationGain(*r.table, *fx.truthDbs[p.subject],
                                  *fx.globalFar) >= kCorrelationGainBound,
                  who + ": correlation gain below bound");
      }
    }
    service.drain();  // forget the finished jobs
  }
  out.stopsIngested = counter("stream.stops.ingested") - stops0;
  out.sessionsConverged = counter("stream.sessions.converged") - converged0;
  return out;
}

// ---------------------------------------------------------------------------
// Phase: cache. Single-threaded, fixed length: uniq serve-load's traffic
// model (docs/CAPACITY.md) with its quantized disk tier, scaled down. A
// seeded Zipf(kCacheZipfSkew) sequence of lookups over kCacheUsers users,
// mixed with puts of re-calibrated tables.

struct CacheOut {
  std::vector<double> chunkOpsPerS;
  std::vector<double> diskLoadMs, putMs;
  serve::TableCache::Stats stats;
};

CacheOut runCache(const CalibrateOut& cal, std::uint64_t seed,
                  const std::string& dir, Run& run) {
  CacheOut out;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::TableCacheOptions co;
  co.capacity = kCacheCapacity;
  co.persistDir = dir;
  serve::TableCache cache(co);
  const auto fallback = serve::TableCache::populationAverageTable(48000.0);

  // Every user calibrated once before the sequence. The cold tail goes in
  // first, so its tables end up on disk only; then the hottest
  // kCacheCapacity ranks, hottest last (serve-load's warm phase).
  const auto userId = [](std::size_t rank) {
    std::string id = "u";
    return id += std::to_string(rank);
  };
  std::vector<std::shared_ptr<const core::HrtfTable>> expected(kCacheUsers);
  for (std::size_t k = 0; k < kCacheUsers; ++k) {
    const std::size_t rank = kCacheUsers - 1 - k;
    expected[rank] = cal.tables[rank % kSubjects];
    cache.put(userId(rank), expected[rank]);
  }
  const auto stats0 = cache.stats();

  const ZipfSampler zipf(kCacheUsers, kCacheZipfSkew);
  Pcg32 rng(mix(seed, 500));
  std::map<const core::HrtfTable*, std::weak_ptr<const core::HrtfTable>>
      verified;
  double busyMs = 0.0;
  std::size_t recalibrations = 0;
  for (std::size_t op = 0; op < kCacheOps; ++op) {
    if (op > 0 && op % (kCacheOps / kCacheChunks) == 0) {
      out.chunkOpsPerS.push_back(
          static_cast<double>(kCacheOps / kCacheChunks) / (busyMs / 1000.0));
      busyMs = 0.0;
    }
    // A fixed probe, not traffic: every kCacheNewUserEvery-th operation
    // looks up a user who never calibrated.
    const bool newUser = op % kCacheNewUserEvery == kCacheNewUserEvery - 1;
    const std::size_t u = newUser ? 0 : zipf.sample(rng);
    const bool put = !newUser && rng.uniform(0.0, 1.0) < kCachePutShare;
    ++run.attempted;
    const OpContext opCtx(opId());
    try {
      if (put) {
        // A re-calibration: the user's next table is another subject's.
        auto table = cal.tables[(u + ++recalibrations) % kSubjects];
        const auto t0 = Clock::now();
        {
          BENCH_SPAN("serve.cache.put");
          cache.put(userId(u), table);
        }
        const double ms = msSince(t0);
        busyMs += ms;
        out.putMs.push_back(ms);
        expected[u] = std::move(table);
        continue;
      }
      const std::string who =
          newUser ? std::to_string(op) + "-new" : userId(u);
      serve::CacheTier tier = serve::CacheTier::kMiss;
      std::shared_ptr<const core::HrtfTable> got;
      const auto t0 = Clock::now();
      {
        BENCH_SPAN("serve.cache.get");
        got = cache.getOrFallback(who, 48000.0, &tier);
      }
      const double ms = msSince(t0);
      busyMs += ms;
      if (tier == serve::CacheTier::kDisk) out.diskLoadMs.push_back(ms);

      // Outside the timed region: the answer matches what was put.
      if (newUser) {
        run.check(got == fallback && tier == serve::CacheTier::kFallback,
                  "never-calibrated user did not get the population table");
      } else if (got.get() != expected[u].get()) {
        const auto it = verified.find(got.get());
        if (it == verified.end() || it->second.expired()) {
          run.check(got && withinQuantBudget(*expected[u], *got),
                    "disk-tier table outside the quantization budget");
          verified[got.get()] = got;
        }
      }
    } catch (const std::exception&) {
      ++run.failed;
    }
  }
  const auto s = cache.stats();
  out.stats.hits = s.hits - stats0.hits;
  out.stats.diskHits = s.diskHits - stats0.diskHits;
  out.stats.evictions = s.evictions - stats0.evictions;
  out.stats.fallbacks = s.fallbacks - stats0.fallbacks;
  out.chunkOpsPerS.push_back(
      static_cast<double>(kCacheOps / kCacheChunks) / (busyMs / 1000.0));
  std::filesystem::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Percentile p of `v` only when at least ten samples lie beyond it.
std::optional<double> tailPercentile(const std::vector<double>& v, double p) {
  const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
  if (beyond < 10.0) return std::nullopt;
  return eval::percentile(v, p);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir = ".";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload")
      a.workload = value;
    else if (key == "--seed")
      a.seed = std::stoull(value);
    else if (key == "--seconds")
      a.seconds = std::stod(value);
    else if (key == "--trace")
      a.trace = value == "1";
    else if (key == "--work-dir")
      a.workDir = value;
    else
      throw std::invalid_argument("unknown flag " + key);
  }
  if (a.workload != "calibrate" && a.workload != "serve")
    throw std::invalid_argument("--workload must be calibrate or serve");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void printResult(Run& run, std::vector<Metric> metrics) {
  for (auto& m : metrics) {
    run.check(std::isfinite(m.value), m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  std::ostringstream os;
  os << std::setprecision(17) << "{\"correct\": "
     << (run.correct ? "true" : "false") << ", \"attempted\": "
     << run.attempted << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int runBenchmark(const Args& args) {
  gTrace = args.trace;
  Run run;

  // Set-up: inputs, then one cold operation of each kind so that plan
  // caches and allocations are warm before the first timed operation.
  const auto fx = makeFixture(args.seed);
  {
    const core::CalibrationPipeline pipeline(pipelineOptions());
    (void)pipeline.run(*fx.captures[0]);
    core::AoaEstimatorOptions opts;
    opts.numThreads = kPipelineThreads;
    const core::AoaEstimator warm(*fx.globalFar, opts);
    const auto& known = fx.queries[0][0];
    const auto& unknown = fx.queries[0][1];
    (void)warm.estimateKnown(known.left, known.right, known.source);
    (void)warm.estimateUnknown(unknown.left, unknown.right);
  }
  const double setupS = msSince(kProcessStart) / 1000.0;
  // Spans kept in memory start here; the library records its own as well.
  obs::clearTrace();
  const auto dropped0 = counter("obs.trace.dropped");

  // The workload's own phase gets the run's seconds; every phase runs at
  // least two whole rounds, so that no metric rests on one round. A traced
  // run needs 200 unknown-source queries for a p95 with ten samples beyond
  // it.
  const bool calibrateFocus = args.workload == "calibrate";
  const Budget calBudget{2, calibrateFocus ? args.seconds : 0.0};
  const Budget aoaBudget{args.trace ? 3u : 2u, 0.0};
  const Budget serveBudget{2, calibrateFocus ? 0.0 : args.seconds};

  const auto pool0 = counter("pool.tasks");
  auto cal = runCalibrate(fx, calBudget, run);
  checkCalibrations(fx, cal, run);
  const auto aoa = runAoa(fx, cal, aoaBudget, run);
  const auto srv = runServe(fx, cal, serveBudget, run);
  const auto cache = runCache(
      cal, args.seed,
      args.workDir + "/cache-" + std::to_string(::getpid()), run);
  const auto poolTasks = counter("pool.tasks") - pool0;

  std::cerr << "ISA tier " << dsp::kernels::isaName(dsp::kernels::activeIsa())
            << ", hardware threads " << std::thread::hardware_concurrency()
            << "\n";
  std::cerr << "workload " << args.workload << " seed " << args.seed << ": "
            << cal.opMs.size() << " calibrations, "
            << aoa.knownMs.size() + aoa.unknownMs.size()
            << " serial queries, " << aoa.batchCalls
            << " batch passes, " << srv.jobMs.size() << " jobs, "
            << kCacheOps << " cache ops\n";
  for (const auto& p : run.problems) std::cerr << "CHECK FAILED: " << p << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"calibrate_ms", eval::median(cal.opMs), "ms"},
        {"aoa_known_ms", eval::median(aoa.knownMs), "ms"},
        {"aoa_unknown_ms", eval::median(aoa.unknownMs), "ms"},
        {"aoa_batch_qps",
         static_cast<double>(aoa.batchQueries) / (aoa.batchMs / 1000.0),
         "queries/s"},
        {"serve_jobs_per_s",
         static_cast<double>(srv.jobMs.size()) / (srv.burstMs / 1000.0),
         "jobs/s"},
        {"serve_job_ms", eval::median(srv.jobMs), "ms"},
    };
  } else {
    const auto spans = driverSpans();
    run.check(counter("obs.trace.dropped") == dropped0,
              "spans were dropped at the per-thread cap");
    const auto stage = [&](const char* name) {
      return eval::median(durationsMs(spans, name));
    };
    // Cross-check 1: stage spans vs the pipeline's own RunReport.
    const char* stages[][2] = {{"core.extract", "extract"},
                               {"core.fusion", "fusion"},
                               {"core.nearfield", "nearfield"},
                               {"core.nearfar", "nearfar"}};
    double stageSum = 0.0;
    for (const auto& s : stages) {
      const double spanMs = stage(s[0]);
      const double reportMs = eval::median(cal.reportStageMs[s[1]]);
      stageSum += spanMs;
      std::cerr << "stage " << s[1] << ": span " << spanMs
                << " ms, RunReport " << reportMs << " ms\n";
      run.check(std::fabs(spanMs - reportMs) <=
                    std::max(kStageAgreementFloorMs,
                             kStageAgreementTolerance * reportMs),
                std::string("stage ") + s[1] + " span disagrees with RunReport");
    }
    // Cross-check 2: the stage sum vs the untraced calibration median.
    const double untraced = eval::median(cal.opMs);
    std::cerr << "stage sum " << stageSum << " ms vs untraced calibrate "
              << untraced << " ms\n";
    run.check(std::fabs(stageSum - untraced) <=
                  kSumAgreementTolerance * untraced,
              "stage sum disagrees with the untraced calibration time");

    const auto calN = static_cast<double>(cal.opMs.size());
    const auto unknownTail = tailPercentile(aoa.unknownMs, 95.0);
    metrics = {
        {"core.extract_ms", stage("core.extract"), "ms"},
        {"core.fusion_ms", stage("core.fusion"), "ms"},
        {"core.fusion_objective_evals",
         static_cast<double>(cal.objectiveEvals) / calN, "count"},
        {"core.nearfield_ms", stage("core.nearfield"), "ms"},
        {"core.nearfar_ms", stage("core.nearfar"), "ms"},
        {"dsp.fft_transforms_per_calibration",
         static_cast<double>(cal.fftTransforms) / calN, "count"},
        {"dsp.fft_transforms_per_query",
         static_cast<double>(aoa.fftTransforms) /
             static_cast<double>(aoa.serialQueries),
         "count"},
        {"core.aoa_template_cache_hits",
         static_cast<double>(aoa.templateHits), "count"},
        {"core.aoa_template_cache_fills",
         static_cast<double>(aoa.templateFills), "count"},
    };
    if (unknownTail)
      metrics.push_back({"core.aoa_unknown_p95_ms", *unknownTail, "ms"});
    const std::vector<Metric> rest = {
        {"serve.queue_wait_ms", eval::median(srv.queueMs), "ms"},
        {"serve.run_ms", eval::median(srv.runMs), "ms"},
        {"stream.stops_ingested", static_cast<double>(srv.stopsIngested),
         "count"},
        {"stream.sessions_converged",
         static_cast<double>(srv.sessionsConverged), "count"},
        // Per-layer, not end-to-end: its run-to-run spread on the reference
        // host exceeds any bound the benchmark may set (README.md, "Noise").
        {"serve.cache_ops_per_s", eval::median(cache.chunkOpsPerS), "ops/s"},
        {"serve.cache_disk_load_ms", eval::median(cache.diskLoadMs), "ms"},
        {"serve.cache_put_ms", eval::median(cache.putMs), "ms"},
        {"serve.cache_hits", static_cast<double>(cache.stats.hits), "count"},
        {"serve.cache_disk_hits", static_cast<double>(cache.stats.diskHits),
         "count"},
        {"serve.cache_evictions", static_cast<double>(cache.stats.evictions),
         "count"},
        {"serve.cache_fallbacks", static_cast<double>(cache.stats.fallbacks),
         "count"},
        {"common.pool_tasks", static_cast<double>(poolTasks), "count"},
        {"obs.trace_overhead_pct",
         100.0 * (eval::median(cal.tracedOpMs) - untraced) / untraced, "%"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    writeSpans(spans, args.workDir + "/trace-" + args.workload + "-" +
                          std::to_string(args.seed) + ".json");
  }
  printResult(run, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The process-wide pool (calibration stages, serial AoA) runs on two
  // threads: the caller plus one worker.
  ::setenv("UNIQ_NUM_THREADS", "2", 1);
  try {
    return runBenchmark(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
