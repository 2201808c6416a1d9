// offline-activeiter: the paper's experiment as a closed loop of fold
// jobs, one at a time, on bench-scale FoursquareTwitterPreset pairs
// (θ = 50, γ = 0.6, 10-fold protocol, ActiveIter-100 with the conflict
// strategy, batch 5). Jobs run on one thread: a kernel pool would only
// speed up extraction, ~7% of a job (metadiagram.extract_ms against
// job_s_p50), and one busy thread is the least exposed to other load on a
// shared host.
//
// A job is spelled out through the public entry points, with the
// benchmark's own timer around each call: Protocol::MakeFold,
// FeatureExtractor::Extract, AlignmentProblem::Prepare, and ActiveIter's
// external loop through IterAligner::Align,
// ConflictQueryStrategy::SelectQueries, Oracle and SetPin. That gives the
// per-round numbers (how long answers take to reach the model) and the
// per-layer split. Its result is then published through an
// AlignmentService and queried with TopKFor, as a trained model is
// served. After the clock, the same job run as the eval layer runs a fold
// (FoldRunner::Run(ActiveIter-100), one public call) must reach the same
// F1 bit for bit, and the spelled-out loop must equal ActiveIterModel::Run
// bitwise (labels, scores and the query sequence). The traced run also
// times FoldRunner::Run on every job, for the cost of spelling a job out.

#include <malloc.h>
#include <sched.h>

#include <memory>
#include <unordered_set>
#include <utility>

#include "bench_stats.h"
#include "src/align/active_iter.h"
#include "src/common/stopwatch.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/eval/experiment.h"
#include "src/eval/protocol.h"
#include "src/linalg/cholesky.h"
#include "src/serve/service.h"
#include "src/serve/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using activeiter::ActiveIterModel;
using activeiter::ActiveIterOptions;
using activeiter::AlignedPair;
using activeiter::AlignmentProblem;
using activeiter::CholeskyFactor;
using activeiter::FoldData;
using activeiter::Pin;
using activeiter::Protocol;
using activeiter::QueryRecord;
using activeiter::Stopwatch;
using activeiter::Vector;

constexpr size_t kFolds = 10;
constexpr size_t kBudget = 100;
/// TopKFor calls timed against each job's served result: kQueryStretches
/// stretches, each on its own CPU after kWarmupQueries untimed calls there.
constexpr size_t kServedQueries = 4000;
constexpr size_t kQueryStretches = 4;
constexpr size_t kWarmupQueries = 500;
constexpr size_t kTopK = 10;
/// Generated pairs per run. Job i runs fold i mod 10 of pair i mod
/// kDatasets, so a run's medians pool many pairs and do not hinge on how
/// hard one seed's pair happens to be; the first kDatasets jobs (one per
/// pair) give the F1.
constexpr size_t kDatasets = 24;
/// The four timed stages (extract, prepare, align, query selection) must
/// cover at least this share of a job's wall time; the rest is
/// MakeFold, oracle answers, pinning and the F1 read-out.
constexpr double kMinJobCoverage = 0.90;
/// Jobs checked against FoldRunner::Run and ActiveIterModel::Run after the
/// clock: one per untraced run (which one depends on the seed), the first
/// kTracedChecks of a traced run.
constexpr size_t kTracedChecks = 4;
/// Set-up is timed again this many times per pair after the jobs.
constexpr size_t kSetupRounds = 3;

/// Moves the calling thread from CPU to CPU of those the process may use,
/// and gives it all of them back when destroyed. Each CPU of a shared host
/// has its own load from outside: a fixed loop of arithmetic ran at 22 or
/// at 32-45 ms per repetition depending on the vCPU and the moment, one
/// vCPU staying slow for minutes (4-vCPU VM). A lone busy thread stays
/// where the scheduler first put it, so that one CPU would set a whole
/// run's figures. A job instead moves to the next CPU at each stage and
/// each round, and so spends about as long on each; four runs of one seed
/// then spread 3% (job_s_p50, IQR over median) instead of 16%. Each move
/// costs the job its warm caches: jobs read ~10% slower than unmoved.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next allowed CPU, cyclically.
  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Setup {
  uint64_t seed = 0;
  std::unique_ptr<AlignedPair> pair;
  std::unique_ptr<Protocol> protocol;
  double generate_s = 0.0;
  double total_s = 0.0;
};

bool MakeSetup(uint64_t seed, Setup* out) {
  out->seed = seed;
  Stopwatch total;
  auto pair = activeiter::AlignedNetworkGenerator(
                  activeiter::FoursquareTwitterPreset(seed))
                  .Generate();
  if (!pair.ok()) return false;
  out->generate_s = total.ElapsedSeconds();
  out->pair = std::make_unique<AlignedPair>(std::move(pair).value());
  activeiter::ProtocolConfig config;
  config.np_ratio = 50.0;
  config.sample_ratio = 0.6;
  config.num_folds = kFolds;
  config.seed = seed;
  auto protocol = Protocol::Create(*out->pair, config);
  if (!protocol.ok()) return false;
  out->protocol = std::make_unique<Protocol>(std::move(protocol).value());
  out->total_s = total.ElapsedSeconds();
  return true;
}

/// The per-fold seed the eval layer's sweeps hand to FoldRunner.
uint64_t FoldSeed(uint64_t seed, size_t fold) {
  return seed ^ (fold * 0x9E3779B9ULL);
}

/// The options FoldRunner derives from the ActiveIter-100 spec.
ActiveIterOptions ActiveOptions(uint64_t fold_seed) {
  const activeiter::MethodSpec spec = activeiter::ActiveIterSpec(kBudget);
  ActiveIterOptions o;
  o.base.c = spec.ridge_c;
  o.base.threshold = spec.threshold;
  o.base.selection = spec.selection;
  o.budget = spec.budget;
  o.batch_size = spec.batch_size;
  o.strategy = spec.strategy;
  o.closeness_threshold = spec.closeness_threshold;
  o.dominance_margin = spec.dominance_margin;
  o.fill_with_near_misses = spec.fill_with_near_misses;
  o.seed = fold_seed ^ 0xAC71ULL;
  return o;
}

/// The same job behind one public call, as the eval layer runs a fold.
struct FoldRunnerRun {
  bool ok = false;
  double wall_s = 0.0;
  size_t queries = 0;
  double f1 = 0.0;
};

FoldRunnerRun RunFoldRunner(const Setup& setup, size_t fold) {
  FoldRunnerRun job;
  Stopwatch wall;
  activeiter::FoldRunner runner(*setup.pair, setup.protocol->MakeFold(fold),
                                FoldSeed(setup.seed, fold));
  auto outcome = runner.Run(activeiter::ActiveIterSpec(kBudget));
  job.wall_s = wall.ElapsedSeconds();
  if (!outcome.ok()) return job;
  job.ok = true;
  job.queries = outcome.value().queries_used;
  job.f1 = outcome.value().metrics.F1();
  return job;
}

/// One job, spelled out call by call (see the file comment).
struct Job {
  bool ok = false;
  double wall_s = 0.0;
  size_t rows = 0;  // |H| of the fold
  double make_fold_s = 0.0;
  double extract_s = 0.0;
  double prepare_s = 0.0;
  double align_s = 0.0;
  double select_s = 0.0;
  uint64_t factorisations = 0;
  uint64_t rank_one_updates = 0;
  size_t rounds = 0;
  size_t inner_iterations = 0;
  size_t flips = 0;
  double f1 = 0.0;
  // Per answered query batch: from its answers being pinned to the end of
  // the Align that reflects them.
  std::vector<double> answer_to_model_ms;
  Vector y;
  Vector scores;
  Vector w;
  std::vector<QueryRecord> queries;
  // Kept for the checks after the clock stops.
  FoldData fold;
  activeiter::Matrix x;
  std::unique_ptr<activeiter::IncidenceIndex> index;
  std::vector<Pin> pins;
};

double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

std::unique_ptr<Job> RunJob(const Setup& setup, size_t fold_id,
                            CpuRotation* cpus) {
  using Clock = std::chrono::steady_clock;
  auto r = std::make_unique<Job>();
  const ActiveIterOptions options =
      ActiveOptions(FoldSeed(setup.seed, fold_id));
  const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
  const uint64_t rank1_before = CholeskyFactor::TotalRankOneUpdateCount();
  const Clock::time_point job_begin = Clock::now();

  cpus->Next();
  Clock::time_point t = Clock::now();
  r->fold = setup.protocol->MakeFold(fold_id);
  r->make_fold_s = Seconds(t);
  r->rows = r->fold.size();

  t = Clock::now();
  activeiter::FeatureExtractor extractor(*setup.pair, r->fold.train_anchors);
  r->x = extractor.Extract(r->fold.candidates);
  r->extract_s = Seconds(t);

  cpus->Next();
  t = Clock::now();
  r->index = std::make_unique<activeiter::IncidenceIndex>(
      *setup.pair, r->fold.candidates);
  r->pins.assign(r->fold.size(), Pin::kFree);
  for (size_t id : r->fold.train_pos) r->pins[id] = Pin::kPositive;
  AlignmentProblem problem{&r->x, r->index.get(), r->pins};
  auto session_or = problem.Prepare(options.base.c);
  r->prepare_s = Seconds(t);
  if (!session_or.ok()) return r;
  activeiter::AlignmentSession& session = session_or.value();

  // ActiveIterModel::Run's external loop, step for step.
  activeiter::IterAligner aligner(options.base);
  activeiter::ConflictQueryStrategy strategy(options.closeness_threshold,
                                             options.dominance_margin,
                                             options.fill_with_near_misses);
  activeiter::Rng rng(options.seed);
  activeiter::Oracle oracle(*setup.pair, options.budget);
  const size_t budget = std::min(options.budget, oracle.remaining_budget());
  bool answered = false;
  Clock::time_point pinned_at;
  for (;;) {
    cpus->Next();
    t = Clock::now();
    auto aligned = aligner.Align(session);
    r->align_s += Seconds(t);
    if (!aligned.ok()) return r;
    if (answered) r->answer_to_model_ms.push_back(Seconds(pinned_at) * 1e3);
    ++r->rounds;
    r->inner_iterations += aligned.value().trace.iterations();
    r->y = std::move(aligned.value().y);
    r->scores = std::move(aligned.value().scores);
    r->w = std::move(aligned.value().w);

    const size_t remaining = budget - r->queries.size();
    if (remaining == 0) break;
    activeiter::QueryContext ctx;
    ctx.scores = &r->scores;
    ctx.y = &r->y;
    ctx.index = &session.index();
    ctx.pinned = &session.pinned();
    t = Clock::now();
    const std::vector<size_t> batch = strategy.SelectQueries(
        ctx, std::min(options.batch_size, remaining), &rng);
    r->select_s += Seconds(t);
    if (batch.empty()) break;
    for (size_t link_id : batch) {
      const double label =
          oracle.QueryLink(session.index().candidates(), link_id);
      if ((label > 0.5) != (r->y(link_id) > 0.5)) ++r->flips;
      session.SetPin(link_id, label > 0.5 ? Pin::kPositive : Pin::kNegative);
      r->queries.push_back({link_id, label});
    }
    answered = true;
    pinned_at = Clock::now();
  }
  std::unordered_set<size_t> queried;
  for (const QueryRecord& q : r->queries) queried.insert(q.link_id);
  std::vector<size_t> eval_ids;
  for (size_t id : r->fold.test_ids) {
    if (queried.count(id) == 0) eval_ids.push_back(id);
  }
  r->f1 = activeiter::ComputeBinaryMetricsOn(r->fold.truth, r->y, eval_ids)
              .F1();
  r->wall_s = Seconds(job_begin);
  r->factorisations = CholeskyFactor::TotalFactorCount() - factors_before;
  r->rank_one_updates =
      CholeskyFactor::TotalRankOneUpdateCount() - rank1_before;
  r->ok = true;
  return r;
}

bool SameVector(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a(i), b(i))) return false;
  }
  return true;
}

/// After the clock: the job must equal FoldRunner::Run's F1 (bit for bit)
/// and query count, and ActiveIterModel::Run bitwise (labels, scores and
/// the query sequence).
void CheckJob(const Setup& setup, size_t fold, const Job& job,
              Report* report) {
  const std::string where = "pair seed " + std::to_string(setup.seed) +
                            " fold " + std::to_string(fold) + ": ";
  const FoldRunnerRun black_box = RunFoldRunner(setup, fold);
  if (!black_box.ok) {
    report->Fail(where + "FoldRunner::Run failed");
    return;
  }
  report->Check(SameBits(black_box.f1, job.f1) &&
                    black_box.queries == job.queries.size(),
                where + "F1 or query count differs from FoldRunner's");

  const ActiveIterOptions options = ActiveOptions(FoldSeed(setup.seed, fold));
  AlignmentProblem problem{&job.x, job.index.get(), job.pins};
  activeiter::Oracle oracle(*setup.pair, options.budget);
  auto reference = ActiveIterModel(options).Run(problem, &oracle);
  if (!reference.ok()) {
    report->Fail(where + "ActiveIterModel::Run failed");
    return;
  }
  const activeiter::ActiveIterResult& ref = reference.value();
  report->Check(SameVector(ref.y, job.y),
                where + "labels differ from ActiveIterModel::Run");
  report->Check(SameVector(ref.scores, job.scores),
                where + "scores differ from ActiveIterModel::Run");
  bool same_queries = ref.queries.size() == job.queries.size() &&
                      ref.rounds == job.rounds;
  for (size_t i = 0; same_queries && i < ref.queries.size(); ++i) {
    same_queries = ref.queries[i].link_id == job.queries[i].link_id &&
                   SameBits(ref.queries[i].label, job.queries[i].label);
  }
  report->Check(same_queries,
                where + "query sequence differs from ActiveIterModel::Run");
}

/// Publishes a job's alignment through an AlignmentService, the way a
/// trained model is served, and times kServedQueries TopKFor calls to
/// random users of the first network through the QueryBackend.
void QueryServedResult(const Setup& setup, const Job& r, uint64_t seed,
                       CpuRotation* cpus, NsHistogram* latency,
                       uint64_t* errors) {
  activeiter::AlignmentService service;
  service.Publish(std::make_shared<const activeiter::ModelSnapshot>(
      activeiter::BuildSnapshot(0, *r.index, r.scores, r.y, r.w)));
  const activeiter::QueryBackend& backend = service;
  const size_t users =
      setup.pair->first().NodeCount(activeiter::NodeType::kUser);
  activeiter::Rng rng(seed);
  for (size_t q = 0; q < kServedQueries; ++q) {
    if (q % (kServedQueries / kQueryStretches) == 0) {
      cpus->Next();
      // Untimed, to warm this CPU's caches; the timed calls are checked.
      for (size_t w = 0; w < kWarmupQueries; ++w) {
        const auto u = static_cast<activeiter::NodeId>(rng.UniformInt(users));
        (void)backend.TopKFor(u, kTopK);
      }
    }
    const auto u1 = static_cast<activeiter::NodeId>(rng.UniformInt(users));
    const auto begin = std::chrono::steady_clock::now();
    auto top = backend.TopKFor(u1, kTopK);
    const auto end = std::chrono::steady_clock::now();
    latency->Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
    if (!top.ok()) ++*errors;
  }
}

/// Closed loop of jobs until `seconds` elapsed and every pair ran once.
/// Each job's result is then served and queried, off the job clock.
struct Pass {
  std::vector<std::unique_ptr<Job>> jobs;
  /// Traced runs only: FoldRunner::Run on every job, for the cost of
  /// spelling a job out.
  std::vector<double> fold_runner_s;
  /// Per job: the p50 and p99 of its kServedQueries TopKFor calls (µs).
  std::vector<double> query_p50_us;
  std::vector<double> query_p99_us;
  uint64_t queries = 0;
  uint64_t query_errors = 0;
  double mean_f1 = 0.0;  // over the first kDatasets jobs
};

/// Jobs [keep_first, keep_last) keep their matrices for the checks after
/// the clock; the rest drop them at once.
Pass RunPass(const std::vector<Setup>& setups, double seconds,
             size_t keep_first, size_t keep_last, bool with_fold_runner,
             Report* report) {
  Pass pass;
  CpuRotation cpus;
  Stopwatch clock;
  NsHistogram latency;
  while (pass.jobs.size() < kDatasets || clock.ElapsedSeconds() < seconds) {
    const size_t i = pass.jobs.size();
    const Setup& setup = setups[i % kDatasets];
    const size_t fold = i % kFolds;
    const std::string where = "job " + std::to_string(i) + ": ";
    // Every job starts from a trimmed heap, so its timing does not depend
    // on how earlier jobs left the allocator.
    malloc_trim(0);
    std::unique_ptr<Job> job = RunJob(setup, fold, &cpus);
    ++report->attempted;
    if (!job->ok) {
      ++report->failed;
      report->Fail(where + "job failed");
    } else {
      latency = NsHistogram();
      QueryServedResult(setup, *job, setup.seed + i, &cpus, &latency,
                        &pass.query_errors);
      pass.queries += latency.count();
      pass.query_p50_us.push_back(latency.PercentileNs(0.5) / 1e3);
      pass.query_p99_us.push_back(latency.PercentileNs(0.99) / 1e3);
    }
    report->Check(job->queries.size() <= kBudget && job->rounds >= 1,
                  where + "query budget or round count out of range");
    if (with_fold_runner) {
      malloc_trim(0);
      const FoldRunnerRun black_box = RunFoldRunner(setup, fold);
      if (black_box.ok) pass.fold_runner_s.push_back(black_box.wall_s);
    }
    if (i < kDatasets) pass.mean_f1 += job->f1 / kDatasets;
    if (i < keep_first || i >= keep_last) {
      job->x = activeiter::Matrix();
      job->index.reset();
      job->fold = FoldData();
    }
    pass.jobs.push_back(std::move(job));
  }
  return pass;
}

std::vector<double> Collect(const Pass& pass, double (*field)(const Job&)) {
  std::vector<double> out;
  for (const auto& r : pass.jobs) {
    if (r->ok) out.push_back(field(*r));
  }
  return out;
}

}  // namespace

Report RunOffline(const RunOptions& options) {
  Report report;
  std::vector<Setup> setups(kDatasets);
  for (size_t d = 0; d < kDatasets; ++d) {
    if (!MakeSetup(DatasetSeed(options.seed, d), &setups[d])) {
      report.Fail("set-up failed");
      return report;
    }
  }

  const size_t first = options.trace ? 0 : options.seed % kDatasets;
  const size_t last = options.trace ? kTracedChecks : first + 1;
  const Pass pass =
      RunPass(setups, options.seconds, first, last, options.trace, &report);
  report.attempted += pass.queries;
  report.failed += pass.query_errors;
  report.Check(pass.query_errors == 0,
               std::to_string(pass.query_errors) + " queries failed");
  const double peak_rss = PeakRssMb();

  // Set-up is timed again once the process is warm (timed first thing in
  // the process, the same set-ups came out at a median of either ~5.5 or
  // ~8 ms from run to run, 4-vCPU VM), each on the next CPU.
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  {
    CpuRotation cpus;
    for (size_t d = 0; d < kSetupRounds * kDatasets; ++d) {
      cpus.Next();
      Setup again;
      if (!MakeSetup(DatasetSeed(options.seed, d % kDatasets), &again)) {
        report.Fail("set-up failed");
        return report;
      }
      setup_s.push_back(again.total_s);
      generate_ms.push_back(again.generate_s * 1e3);
    }
  }
  for (size_t i = first; i < last; ++i) {
    if (pass.jobs[i]->ok) {
      CheckJob(setups[i % kDatasets], i % kFolds, *pass.jobs[i], &report);
    }
  }

  const std::vector<double> wall_s =
      Collect(pass, [](const Job& r) { return r.wall_s; });
  const size_t n = wall_s.size();
  if (!options.trace) {
    size_t rows = 0;
    double busy_s = 0.0;
    std::vector<double> answer_ms;
    for (const auto& r : pass.jobs) {
      if (!r->ok) continue;
      rows += r->rows;
      busy_s += r->wall_s;
      answer_ms.insert(answer_ms.end(), r->answer_to_model_ms.begin(),
                       r->answer_to_model_ms.end());
    }
    const size_t nf = answer_ms.size();
    const size_t nq = pass.queries;
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("peak_rss_mb", peak_rss, "MB");
    report.Add("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "frac", report.attempted);
    report.Add("f1", pass.mean_f1, "frac", kDatasets);
    report.Add("job_s_p50", Median(wall_s), "s", n,
               PercentileResolved(n, 0.5));
    report.Add("freshness_ms_p50", Percentile(answer_ms, 0.5), "ms", nf,
               PercentileResolved(nf, 0.5));
    report.Add("freshness_ms_p90", Percentile(answer_ms, 0.9), "ms", nf,
               PercentileResolved(nf, 0.9));
    // Per job, then the median over jobs: a few jobs whose queries meet a
    // busy moment of the host do not move it.
    report.Add("query_us_p50", Median(pass.query_p50_us), "us", nq,
               PercentileResolved(kServedQueries, 0.5));
    report.Add("query_us_p99", Median(pass.query_p99_us), "us", nq,
               PercentileResolved(kServedQueries, 0.99));
    report.Add("ingest_rows_per_s", RowsPerSecond(rows, busy_s), "rows/s",
               n);
    return report;
  }
  const std::vector<double> coverage = Collect(pass, [](const Job& r) {
    return (r.extract_s + r.prepare_s + r.align_s + r.select_s) / r.wall_s;
  });
  report.Check(!coverage.empty() &&
                   *std::min_element(coverage.begin(), coverage.end()) >=
                       kMinJobCoverage,
               "traced stages cover less than 90% of a job's wall time");
  size_t rounds = 0, inner = 0, queries = 0, flips = 0;
  uint64_t rank_one = 0;
  for (size_t i = 0; i < kDatasets; ++i) {
    const Job& r = *pass.jobs[i];
    rounds += r.rounds;
    inner += r.inner_iterations;
    queries += r.queries.size();
    flips += r.flips;
    rank_one += r.rank_one_updates;
  }
  auto ms = [](double s) { return s * 1e3; };
  report.Add("datagen.generate_ms", Median(generate_ms), "ms",
             generate_ms.size());
  report.Add("eval.make_fold_ms",
             ms(Median(Collect(pass, [](const Job& r) {
               return r.make_fold_s;
             }))),
             "ms", n);
  report.Add("metadiagram.extract_ms",
             ms(Median(Collect(pass, [](const Job& r) {
               return r.extract_s;
             }))),
             "ms", n);
  report.Add("learn.prepare_ms",
             ms(Median(Collect(pass, [](const Job& r) {
               return r.prepare_s;
             }))),
             "ms", n);
  report.Add("align.iter_align_ms",
             ms(Median(Collect(pass, [](const Job& r) {
               return r.align_s;
             }))),
             "ms", n);
  report.Add("align.query_select_ms",
             ms(Median(Collect(pass, [](const Job& r) {
               return r.select_s;
             }))),
             "ms", n);
  // Exact counts over the first kDatasets jobs (the same jobs every run
  // with this seed).
  report.Add("align.inner_iterations", static_cast<double>(inner), "count");
  report.Add("align.rounds", static_cast<double>(rounds), "count");
  report.Add("align.queries_used", static_cast<double>(queries), "count");
  report.Add("align.query_flip_frac",
             queries == 0 ? 0.0
                          : static_cast<double>(flips) /
                                static_cast<double>(queries),
             "frac", queries);
  report.Add("linalg.cholesky.factorisations",
             Median(Collect(pass, [](const Job& r) {
               return static_cast<double>(r.factorisations);
             })),
             "count", n);
  report.Add("linalg.cholesky.rank_one_updates",
             static_cast<double>(rank_one), "count");
  report.Add("bench.job_coverage_frac", Median(coverage), "frac", n);
  // The cost of spelling a job out call by call with timers, against the
  // same job behind FoldRunner::Run.
  report.Add("obs.trace_overhead_frac",
             Median(wall_s) / Median(pass.fold_runner_s) - 1.0, "frac",
             pass.fold_runner_s.size());
  return report;
}

}  // namespace perfbench
