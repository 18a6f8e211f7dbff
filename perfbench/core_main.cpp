// perfbench_core — the in-process half of the repository benchmark.
//
// run.py builds this binary and calls it; each subcommand prints one JSON
// object (refsolve: one per input line) on stdout:
//
//   perfbench_core prove   --seed N --seconds S [--trace-out F] [--tiny]
//                          [--optimum-offset K]
//       prove_20x5: ta001–ta010 (relabelled unless N is one of their
//       published time seeds), each proved from the root by cpu-serial
//       and by cpu-steal (4 threads): all ten once (the hard five under a
//       0.5 s deadline), then the five timed ones from their optima in
//       passes under a 5 s safety cap, until 9/10 of S seconds are used.
//   perfbench_core offload --seed N --seconds S [--trace-out F] [--tiny]
//       offload_20x20: one 20x20 instance (ta021–ta030 for their published
//       seeds, else ta021 relabelled) under a fixed node budget through
//       cpu-threads, gpu-sim resident and gpu-sim dfs, repeated until S
//       seconds have passed.
//   perfbench_core refsolve
//       NDJSON on stdin: {"id", "ptm": [[job row]...] | "taillard":
//       [jobs, machines, seed], "node_budget"?, "perm"?, "solve"?};
//       answers with the in-process cpu-serial result (NEH start,
//       best-first, batch 1) and, when "perm" is given, its re-evaluated
//       makespan (fsp::makespan).
//
// --trace-out switches tracing on: spans go to that Chrome trace-event
// file and the TimedEvaluator decorator's counters join the output.
// Every check result is reported per operation ("ok", "why"); run.py
// turns them into the failed count.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/backend_registry.h"
#include "api/solver_config.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/search_control.h"
#include "fsp/instance.h"
#include "fsp/lb1.h"
#include "fsp/lb_data.h"
#include "fsp/makespan.h"
#include "fsp/neh.h"
#include "fsp/taillard.h"
#include "gpubb/gpu_evaluator.h"
#include "gpusim/device_spec.h"
#include "gpusim/kernel.h"
#include "timed_evaluator.h"
#include "trace.h"

namespace perfbench {
namespace {

using fsbb::fsp::JobId;
using fsbb::JsonWriter;
using fsbb::fsp::Time;
namespace api = fsbb::api;
namespace core = fsbb::core;
namespace fsp = fsbb::fsp;
namespace gpubb = fsbb::gpubb;
namespace gpusim = fsbb::gpusim;

/// Published optima of ta001–ta010 (Taillard 1993; all proven).
constexpr Time kOptimum20x5[10] = {1278, 1359, 1081, 1293, 1235,
                                   1195, 1234, 1206, 1230, 1108};

/// prove_20x5's timed instances: ta002, ta003, ta004, ta007 and ta009, the
/// published ones cpu-serial proves from the root in under a second.
constexpr bool kTimed[10] = {false, true,  true,  true,  false,
                             false, true,  false, true,  false};

/// Load cap: one process, at most this many worker threads (nproc here).
std::size_t thread_cap() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc == 0 ? 4 : hc, 1, 4);
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  fsbb::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.next();
}

/// The registry id of the published instance whose time seed is `seed`
/// within ids [first, first + 10), or 0.
int published_id(std::int64_t seed, int first) {
  for (const fsp::TaillardSpec& spec : fsp::taillard_registry()) {
    if (spec.id >= first && spec.id < first + 10 && spec.time_seed == seed) {
      return spec.id;
    }
  }
  return 0;
}

/// `inst` with its jobs renamed by a seeded permutation: job j of the
/// result is job perm[j] of `inst`. Every schedule's makespan carries
/// over, so the optimum does too.
fsp::Instance relabel(const fsp::Instance& inst, std::uint64_t seed,
                      const std::string& name) {
  std::vector<int> perm(static_cast<std::size_t>(inst.jobs()));
  std::iota(perm.begin(), perm.end(), 0);
  fsbb::SplitMix64 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next() % i]);
  }
  fsbb::Matrix<Time> pt(perm.size(), static_cast<std::size_t>(inst.machines()));
  for (std::size_t j = 0; j < perm.size(); ++j) {
    for (int k = 0; k < inst.machines(); ++k) {
      pt(j, static_cast<std::size_t>(k)) = inst.pt(perm[j], k);
    }
  }
  return fsp::Instance(name, std::move(pt));
}

/// FNV-1a over an instance's processing times: tells generated inputs apart.
std::uint64_t digest(const fsp::Instance& inst, std::uint64_t h) {
  for (int j = 0; j < inst.jobs(); ++j) {
    for (int k = 0; k < inst.machines(); ++k) {
      h = (h ^ static_cast<std::uint64_t>(inst.pt(j, k))) * 0x100000001b3ULL;
    }
  }
  return h;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

std::string json_reals(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) {
    std::ostringstream s;
    s.precision(9);
    s << v;
    items.push_back(s.str());
  }
  return json_array(items);
}

void write_stats(JsonWriter& o, const core::EngineStats& s) {
  o.integer("branched", s.branched);
  o.integer("generated", s.generated);
  o.integer("evaluated", s.evaluated);
  o.integer("pruned", s.pruned);
  o.integer("leaves", s.leaves);
  o.integer("ub_updates", s.ub_updates);
}

void write_counters(JsonWriter& o, const BoundCounters& c) {
  o.integer("bound_calls", c.calls);
  o.integer("bound_nodes", c.nodes);
  o.real("bound_busy_s", static_cast<double>(c.busy_ns) / 1e9);
}

/// The answer a solve gives: its best schedule, or the starting incumbent
/// when nothing beat it.
struct Answer {
  Time makespan = 0;
  std::vector<JobId> perm;
};

Answer answer_of(const core::SolveResult& r, const fsp::NehResult& start) {
  if (r.best_permutation.empty()) return {start.makespan, start.permutation};
  return {r.best_makespan, r.best_permutation};
}

/// Checks that `a` is a real schedule of `inst` with the claimed makespan.
std::string schedule_error(const fsp::Instance& inst, const Answer& a) {
  if (!fsp::is_valid_permutation(inst, a.perm)) return "invalid permutation";
  const Time ms = fsp::makespan(inst, a.perm);
  if (ms != a.makespan) {
    return "schedule re-evaluates to " + std::to_string(ms) +
           ", reported " + std::to_string(a.makespan);
  }
  return {};
}

/// Runs one set-up step inside a span, adding its wall time to `acc`.
template <typename Fn>
auto timed_step(Trace& trace, const char* name, const char* cat,
                const std::string& op, double& acc, Fn&& fn) {
  const ScopedSpan span(trace, name, cat, op);
  const std::int64_t t0 = now_ns();
  auto result = fn();
  acc += seconds_since(t0);
  return result;
}

/// Engine options exactly as api's EngineBackend builds them.
core::EngineOptions engine_options(core::SelectionStrategy strategy,
                                   std::size_t batch, Time initial_ub,
                                   std::uint64_t budget,
                                   core::SearchControl* control) {
  core::EngineOptions o;
  o.strategy = strategy;
  o.batch_size = batch;
  o.initial_ub = initial_ub;
  o.node_budget = budget;
  o.control = control;
  return o;
}

/// Times each Lb1BoundContext phase over recorded sibling batches of one
/// instance, and checks the replayed bounds against the ones the engine
/// received. Sums accumulate across instances.
struct ReplaySums {
  std::int64_t parent_ns = 0;
  std::int64_t child_ns = 0;
  std::uint64_t batches = 0;
  std::uint64_t children = 0;
  std::uint64_t mismatches = 0;
};

void replay(const fsp::Instance& inst, const fsp::LowerBoundData& data,
            const std::vector<RecordedBatch>& batches, ReplaySums& sums) {
  fsp::Lb1BoundContext ctx(inst, data);
  std::vector<Time> got;
  for (const RecordedBatch& b : batches) {
    got.resize(b.next_jobs.size());
    const std::int64_t t0 = now_ns();
    ctx.set_parent(b.prefix);
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < b.next_jobs.size(); ++i) {
      got[i] = ctx.bound_child(b.next_jobs[i]);
    }
    const std::int64_t t2 = now_ns();
    if (got != b.bounds) ++sums.mismatches;
    sums.parent_ns += t1 - t0;
    sums.child_ns += t2 - t1;
    sums.children += b.next_jobs.size();
    ++sums.batches;
  }
}

void write_replay(JsonWriter& o, const ReplaySums& r) {
  JsonWriter rep;
  rep.real("set_parent_ns", r.batches > 0 ? static_cast<double>(r.parent_ns) /
                                                static_cast<double>(r.batches)
                                          : 0.0);
  rep.real("ns_per_child", r.children > 0
                               ? static_cast<double>(r.child_ns) /
                                     static_cast<double>(r.children)
                               : 0.0);
  rep.integer("batches", r.batches);
  rep.integer("mismatches", r.mismatches);
  o.field("replay", rep.done());
}

/// Tracing overhead, measured in the traced run itself: the same
/// budgeted cpu-serial solve with a plain evaluator and with the
/// decorator recording into the trace, alternated, medians compared.
void write_trace_probe(JsonWriter& o, Trace& trace, const fsp::Instance& inst,
                       const fsp::LowerBoundData& data, Time ub,
                       std::uint64_t budget) {
  std::vector<double> plain, traced;
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool decorate : {false, true}) {
      const ScopedSpan span(trace, "probe solve", "probe", "probe");
      core::SerialCpuEvaluator inner(inst, data);
      TimedEvaluator timed(inner, trace, span.index(), "probe");
      core::BoundEvaluator& eval =
          decorate ? static_cast<core::BoundEvaluator&>(timed) : inner;
      core::BBEngine engine(
          inst, data, eval,
          engine_options(core::SelectionStrategy::kBestFirst, 1, ub, budget,
                         nullptr));
      const std::int64_t t0 = now_ns();
      engine.solve();
      (decorate ? traced : plain).push_back(seconds_since(t0));
    }
  }
  JsonWriter p;
  p.real("plain_s", median(plain));
  p.real("traced_s", median(traced));
  o.field("trace_probe", p.done());
}

// ------------------------------------------------------------ prove_20x5 --

struct ProveInstance {
  fsp::Instance inst;
  fsp::LowerBoundData data;
  fsp::NehResult neh;
  Time optimum = 0;   ///< the expected optimum the answers are checked against
  Time start_ub = 0;  ///< the solves' initial upper bound
};

int run_prove(const fsbb::CliArgs& args) {
  const std::int64_t seed = args.get_int_or("seed", 873654221);
  const double seconds = args.get_double_or("seconds", 30);
  const std::string trace_out = args.get_or("trace-out", "");
  const bool tiny = args.has("tiny");
  const Time offset = static_cast<Time>(args.get_int_or("optimum-offset", 0));
  const bool published = published_id(seed, 1) != 0;
  const int count = tiny ? 3 : 10;
  // The untimed instances get a short deadline, the timed ones a safety
  // cap that no solve of theirs comes near (the slowest seen, pass 1 on a
  // relabelled ta009, took 1.2 s); the solves get 9/10 of the run's time.
  const double deadline_s = 0.5;
  const double cap_s = 5.0;
  const double proof_seconds = 0.9 * seconds;
  const std::size_t threads = thread_cap();
  const char* kBackends[2] = {"cpu-serial", "cpu-steal"};

  Trace trace(!trace_out.empty());
  api::SolverConfig config;
  config.threads = threads;

  // Set-up: instance, LowerBoundData, NEH and backend construction per
  // instance and backend. It runs several times, before and after the
  // proofs, so its median does not hang on one moment of the run; the
  // proofs use the last repetition before them.
  std::vector<double> setup_s, lb_s, neh_s;
  std::vector<ProveInstance> suite;
  std::vector<api::SolverConfig> configs;
  std::vector<std::unique_ptr<core::SearchControl>> controls;
  std::vector<std::unique_ptr<api::Backend>> backends;
  // Pass 1 starts from min(NEH, published optimum + 1), so each solve must
  // find an optimal schedule and prove it; a proof pass starts from the
  // expected optimum, so it explores exactly the nodes whose bound is
  // below it, in any search order and under any job labels.
  const auto set_up = [&](bool proof) {
    ScopedSpan rep_span(trace, "setup", "api", "setup");
    backends.clear();  // before what they point into
    controls.clear();
    suite.clear();
    suite.reserve(count);  // stable addresses for the backend contexts
    configs.assign(2 * count, config);
    double t_inst = 0, t_lb = 0, t_neh = 0, t_backend = 0;
    for (int i = 0; i < count; ++i) {
      const std::string op = "ta00" + std::to_string(i + 1);
      std::int64_t t0 = now_ns();
      fsp::Instance base = fsp::taillard_instance(i + 1);
      fsp::Instance inst =
          published ? std::move(base)
                    : relabel(base, mix(seed, i + 1),
                              base.name() + "~" + std::to_string(seed));
      t_inst += seconds_since(t0);
      fsp::LowerBoundData data =
          timed_step(trace, "fsp.lb_data", "fsp", op, t_lb,
                     [&] { return fsp::LowerBoundData::build(inst); });
      fsp::NehResult neh = timed_step(trace, "fsp.neh", "fsp", op, t_neh,
                                      [&] { return fsp::neh(inst); });
      const Time start_ub =
          proof ? kOptimum20x5[i] + offset
                : std::min(neh.makespan, kOptimum20x5[i] + 1);
      suite.push_back({std::move(inst), std::move(data), std::move(neh),
                       kOptimum20x5[i] + offset, start_ub});
    }
    for (int i = 0; i < count; ++i) {
      for (int b = 0; b < 2; ++b) {
        const std::size_t k = static_cast<std::size_t>(2 * i + b);
        configs[k].backend = kBackends[b];
        configs[k].initial_ub = suite[i].start_ub;
      }
    }
    for (int i = 0; i < count; ++i) {
      for (int b = 0; b < 2; ++b) {
        const std::size_t k = static_cast<std::size_t>(2 * i + b);
        ScopedSpan s(trace, "api.backend_create", "api", kBackends[b]);
        const std::int64_t t0 = now_ns();
        controls.push_back(std::make_unique<core::SearchControl>());
        api::BackendContext ctx;
        ctx.instance = &suite[i].inst;
        ctx.data = &suite[i].data;
        ctx.config = &configs[k];
        ctx.control = controls.back().get();
        backends.push_back(
            api::BackendRegistry::global().create(kBackends[b], ctx));
        t_backend += seconds_since(t0);
      }
    }
    lb_s.push_back(t_lb);
    neh_s.push_back(t_neh);
    setup_s.push_back(t_inst + t_lb + t_neh + t_backend);
  };
  for (int rep = 0; rep < 8; ++rep) set_up(false);

  // The solves, in passes. Pass 1 runs every instance by each backend;
  // later passes (proof passes) run only the timed ones, until the time is
  // up: both backends in pass 2, then cpu-steal alone. A timed instance
  // (one of the five published ones cpu-serial proves in under a second)
  // runs under the safety cap, the others under the deadline.
  std::vector<std::string> ops;
  BoundCounters bound;
  ReplaySums replayed;
  int passes = 0;
  double timed_pass_s = 0;  // the last pass's time on timed instances
  const std::int64_t proofs_started = now_ns();
  std::vector<std::uint64_t> critical(count, 0);  // proof-pass branched
  while (passes < 2 ||
         seconds_since(proofs_started) + timed_pass_s <= proof_seconds) {
    ++passes;
    if (passes > 1) set_up(true);
    timed_pass_s = 0;
    for (int i = 0; i < count; ++i) {
      const ProveInstance& pi = suite[i];
      if (passes > 1 && !kTimed[i]) continue;
      const double limit_s = kTimed[i] ? cap_s : deadline_s;
      for (int b = 0; b < 2; ++b) {
        // cpu-serial proves once from the optimum, as the reference count.
        if (b == 0 && passes > 2) continue;
        const std::size_t k = static_cast<std::size_t>(2 * i + b);
        const std::string op = pi.inst.name() + "/" + kBackends[b];
        core::SolveResult result;
        double wall = 0;
        {
          // Proof passes get a layer of their own, so that the layer self
          // times cover pass 1 only, as the decorator's counters do.
          ScopedSpan span(trace, std::string("solve ") + kBackends[b],
                          passes > 1 ? "proof" : b == 0 ? "core" : "mtbb",
                          op);
          core::SearchControl& control = *controls[k];
          if (b == 0 && trace.enabled() && passes == 1) {
            // Traced cpu-serial: the registry's evaluator and engine
            // options, with the decorator in between.
            core::SerialCpuEvaluator inner(pi.inst, pi.data);
            TimedEvaluator timed(inner, trace, span.index(), "fsp", 200, 2000);
            core::BBEngine engine(
                pi.inst, pi.data, timed,
                engine_options(core::SelectionStrategy::kBestFirst, 1,
                               pi.start_ub, 0, &control));
            const std::int64_t t0 = now_ns();
            control.set_deadline_after(limit_s);
            result = engine.solve();
            wall = seconds_since(t0);
            bound.calls += timed.counters().calls;
            bound.nodes += timed.counters().nodes;
            bound.busy_ns += timed.counters().busy_ns;
            replay(pi.inst, pi.data, timed.recorded(), replayed);
          } else {
            const std::int64_t t0 = now_ns();
            control.set_deadline_after(limit_s);
            result = backends[k]->solve();
            wall = seconds_since(t0);
          }
        }
        if (kTimed[i]) timed_pass_s += wall;
        const Answer a = answer_of(result, pi.neh);
        const bool proven = result.proven_optimal &&
                            result.stop_reason == core::StopReason::kOptimal;
        std::string why;
        if (passes == 1) {
          why = schedule_error(pi.inst, a);
          if (why.empty() && proven && a.makespan != pi.optimum) {
            why = "proven makespan " + std::to_string(a.makespan) +
                  " != published optimum " + std::to_string(pi.optimum);
          }
          if (why.empty() && a.makespan < pi.optimum) {
            why = "incumbent " + std::to_string(a.makespan) +
                  " below the proven optimum " + std::to_string(pi.optimum);
          }
        } else if (!result.best_permutation.empty()) {
          why = schedule_error(pi.inst, a);
          if (why.empty()) {
            why = "proof pass found a schedule of " +
                  std::to_string(a.makespan) + ", below the optimum " +
                  std::to_string(pi.optimum);
          }
        } else if (proven) {
          // Both backends, in every proof pass, branch the same nodes.
          std::uint64_t& want = critical[static_cast<std::size_t>(i)];
          if (want == 0) want = result.stats.branched;
          if (result.stats.branched != want) {
            why = "proof branched " + std::to_string(result.stats.branched) +
                  " nodes, another proof of it " + std::to_string(want);
          }
        }
        JsonWriter o;
        o.str("instance", pi.inst.name());
        o.integer("pass", passes);
        o.boolean("timed", kTimed[i]);
        o.str("backend", kBackends[b]);
        o.integer("optimum", pi.optimum);
        o.integer("makespan", a.makespan);
        o.boolean("proven", proven);
        o.str("stop", core::to_string(result.stop_reason));
        o.real("wall_s", wall);
        write_stats(o, result.stats);
        if (result.steal) {
          o.integer("steal_attempts", result.steal->steal_attempts);
          o.integer("steal_successes", result.steal->steal_successes);
          o.integer("nodes_stolen", result.steal->nodes_stolen);
        }
        o.boolean("ok", why.empty());
        o.str("why", why);
        ops.push_back(o.done());
      }
    }
  }

  for (int rep = 0; rep < 7; ++rep) set_up(true);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ProveInstance& pi : suite) h = digest(pi.inst, h);
  JsonWriter out;
  out.str("workload", "prove_20x5");
  out.boolean("published", published);
  out.str("digest", std::to_string(h));
  out.real("deadline_s", deadline_s);
  out.real("cap_s", cap_s);
  out.integer("passes", passes);
  out.integer("threads", threads);
  out.field("setup_s", json_reals(setup_s));
  out.field("lb_data_s", json_reals(lb_s));
  out.field("neh_s", json_reals(neh_s));
  out.field("ops", json_array(ops));
  if (trace.enabled()) {
    write_counters(out, bound);
    write_replay(out, replayed);
    write_trace_probe(out, trace, suite.front().inst, suite.front().data,
                      suite.front().neh.makespan, tiny ? 2000 : 40000);
    trace.write(trace_out);
  }
  std::cout << out.done() << "\n";
  return 0;
}

// --------------------------------------------------------- offload_20x20 --

/// One budgeted pass member: how it is built and what it must equal.
struct OffloadSpec {
  const char* name;
  core::SelectionStrategy strategy;
  std::size_t batch;
  gpubb::GpuPoolMode mode;  ///< unused for cpu-threads
  bool gpu;
};

constexpr OffloadSpec kOffload[3] = {
    {"cpu-threads", core::SelectionStrategy::kBestFirst, 64,
     gpubb::GpuPoolMode::kResident, false},
    {"gpu-sim", core::SelectionStrategy::kBestFirst, 256,
     gpubb::GpuPoolMode::kResident, true},
    {"gpu-sim-dfs", core::SelectionStrategy::kDepthFirst, 256,
     gpubb::GpuPoolMode::kDfs, true},
};

/// The cpu-serial run each offload member's counters must equal: the same
/// strategy and batch (device DFS lanes equal depth-first batch 1).
core::SolveResult serial_reference(const fsp::Instance& inst,
                                   const fsp::LowerBoundData& data,
                                   const OffloadSpec& spec, Time ub,
                                   std::uint64_t budget) {
  core::SerialCpuEvaluator eval(inst, data);
  const std::size_t batch =
      spec.mode == gpubb::GpuPoolMode::kDfs && spec.gpu ? 1 : spec.batch;
  core::BBEngine engine(inst, data, eval,
                        engine_options(spec.strategy, batch, ub, budget,
                                       nullptr));
  return engine.solve();
}

std::string counters_error(const core::SolveResult& got,
                           const core::SolveResult& want) {
  const core::EngineStats& a = got.stats;
  const core::EngineStats& b = want.stats;
  if (a.branched != b.branched || a.generated != b.generated ||
      a.evaluated != b.evaluated || a.pruned != b.pruned ||
      a.leaves != b.leaves || a.ub_updates != b.ub_updates) {
    std::ostringstream s;
    s << "counters differ from cpu-serial: branched " << a.branched << "/"
      << b.branched << ", evaluated " << a.evaluated << "/" << b.evaluated
      << ", pruned " << a.pruned << "/" << b.pruned;
    return s.str();
  }
  if (got.best_makespan != want.best_makespan) {
    return "incumbent " + std::to_string(got.best_makespan) +
           " differs from cpu-serial's " + std::to_string(want.best_makespan);
  }
  return {};
}

/// One pass's set-up: LowerBoundData, NEH and the three backends (device
/// buffers, resident pools, host thread pools), each step timed.
struct OffloadSetup {
  fsp::LowerBoundData data;
  fsp::NehResult neh;
  std::vector<std::unique_ptr<gpusim::SimDevice>> devices;
  std::vector<std::unique_ptr<core::BoundEvaluator>> evals;
};

struct SetupTimes {
  std::vector<double> lb_s, neh_s, total_s;
};

std::unique_ptr<OffloadSetup> offload_setup(Trace& trace, const std::string& op,
                                            const fsp::Instance& inst,
                                            std::size_t threads,
                                            fsbb::ThreadPool& sim_pool,
                                            SetupTimes& times) {
  double t_lb = 0, t_neh = 0, t_backend = 0;
  fsp::LowerBoundData data =
      timed_step(trace, "fsp.lb_data", "fsp", op, t_lb,
                 [&] { return fsp::LowerBoundData::build(inst); });
  fsp::NehResult neh = timed_step(trace, "fsp.neh", "fsp", op, t_neh,
                                  [&] { return fsp::neh(inst); });
  auto setup = std::unique_ptr<OffloadSetup>(
      new OffloadSetup{std::move(data), std::move(neh), {}, {}});
  {
    const ScopedSpan span(trace, "api.backend_create", "api", op);
    const std::int64_t t0 = now_ns();
    for (const OffloadSpec& spec : kOffload) {
      if (!spec.gpu) {
        setup->devices.push_back(nullptr);
        setup->evals.push_back(std::make_unique<core::ThreadedCpuEvaluator>(
            inst, setup->data, threads));
        continue;
      }
      setup->devices.push_back(std::make_unique<gpusim::SimDevice>(
          gpusim::DeviceSpec::tesla_c2050(), &sim_pool));
      setup->evals.push_back(std::make_unique<gpubb::GpuBoundEvaluator>(
          *setup->devices.back(), inst, setup->data,
          gpubb::PlacementPolicy::kAuto, 0,
          gpusim::GpuCalibration::fermi_defaults(), spec.mode));
    }
    t_backend = seconds_since(t0);
  }
  times.lb_s.push_back(t_lb);
  times.neh_s.push_back(t_neh);
  times.total_s.push_back(t_lb + t_neh + t_backend);
  return setup;
}

int run_offload(const fsbb::CliArgs& args) {
  const std::int64_t seed = args.get_int_or("seed", 479340445);
  const double seconds = args.get_double_or("seconds", 30);
  const std::string trace_out = args.get_or("trace-out", "");
  const bool tiny = args.has("tiny");
  const std::uint64_t budget = tiny ? 300 : 6000;
  const std::size_t threads = thread_cap();
  const std::int64_t started = now_ns();

  Trace trace(!trace_out.empty());
  const int id = published_id(seed, 21);
  const fsp::Instance inst =
      id != 0 ? fsp::taillard_instance(id)
              : relabel(fsp::taillard_instance(21), mix(seed, 21),
                        "ta021~" + std::to_string(seed));
  // Benchmark-owned simulator pool: SimDevice's default is sized to
  // hardware_concurrency, which may exceed the load cap. One worker plus
  // the launching thread, which joins every parallel_for: each launch ends
  // in a barrier, and on a VM whose host steals vCPU time a two-thread
  // barrier kept gpu-sim's pass wall within +30% where four threads went
  // to +70%.
  fsbb::ThreadPool sim_pool(1);

  // References once per run (the counters are deterministic).
  std::vector<core::SolveResult> refs;
  {
    const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
    const Time ub = fsp::neh(inst).makespan;
    for (const OffloadSpec& spec : kOffload) {
      ScopedSpan s(trace, std::string("reference ") + spec.name, "reference",
                   "reference");
      refs.push_back(serial_reference(inst, data, spec, ub, budget));
    }
  }

  std::vector<std::string> ops;
  BoundCounters bound;  // cpu-threads only (the host bounding layer)
  // Set-up: six before the passes, each pass's own and six after them,
  // all reported, so the median covers set-ups on a fresh heap and on one
  // the solves' large arenas have churned.
  SetupTimes times;
  for (int rep = 0; rep < 6; ++rep) {
    offload_setup(trace, "setup", inst, threads, sim_pool, times);
  }
  int passes = 0;
  while (passes == 0 || (seconds_since(started) < seconds && passes < 200)) {
    ++passes;
    const std::string pass = "pass" + std::to_string(passes);
    const std::unique_ptr<OffloadSetup> setup =
        offload_setup(trace, pass, inst, threads, sim_pool, times);
    const fsp::LowerBoundData& data = setup->data;
    const fsp::NehResult& neh = setup->neh;
    const auto& evals = setup->evals;

    for (std::size_t b = 0; b < 3; ++b) {
      const OffloadSpec& spec = kOffload[b];
      const std::string op = pass + "/" + spec.name;
      core::SolveResult result;
      double wall = 0;
      {
        ScopedSpan span(trace, std::string("solve ") + spec.name,
                        spec.gpu ? "gpubb" : "core", op);
        std::optional<TimedEvaluator> timed;
        core::BoundEvaluator* eval = evals[b].get();
        if (trace.enabled()) {
          timed.emplace(*eval, trace, span.index(),
                        spec.gpu ? "gpusim" : "fsp");
          eval = &*timed;
        }
        core::BBEngine engine(inst, data, *eval,
                              engine_options(spec.strategy, spec.batch,
                                             neh.makespan, budget, nullptr));
        const std::int64_t ts = now_ns();
        result = engine.solve();
        wall = seconds_since(ts);
        if (timed && !spec.gpu) {
          bound.calls += timed->counters().calls;
          bound.nodes += timed->counters().nodes;
          bound.busy_ns += timed->counters().busy_ns;
        }
      }
      std::string why = counters_error(result, refs[b]);
      if (why.empty() && !result.best_permutation.empty()) {
        why = schedule_error(inst, {result.best_makespan,
                                    result.best_permutation});
      }
      JsonWriter o;
      o.str("backend", spec.name);
      o.real("wall_s", wall);
      write_stats(o, result.stats);
      if (spec.gpu) {
        const auto& g =
            static_cast<const gpubb::GpuBoundEvaluator&>(*evals[b]);
        const gpubb::GpuLedger& l = g.gpu_ledger();
        o.real("modeled_s", l.modeled_seconds());
        o.real("kernel_s", l.kernel_seconds);
        o.real("h2d_s", l.transfers.h2d_seconds);
        o.real("d2h_s", l.transfers.d2h_seconds);
        o.integer("h2d_bytes", l.transfers.h2d_bytes);
        o.integer("d2h_bytes", l.transfers.d2h_bytes);
        o.real("overhead_s", l.iteration_seconds);
        o.integer("launches", l.launches);
      }
      if (result.pool) {
        const core::ResidentPoolStats& p = *result.pool;
        std::uint64_t spills = 0, steals = 0;
        for (const core::ShardOccupancy& shard : p.shards) {
          spills += shard.spills;
          steals += shard.steals;
        }
        o.integer("pool_refills", p.refills);
        o.integer("pool_overflow", p.overflow);
        o.integer("pool_spills", spills);
        o.integer("pool_steals", steals);
      }
      o.boolean("ok", why.empty());
      o.str("why", why);
      ops.push_back(o.done());
    }
  }

  for (int rep = 0; rep < 6; ++rep) {
    offload_setup(trace, "setup", inst, threads, sim_pool, times);
  }

  JsonWriter out;
  out.str("workload", "offload_20x20");
  out.str("instance", inst.name());
  out.str("digest", std::to_string(digest(inst, 0xcbf29ce484222325ULL)));
  out.integer("node_budget", budget);
  out.integer("threads", threads);
  out.integer("passes", passes);
  out.field("setup_s", json_reals(times.total_s));
  out.field("lb_data_s", json_reals(times.lb_s));
  out.field("neh_s", json_reals(times.neh_s));
  out.field("ops", json_array(ops));
  if (trace.enabled()) {
    write_counters(out, bound);
    const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
    write_trace_probe(out, trace, inst, data, fsp::neh(inst).makespan,
                      tiny ? 300 : 3000);
    trace.write(trace_out);
  }
  std::cout << out.done() << "\n";
  return 0;
}

// ------------------------------------------------------------- refsolve --

fsp::Instance instance_from(const fsbb::JsonValue& req) {
  if (const fsbb::JsonValue* spec = req.find("taillard")) {
    const auto& a = spec->as_array();
    FSBB_CHECK_MSG(a.size() == 3, "\"taillard\" is [jobs, machines, seed]");
    return fsp::make_taillard_instance(
        static_cast<int>(a[0].as_int()), static_cast<int>(a[1].as_int()),
        static_cast<std::int32_t>(a[2].as_int()));
  }
  const fsbb::JsonValue* ptm = req.find("ptm");
  FSBB_CHECK_MSG(ptm != nullptr, "request needs \"ptm\" or \"taillard\"");
  const auto& rows = ptm->as_array();
  FSBB_CHECK_MSG(!rows.empty(), "\"ptm\" needs >= 1 job row");
  const std::size_t machines = rows.front().as_array().size();
  fsbb::Matrix<Time> pt(rows.size(), machines);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto& row = rows[j].as_array();
    FSBB_CHECK_MSG(row.size() == machines, "ragged \"ptm\"");
    for (std::size_t k = 0; k < machines; ++k) {
      pt(j, k) = static_cast<Time>(row[k].as_int());
    }
  }
  return fsp::Instance("ref", std::move(pt));
}

int run_refsolve() {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    JsonWriter o;
    try {
      const fsbb::JsonValue req = fsbb::JsonValue::parse(line);
      o.str("id", req.string_or("id", ""));
      const fsp::Instance inst = instance_from(req);
      if (const fsbb::JsonValue* perm = req.find("perm")) {
        std::vector<JobId> p;
        for (const auto& v : perm->as_array()) {
          p.push_back(static_cast<JobId>(v.as_int()));
        }
        const bool valid = fsp::is_valid_permutation(inst, p);
        o.boolean("perm_valid", valid);
        o.integer("perm_makespan", valid ? fsp::makespan(inst, p) : 0);
      }
      if (req.bool_or("solve", true)) {
        // cpu-serial as the registry builds it, called directly (the
        // service round trip would dominate these millisecond solves).
        const std::int64_t t0 = now_ns();
        const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
        const fsp::NehResult neh = fsp::neh(inst);
        core::SerialCpuEvaluator eval(inst, data);
        core::BBEngine engine(
            inst, data, eval,
            engine_options(core::SelectionStrategy::kBestFirst, 1,
                           neh.makespan,
                           static_cast<std::uint64_t>(
                               req.int_or("node_budget", 0)),
                           nullptr));
        const core::SolveResult r = engine.solve();
        o.real("wall_s", seconds_since(t0));
        o.integer("makespan", answer_of(r, neh).makespan);
        o.boolean("proven", r.proven_optimal &&
                                r.stop_reason == core::StopReason::kOptimal);
        o.integer("branched", r.stats.branched);
        o.integer("evaluated", r.stats.evaluated);
      }
      o.str("error", "");
    } catch (const std::exception& e) {
      o.str("error", e.what());
    }
    std::cout << o.done() << "\n";
  }
  std::cout << std::flush;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_core prove|offload|refsolve [flags]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "refsolve") return perfbench::run_refsolve();
    const fsbb::CliArgs args = fsbb::CliArgs::parse(
        argc - 1, argv + 1,
        {"seed", "seconds", "trace-out", "optimum-offset"}, {"tiny"});
    if (cmd == "prove") return perfbench::run_prove(args);
    if (cmd == "offload") return perfbench::run_offload(args);
    std::cerr << "unknown subcommand " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_core " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
