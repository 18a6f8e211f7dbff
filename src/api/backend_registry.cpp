#include "api/backend_registry.h"

#include <initializer_list>
#include <utility>

#include "common/check.h"
#include "fsp/lb1.h"
#include "fsp/lb2.h"
#include "fsp/lb_one_machine.h"
#include "gpubb/adaptive_evaluator.h"
#include "gpubb/autotuner.h"
#include "gpubb/gpu_evaluator.h"
#include "gpubb/multi_device_pool.h"
#include "gpusim/kernel.h"
#include "mtbb/steal_engine.h"

namespace fsbb::api {
namespace {

// Engine batch size each backend uses when config.batch_size == 0. The
// serial modes bound node-by-node (the classic B&B); the parallel modes
// accumulate a pool, the paper's Type-1 offload shape.
std::size_t default_batch(const std::string& key) {
  if (key == "cpu-threads") return 64;
  if (key == "gpu-sim" || key == "adaptive") return 256;
  return 1;
}

// Under LB1, cpu-serial and cpu-threads branch at both ends of the
// permutation (cpu-steal does so by itself whenever it bounds with LB1);
// callback, the device pools and LB0/LB2 keep forward branching (the
// device lanes and the LB2 context are prefix-only).
core::Branching branching_for(const std::string& key, Bound bound) {
  const bool host = key == "cpu-serial" || key == "cpu-threads";
  return host && bound == Bound::kLb1 ? core::Branching::kBidirectional
                                      : core::Branching::kForward;
}

// The explicit reject-or-run decision per (backend, bound) combination:
// every parallel backend names exactly the bounds it implements, and a
// rejected combo says what was asked, what the backend supports, and
// which backends do support the requested bound — no silent fallbacks.
void require_bound(const BackendContext& ctx, const std::string& key,
                   std::initializer_list<Bound> supported) {
  const Bound want = ctx.config->bound;
  for (const Bound b : supported) {
    if (b == want) return;
  }
  std::string have;
  for (const Bound b : supported) {
    if (!have.empty()) have += "|";
    have += to_string(b);
  }
  std::string alternatives = "cpu-serial or callback";
  if (want == Bound::kLb2) {
    alternatives += " or cpu-threads/cpu-steal";
  }
  FSBB_CHECK_MSG(false, "backend '" + key + "' supports --bound " + have +
                            " but got " + std::string(to_string(want)) +
                            "; use " + alternatives + " for " +
                            std::string(to_string(want)));
}

// Serial evaluator for the configured bound. LB1 and LB2 get the
// scratch-reusing sibling fast path (the evaluator owns the lb2 tables);
// LB0 goes through the callback seam.
std::unique_ptr<core::BoundEvaluator> make_serial_evaluator(
    const BackendContext& ctx) {
  const fsp::Instance& inst = *ctx.instance;
  const fsp::LowerBoundData& data = *ctx.data;
  switch (ctx.config->bound) {
    case Bound::kLb1:
      return std::make_unique<core::SerialCpuEvaluator>(inst, data);
    case Bound::kLb0: {
      // CallbackEvaluator evaluates serially, so one scratch per
      // evaluator (captured by the closure) removes the per-node
      // allocations of the convenience overload.
      auto scratch = std::make_shared<fsp::Lb1Scratch>(inst.jobs(),
                                                       inst.machines());
      return std::make_unique<core::CallbackEvaluator>(
          "lb0-serial", [&inst, &data, scratch](const core::Subproblem& sp) {
            return fsp::lb0_from_prefix(inst, data, sp.prefix(), *scratch);
          });
    }
    case Bound::kLb2:
      return std::make_unique<core::SerialCpuEvaluator>(
          inst, data, fsp::Lb2Data::build(inst));
  }
  FSBB_CHECK_MSG(false, "unreachable bound");
  return nullptr;
}

/// Backend driving the shared BBEngine with an owned BoundEvaluator.
class EngineBackend final : public Backend {
 public:
  EngineBackend(std::string key, const BackendContext& ctx,
                std::unique_ptr<gpusim::SimDevice> device,
                std::unique_ptr<core::BoundEvaluator> evaluator)
      : key_(std::move(key)),
        ctx_(ctx),
        device_(std::move(device)),
        evaluator_(std::move(evaluator)) {}

  std::string name() const override { return key_; }
  std::string detail() const override { return evaluator_->name(); }

  core::SolveResult solve() override {
    core::BBEngine engine(*ctx_.instance, *ctx_.data, *evaluator_, options());
    return engine.solve();
  }

  core::SolveResult solve_from(std::vector<core::Subproblem> initial,
                               fsp::Time initial_ub) override {
    core::BBEngine engine(*ctx_.instance, *ctx_.data, *evaluator_, options());
    return engine.solve_from(std::move(initial), initial_ub);
  }

  const core::EvalLedger* eval_ledger() const override {
    return &evaluator_->ledger();
  }

  bool collects_remaining_pool() const override { return true; }

 private:
  core::EngineOptions options() const {
    const SolverConfig& c = *ctx_.config;
    core::EngineOptions o;
    o.strategy = c.strategy;
    o.batch_size = c.batch_size != 0 ? c.batch_size : default_batch(key_);
    o.initial_ub = c.initial_ub;
    o.node_budget = c.node_budget;
    o.collect_pool_on_stop = ctx_.collect_pool_on_stop;
    o.control = ctx_.control;
    o.branching = branching_for(key_, c.bound);
    return o;
  }

  std::string key_;
  BackendContext ctx_;
  std::unique_ptr<gpusim::SimDevice> device_;  // referenced by evaluator_
  std::unique_ptr<core::BoundEvaluator> evaluator_;
};

mtbb::MtOptions mt_options(const BackendContext& ctx) {
  mtbb::MtOptions o;
  o.threads = ctx.config->threads;
  o.bound = ctx.config->bound == Bound::kLb2 ? mtbb::MtBound::kLb2
                                             : mtbb::MtBound::kLb1;
  o.initial_ub = ctx.config->initial_ub;
  o.node_budget = ctx.config->node_budget;
  o.control = ctx.control;
  return o;
}

/// The sharded-pool work-stealing engine (mtbb/steal_engine.h).
class StealBackend final : public Backend {
 public:
  explicit StealBackend(const BackendContext& ctx) : ctx_(ctx) {}

  std::string name() const override { return "cpu-steal"; }

  core::SolveResult solve() override {
    return mtbb::steal_solve(*ctx_.instance, *ctx_.data, mt_options(ctx_));
  }

  core::SolveResult solve_from(std::vector<core::Subproblem> initial,
                               fsp::Time initial_ub) override {
    return mtbb::steal_solve_from(*ctx_.instance, *ctx_.data,
                                  std::move(initial), initial_ub,
                                  mt_options(ctx_));
  }

 private:
  BackendContext ctx_;
};

/// --gpu-pool / --gpu-devices resolved to one (spec, mode) pair per card.
/// "auto" runs the analytic autotuner probe per device — heterogeneous
/// cards may genuinely pick different modes — except that dfs is
/// all-or-nothing across cards (the SubtreeDfs seam cannot mix with
/// per-level lanes), so a split dfs vote falls back to resident. The
/// resolved modes are echoed through the evaluator's name() in reports,
/// and re-resolving the same config picks the same modes, so "auto" runs
/// stay reproducible.
struct GpuSetup {
  std::vector<gpusim::DeviceSpec> specs;
  std::vector<gpubb::GpuPoolMode> modes;
};

GpuSetup resolve_gpu_setup(const BackendContext& ctx) {
  GpuSetup setup;
  setup.specs = multi_device_specs(*ctx.config);
  if (ctx.config->gpu_pool != gpubb::GpuPoolMode::kAuto) {
    setup.modes.assign(setup.specs.size(), ctx.config->gpu_pool);
    return setup;
  }
  const bool allow_dfs =
      ctx.config->strategy == core::SelectionStrategy::kDepthFirst;
  std::size_t dfs_votes = 0;
  for (const gpusim::DeviceSpec& spec : setup.specs) {
    const gpubb::PoolModeChoice choice = gpubb::choose_pool_mode(
        spec, *ctx.data, ctx.config->placement, allow_dfs,
        ctx.config->block_threads);
    setup.modes.push_back(choice.mode);
    if (choice.mode == gpubb::GpuPoolMode::kDfs) ++dfs_votes;
  }
  if (dfs_votes != 0 && dfs_votes != setup.modes.size()) {
    for (gpubb::GpuPoolMode& mode : setup.modes) {
      if (mode == gpubb::GpuPoolMode::kDfs) mode = gpubb::GpuPoolMode::kResident;
    }
  }
  return setup;
}

gpubb::MultiDeviceConfig multi_device_config(const BackendContext& ctx,
                                             GpuSetup setup) {
  gpubb::MultiDeviceConfig mdc;
  mdc.specs = std::move(setup.specs);
  mdc.modes = std::move(setup.modes);
  mdc.policy = ctx.config->placement;
  mdc.block_threads = ctx.config->block_threads;
  mdc.control = ctx.control;  // cross-card incumbent broadcast target
  return mdc;
}

void check_context(const BackendContext& ctx) {
  FSBB_CHECK_MSG(ctx.instance && ctx.data && ctx.config,
                 "BackendContext must carry instance, data and config");
}

void register_builtins(BackendRegistry& r) {
  r.add("cpu-serial",
        "serial host bounding (lb0/lb1/lb2 per --bound; lb1 branches at "
        "both ends); the reference",
        [](const BackendContext& ctx) -> std::unique_ptr<Backend> {
          return std::make_unique<EngineBackend>("cpu-serial", ctx, nullptr,
                                                 make_serial_evaluator(ctx));
        });
  r.add("callback",
        "serial callback evaluator around the configured bound; the "
        "template for plugging in new bounds",
        [](const BackendContext& ctx) -> std::unique_ptr<Backend> {
          const fsp::Instance& inst = *ctx.instance;
          const fsp::LowerBoundData& data = *ctx.data;
          std::unique_ptr<core::BoundEvaluator> eval;
          if (ctx.config->bound == Bound::kLb1) {
            eval = std::make_unique<core::CallbackEvaluator>(
                "lb1-callback", [&inst, &data](const core::Subproblem& sp) {
                  return fsp::lb1_from_prefix(inst, data, sp.prefix());
                });
          } else if (ctx.config->bound == Bound::kLb2) {
            // Stays a genuine per-node replay (no sibling seam): the
            // differential-fuzz suite uses this backend as the replay
            // reference against the incremental contexts.
            auto lb2 = std::make_shared<fsp::Lb2Data>(fsp::Lb2Data::build(inst));
            auto scratch = std::make_shared<fsp::Lb2Scratch>(inst.jobs(),
                                                             inst.machines());
            eval = std::make_unique<core::CallbackEvaluator>(
                "lb2-callback",
                [&inst, &data, lb2, scratch](const core::Subproblem& sp) {
                  return fsp::lb2_from_prefix(inst, data, *lb2, sp.prefix(),
                                              *scratch);
                });
          } else {
            eval = make_serial_evaluator(ctx);
          }
          return std::make_unique<EngineBackend>("callback", ctx, nullptr,
                                                 std::move(eval));
        });
  r.add("cpu-threads",
        "lb1/lb2 fanned over a host thread pool (--threads; lb1 branches "
        "at both ends); Type-1 parallelism",
        [](const BackendContext& ctx) -> std::unique_ptr<Backend> {
          require_bound(ctx, "cpu-threads", {Bound::kLb1, Bound::kLb2});
          auto eval =
              ctx.config->bound == Bound::kLb2
                  ? std::make_unique<core::ThreadedCpuEvaluator>(
                        *ctx.instance, *ctx.data,
                        fsp::Lb2Data::build(*ctx.instance),
                        ctx.config->threads)
                  : std::make_unique<core::ThreadedCpuEvaluator>(
                        *ctx.instance, *ctx.data, ctx.config->threads);
          return std::make_unique<EngineBackend>("cpu-threads", ctx, nullptr,
                                                 std::move(eval));
        });
  r.add("gpu-sim",
        "hybrid CPU + simulated-GPU B&B (the paper's contribution); "
        "--device, --gpu-devices, --placement, --block-threads, --gpu-pool "
        "(incl. auto) apply",
        [](const BackendContext& ctx) -> std::unique_ptr<Backend> {
          require_bound(ctx, "gpu-sim", {Bound::kLb1});
          GpuSetup setup = resolve_gpu_setup(ctx);
          if (setup.specs.size() == 1) {
            auto device =
                std::make_unique<gpusim::SimDevice>(setup.specs.front());
            auto eval = std::make_unique<gpubb::GpuBoundEvaluator>(
                *device, *ctx.instance, *ctx.data, ctx.config->placement,
                ctx.config->block_threads,
                gpusim::GpuCalibration::fermi_defaults(),
                setup.modes.front());
            return std::make_unique<EngineBackend>(
                "gpu-sim", ctx, std::move(device), std::move(eval));
          }
          auto eval = std::make_unique<gpubb::MultiDevicePool>(
              *ctx.instance, *ctx.data,
              multi_device_config(ctx, std::move(setup)));
          return std::make_unique<EngineBackend>("gpu-sim", ctx, nullptr,
                                                 std::move(eval));
        });
  r.add("adaptive",
        "concurrent host threads + simulated GPU(s) split at the modeled "
        "break-even pool size (§VI outlook); --gpu-pool, --gpu-devices "
        "apply",
        [](const BackendContext& ctx) -> std::unique_ptr<Backend> {
          require_bound(ctx, "adaptive", {Bound::kLb1});
          GpuSetup setup = resolve_gpu_setup(ctx);
          if (setup.specs.size() == 1) {
            auto device =
                std::make_unique<gpusim::SimDevice>(setup.specs.front());
            auto eval = std::make_unique<gpubb::AdaptiveEvaluator>(
                *device, *ctx.instance, *ctx.data, ctx.config->placement,
                ctx.config->threads, /*threshold=*/0, setup.modes.front());
            return std::make_unique<EngineBackend>(
                "adaptive", ctx, std::move(device), std::move(eval));
          }
          auto eval = std::make_unique<gpubb::AdaptiveEvaluator>(
              *ctx.instance, *ctx.data,
              multi_device_config(ctx, std::move(setup)),
              ctx.config->threads, /*threshold=*/0);
          return std::make_unique<EngineBackend>("adaptive", ctx, nullptr,
                                                 std::move(eval));
        });
  r.add("cpu-steal",
        "work-stealing sharded-pool B&B over --threads workers (one "
        "deque each, round-robin oldest-first steals; lb1 or lb2 per "
        "--bound, lb1 branches at both ends); strategy/batch do not apply",
        [](const BackendContext& ctx) -> std::unique_ptr<Backend> {
          require_bound(ctx, "cpu-steal", {Bound::kLb1, Bound::kLb2});
          return std::make_unique<StealBackend>(ctx);
        });
}

}  // namespace

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void BackendRegistry::add(std::string key, std::string description,
                          Factory factory) {
  FSBB_CHECK_MSG(!key.empty(), "backend key must not be empty");
  FSBB_CHECK_MSG(factory != nullptr, "backend factory must not be null");
  const LockGuard lock(mu_);
  const bool inserted =
      entries_
          .emplace(std::move(key),
                   Entry{std::move(description), std::move(factory)})
          .second;
  FSBB_CHECK_MSG(inserted, "backend key already registered");
}

bool BackendRegistry::contains(const std::string& key) const {
  const LockGuard lock(mu_);
  return entries_.count(key) != 0;
}

std::vector<std::string> BackendRegistry::keys() const {
  const LockGuard lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;  // std::map iteration order: already sorted
}

std::string BackendRegistry::description(const std::string& key) const {
  const LockGuard lock(mu_);
  const auto it = entries_.find(key);
  FSBB_CHECK_MSG(it != entries_.end(), "unknown backend '" + key + "'");
  return it->second.description;
}

void BackendRegistry::require(const std::string& key) const {
  const LockGuard lock(mu_);
  if (entries_.count(key) != 0) return;
  std::string known;
  for (const auto& [k, entry] : entries_) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  FSBB_CHECK_MSG(false,
                 "unknown backend '" + key + "' (registered: " + known + ")");
}

std::unique_ptr<Backend> BackendRegistry::create(
    const std::string& key, const BackendContext& ctx) const {
  check_context(ctx);
  require(key);
  Factory factory;
  {
    const LockGuard lock(mu_);
    factory = entries_.at(key).factory;
  }
  std::unique_ptr<Backend> backend = factory(ctx);
  FSBB_CHECK_MSG(backend != nullptr, "backend factory returned null");
  return backend;
}

}  // namespace fsbb::api
