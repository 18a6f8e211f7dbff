#include "api/solver_config.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "fsp/taillard.h"

namespace fsbb::api {

const char* to_string(Bound b) {
  switch (b) {
    case Bound::kLb0:
      return "lb0";
    case Bound::kLb1:
      return "lb1";
    case Bound::kLb2:
      return "lb2";
  }
  return "?";
}

Bound parse_bound(const std::string& text) {
  if (text == "lb0") return Bound::kLb0;
  if (text == "lb1") return Bound::kLb1;
  if (text == "lb2") return Bound::kLb2;
  FSBB_CHECK_MSG(false, "unknown bound '" + text + "' (lb0|lb1|lb2)");
  return Bound::kLb1;
}

core::SelectionStrategy parse_strategy(const std::string& text) {
  if (text == "best-first") return core::SelectionStrategy::kBestFirst;
  if (text == "depth-first") return core::SelectionStrategy::kDepthFirst;
  FSBB_CHECK_MSG(false,
                 "unknown strategy '" + text + "' (best-first|depth-first)");
  return core::SelectionStrategy::kBestFirst;
}

gpubb::PlacementPolicy parse_placement(const std::string& text) {
  using gpubb::PlacementPolicy;
  for (const PlacementPolicy p :
       {PlacementPolicy::kAllGlobal, PlacementPolicy::kSharedJmPtm,
        PlacementPolicy::kSharedJm, PlacementPolicy::kSharedPtm,
        PlacementPolicy::kAuto}) {
    if (text == gpubb::to_string(p)) return p;
  }
  FSBB_CHECK_MSG(false, "unknown placement '" + text +
                            "' (all-global|shared-JM+PTM|shared-JM|"
                            "shared-PTM|auto-greedy)");
  return PlacementPolicy::kAuto;
}

std::vector<fsp::Instance> make_instances(const InstanceSpec& spec) {
  std::vector<fsp::Instance> out;
  if (spec.ta_id > 0) {
    out.push_back(fsp::taillard_instance(spec.ta_id));
    return out;
  }
  FSBB_CHECK_MSG(spec.count >= 1, "instance count must be >= 1");
  out.reserve(static_cast<std::size_t>(spec.count));
  for (int i = 0; i < spec.count; ++i) {
    const auto seed = static_cast<std::int32_t>(spec.seed + i);
    std::ostringstream name;
    name << "ta-like-" << spec.jobs << "x" << spec.machines << "-s" << seed;
    out.push_back(fsp::make_taillard_instance(spec.jobs, spec.machines, seed,
                                              name.str()));
  }
  return out;
}

namespace {

// Non-negative numeric flag; rejects negatives before the unsigned cast
// (a raw cast would wrap -1 to SIZE_MAX and sail past validate()).
std::size_t get_count_flag(const CliArgs& args, const std::string& name,
                           std::size_t fallback) {
  const std::int64_t v =
      args.get_int_or(name, static_cast<std::int64_t>(fallback));
  FSBB_CHECK_MSG(v >= 0, "flag --" + name + " must be >= 0");
  return static_cast<std::size_t>(v);
}

}  // namespace

const std::vector<std::string>& SolverConfig::cli_flags() {
  static const std::vector<std::string> kFlags = {
      "backend",    "bound",         "strategy",   "batch",
      "threads",    "batch-workers", "block-threads", "placement",
      "device",     "ub",            "node-budget",
      "ta",         "jobs",          "machines",      "seed",
      "count",      "deadline-ms",   "progress-interval-ms",
      "gpu-pool",   "tenant",        "priority",      "gpu-devices",
  };
  return kFlags;
}

SolverConfig SolverConfig::from_cli(const CliArgs& args) {
  SolverConfig c;
  c.backend = args.get_or("backend", c.backend);
  if (const auto v = args.get("bound")) c.bound = parse_bound(*v);
  if (const auto v = args.get("strategy")) c.strategy = parse_strategy(*v);
  c.batch_size = get_count_flag(args, "batch", c.batch_size);
  c.threads = get_count_flag(args, "threads", c.threads);
  c.batch_workers = get_count_flag(args, "batch-workers", c.batch_workers);
  // Saturate rather than wrap, so validate() rejects oversized values.
  c.block_threads = static_cast<int>(std::min<std::size_t>(
      get_count_flag(args, "block-threads",
                     static_cast<std::size_t>(c.block_threads)),
      std::numeric_limits<int>::max()));
  if (const auto v = args.get("placement")) c.placement = parse_placement(*v);
  if (const auto v = args.get("gpu-pool")) {
    c.gpu_pool = gpubb::parse_gpu_pool_mode(*v);
  }
  c.device = args.get_or("device", c.device);
  c.gpu_devices = args.get_or("gpu-devices", c.gpu_devices);
  if (args.has("ub")) {
    c.initial_ub = static_cast<fsp::Time>(args.get_int_or("ub", 0));
  }
  c.node_budget =
      static_cast<std::uint64_t>(get_count_flag(args, "node-budget",
                                                static_cast<std::size_t>(c.node_budget)));
  if (args.has("deadline-ms")) {
    c.deadline_ms = get_count_flag(args, "deadline-ms", 0);
  }
  c.progress_interval_ms =
      get_count_flag(args, "progress-interval-ms", c.progress_interval_ms);
  c.tenant = args.get_or("tenant", c.tenant);
  c.priority = args.get_or("priority", c.priority);
  c.instance.ta_id = static_cast<int>(args.get_int_or("ta", c.instance.ta_id));
  c.instance.jobs = static_cast<int>(args.get_int_or("jobs", c.instance.jobs));
  c.instance.machines =
      static_cast<int>(args.get_int_or("machines", c.instance.machines));
  c.instance.seed = static_cast<std::int32_t>(
      args.get_int_or("seed", c.instance.seed));
  c.instance.count =
      static_cast<int>(args.get_int_or("count", c.instance.count));
  c.validate();
  return c;
}

SolverConfig SolverConfig::from_argv(
    int argc, const char* const* argv,
    const std::vector<std::string>& extra_flags) {
  std::vector<std::string> known = cli_flags();
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  return from_cli(CliArgs::parse(argc, argv, known));
}

std::vector<std::string> SolverConfig::to_cli() const {
  std::vector<std::string> out;
  const auto flag = [&out](const std::string& name, const std::string& value) {
    out.push_back("--" + name + "=" + value);
  };
  flag("backend", backend);
  flag("bound", to_string(bound));
  flag("strategy", core::to_string(strategy));
  flag("batch", std::to_string(batch_size));
  flag("threads", std::to_string(threads));
  flag("batch-workers", std::to_string(batch_workers));
  flag("block-threads", std::to_string(block_threads));
  flag("placement", gpubb::to_string(placement));
  flag("gpu-pool", gpubb::to_string(gpu_pool));
  flag("device", device);
  flag("gpu-devices", gpu_devices);
  if (initial_ub) flag("ub", std::to_string(*initial_ub));
  flag("node-budget", std::to_string(node_budget));
  if (deadline_ms) flag("deadline-ms", std::to_string(*deadline_ms));
  flag("progress-interval-ms", std::to_string(progress_interval_ms));
  flag("tenant", tenant);
  flag("priority", priority);
  flag("ta", std::to_string(instance.ta_id));
  flag("jobs", std::to_string(instance.jobs));
  flag("machines", std::to_string(instance.machines));
  flag("seed", std::to_string(instance.seed));
  flag("count", std::to_string(instance.count));
  return out;
}

void SolverConfig::validate() const {
  FSBB_CHECK_MSG(!backend.empty(), "backend key must not be empty");
  const std::string max_workers = std::to_string(kMaxWorkerThreads);
  FSBB_CHECK_MSG(threads >= 1 && threads <= kMaxWorkerThreads,
                 "--threads must be in [1, " + max_workers + "], got " +
                     std::to_string(threads));
  FSBB_CHECK_MSG(batch_workers <= kMaxWorkerThreads,
                 "--batch-workers must be in [0, " + max_workers + "], got " +
                     std::to_string(batch_workers));
  FSBB_CHECK_MSG(!tenant.empty(), "tenant must not be empty");
  FSBB_CHECK_MSG(
      priority == "high" || priority == "normal" || priority == "low",
      "unknown priority '" + priority + "' (high|normal|low)");
  device_spec_for(*this);  // throws on unknown device keys
  // Throws on malformed --gpu-devices; the block must fit every card.
  int max_block = std::numeric_limits<int>::max();
  for (const gpusim::DeviceSpec& spec : multi_device_specs(*this)) {
    max_block = std::min(max_block, spec.max_threads_per_block);
  }
  FSBB_CHECK_MSG(block_threads >= 0 && block_threads <= max_block,
                 "--block-threads must be 0 (auto) or in [1, " +
                     std::to_string(max_block) + "], got " +
                     std::to_string(block_threads));
  if (instance.ta_id == 0) {
    FSBB_CHECK_MSG(instance.jobs >= 1 && instance.machines >= 1,
                   "instance dimensions must be >= 1");
    FSBB_CHECK_MSG(instance.count >= 1, "instance count must be >= 1");
  }
}

namespace {

gpusim::DeviceSpec device_spec_for_key(const std::string& key) {
  if (key == "c2050") return gpusim::DeviceSpec::tesla_c2050();
  if (key == "c1060") return gpusim::DeviceSpec::tesla_c1060();
  FSBB_CHECK_MSG(false, "unknown device '" + key + "' (c2050|c1060)");
  return gpusim::DeviceSpec::tesla_c2050();
}

}  // namespace

gpusim::DeviceSpec device_spec_for(const SolverConfig& config) {
  return device_spec_for_key(config.device);
}

std::vector<gpusim::DeviceSpec> multi_device_specs(const SolverConfig& config) {
  const std::string& text = config.gpu_devices;
  const std::size_t colon = text.find(':');
  const std::string count_text = text.substr(0, colon);
  std::size_t pos = 0;
  int count = 0;
  try {
    count = std::stoi(count_text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  FSBB_CHECK_MSG(pos == count_text.size() && !count_text.empty() && count >= 1,
                 "--gpu-devices wants N or N:key,key..., got '" + text + "'");

  std::vector<gpusim::DeviceSpec> specs;
  if (colon == std::string::npos) {
    specs.assign(static_cast<std::size_t>(count),
                 device_spec_for_key(config.device));
    return specs;
  }
  std::string rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    specs.push_back(device_spec_for_key(rest.substr(0, comma)));
    if (comma == std::string::npos) break;
    rest = rest.substr(comma + 1);
  }
  FSBB_CHECK_MSG(specs.size() == static_cast<std::size_t>(count),
                 "--gpu-devices '" + text + "' names " +
                     std::to_string(specs.size()) + " spec(s) but asks for " +
                     std::to_string(count));
  return specs;
}

}  // namespace fsbb::api
