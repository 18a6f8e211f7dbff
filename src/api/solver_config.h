// SolverConfig — the one value type that selects everything about a solve.
//
// The paper frames GPU-accelerated B&B as a single engine with
// interchangeable bounding operators; SolverConfig is that framing as data:
// backend key (see api/backend_registry.h), bound choice, selection
// strategy, batch size, device/placement knobs, limits, and the instance
// spec used by the CLI and batch front ends. Every field parses from
// `--flag value` command lines (common/cli) and round-trips through
// to_cli(), so a report's config echo is a reproducible invocation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/pool.h"
#include "fsp/instance.h"
#include "gpubb/gpu_evaluator.h"
#include "gpubb/placement.h"
#include "gpusim/device_spec.h"

namespace fsbb::api {

/// Which lower bound the bounding operator computes.
enum class Bound {
  kLb0,  ///< single-machine bound, Θ(n m) — the cheap baseline
  kLb1,  ///< Lageweg–Lenstra–Rinnooy Kan two-machine bound (the paper's)
  kLb2,  ///< LB1 with node-local head/tail minima — dominates LB1
};

const char* to_string(Bound b);
Bound parse_bound(const std::string& text);  ///< "lb0" | "lb1" | "lb2"

core::SelectionStrategy parse_strategy(const std::string& text);
gpubb::PlacementPolicy parse_placement(const std::string& text);

/// Upper limit on --threads and --batch-workers. Each worker is one OS
/// thread, and the config also arrives over fsbb_serve's socket, so a
/// request must not be able to ask for an unbounded number of them.
inline constexpr std::size_t kMaxWorkerThreads = 256;

/// Which problem instance(s) the CLI front ends solve.
struct InstanceSpec {
  /// > 0 selects the published Taillard instance ta<id> (1..120) and the
  /// jobs/machines/seed fields are ignored.
  int ta_id = 0;
  int jobs = 10;
  int machines = 5;
  std::int32_t seed = 123456789;  ///< Taillard time seed
  /// Batch solves: `count` instances with seeds seed .. seed + count - 1.
  int count = 1;

  bool operator==(const InstanceSpec&) const = default;
};

/// Materializes the spec (count instances; ta_id implies count == 1).
std::vector<fsp::Instance> make_instances(const InstanceSpec& spec);

/// Full description of one solve. Defaults are deterministic: nothing in
/// here (and nothing derived from it, e.g. evaluator names) depends on the
/// machine's detected hardware concurrency.
struct SolverConfig {
  /// Backend registry key: cpu-serial, cpu-threads, callback, gpu-sim,
  /// adaptive, cpu-steal (api/backend_registry.h has the authoritative
  /// list).
  std::string backend = "cpu-serial";
  Bound bound = Bound::kLb1;
  core::SelectionStrategy strategy = core::SelectionStrategy::kBestFirst;
  /// Children accumulated per bounding batch; 0 = the backend's default.
  std::size_t batch_size = 0;
  /// Host worker threads for cpu-threads / adaptive / cpu-steal. Fixed
  /// default (not hardware concurrency) so reports are machine-stable.
  std::size_t threads = 4;
  /// Concurrent jobs on the Solver's internal service (solve_many and
  /// solve alike); 0 = config.threads workers.
  std::size_t batch_workers = 0;
  /// GPU kernel block size; 0 = the placement's recommended size.
  int block_threads = 0;
  gpubb::PlacementPolicy placement = gpubb::PlacementPolicy::kAuto;
  /// Device pool organization for gpu-sim/adaptive: per-SM resident shards
  /// (the default) or the paper's per-offload full-pool repack.
  gpubb::GpuPoolMode gpu_pool = gpubb::GpuPoolMode::kResident;
  /// Simulated device: "c2050" (the paper's) or "c1060".
  std::string device = "c2050";
  /// Simulated device COUNT for gpu-sim/adaptive: "N" shards the pool
  /// over N cards of `device`'s spec, "N:key,key,..." names each card's
  /// spec explicitly (heterogeneous mixes allowed, count must match).
  /// "1" keeps the single-device evaluator.
  std::string gpu_devices = "1";
  /// Starting incumbent; NEH if unset.
  std::optional<fsp::Time> initial_ub;
  std::uint64_t node_budget = 0;     ///< 0 = solve to optimality
  /// Hard wall-clock deadline in milliseconds, measured from submission:
  /// the one time-based stop. It flows through core::SearchControl and
  /// stops every backend. A value of 0 is an already-expired deadline:
  /// the search stops before branching anything. Unset = no deadline.
  std::optional<std::uint64_t> deadline_ms;
  /// Minimum interval between streamed periodic progress events (ticks)
  /// when a subscriber is attached; incumbent events always pass.
  std::uint64_t progress_interval_ms = 200;
  /// Multi-tenant serving (serve::): the API-key-like tenant the request
  /// is accounted against. Admission quotas key on it; plain config data
  /// so every report echo records who asked.
  std::string tenant = "anonymous";
  /// Priority class for admission-control load shedding: "high" |
  /// "normal" | "low". Lower classes are shed first as the service queue
  /// fills (serve::AdmissionController documents the thresholds).
  std::string priority = "normal";
  InstanceSpec instance;

  bool operator==(const SolverConfig&) const = default;

  /// Every `--flag` the config understands, for CliArgs::parse.
  static const std::vector<std::string>& cli_flags();

  /// Reads every recognized flag; untouched fields keep their defaults.
  /// Throws CheckFailure on unparseable enum values.
  static SolverConfig from_cli(const CliArgs& args);

  /// Parses argv directly (extra_flags are accepted but ignored — for
  /// binaries that add their own switches on top).
  static SolverConfig from_argv(int argc, const char* const* argv,
                                const std::vector<std::string>& extra_flags = {});

  /// The config as `--flag=value` tokens; from_cli(parse(to_cli())) == *this.
  std::vector<std::string> to_cli() const;

  /// Checks enum-free fields (device keys, thread counts against
  /// kMaxWorkerThreads, block size against the devices' block limit);
  /// backend existence is checked by the registry at Solver construction.
  void validate() const;
};

/// Resolves config.device ("c2050" | "c1060"); throws CheckFailure otherwise.
gpusim::DeviceSpec device_spec_for(const SolverConfig& config);

/// Resolves config.gpu_devices into one spec per simulated card: "N" is N
/// copies of config.device's spec, "N:key,key" the named specs (the count
/// must equal N). Throws CheckFailure on malformed values. Size 1 means
/// the single-device evaluator path.
std::vector<gpusim::DeviceSpec> multi_device_specs(const SolverConfig& config);

}  // namespace fsbb::api
