#include "api/report.h"

#include <ostream>
#include <sstream>

namespace fsbb::api {
namespace {

using fsbb::JsonWriter;

std::string num(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

std::string config_json(const SolverConfig& c) {
  JsonWriter inst;
  inst.integer("ta_id", c.instance.ta_id);
  inst.integer("jobs", c.instance.jobs);
  inst.integer("machines", c.instance.machines);
  inst.integer("seed", c.instance.seed);
  inst.integer("count", c.instance.count);

  JsonWriter o;
  o.str("backend", c.backend);
  o.str("bound", to_string(c.bound));
  o.str("strategy", core::to_string(c.strategy));
  o.integer("batch_size", c.batch_size);
  o.integer("threads", c.threads);
  o.integer("batch_workers", c.batch_workers);
  o.integer("block_threads", c.block_threads);
  o.str("placement", gpubb::to_string(c.placement));
  o.str("gpu_pool", gpubb::to_string(c.gpu_pool));
  o.str("device", c.device);
  o.str("gpu_devices", c.gpu_devices);
  o.field("initial_ub",
          c.initial_ub ? std::to_string(*c.initial_ub) : "null");
  o.integer("node_budget", c.node_budget);
  o.field("deadline_ms",
          c.deadline_ms ? std::to_string(*c.deadline_ms) : "null");
  o.integer("progress_interval_ms", c.progress_interval_ms);
  o.str("tenant", c.tenant);
  o.str("priority", c.priority);
  o.field("instance", inst.done());
  return o.done();
}

std::string stats_json(const core::EngineStats& s) {
  return engine_stats_to_json(s);
}

std::string ledger_json(const core::EvalLedger& l) {
  JsonWriter o;
  o.integer("batches", l.batches);
  o.integer("nodes", l.nodes);
  o.real("wall_seconds", l.wall_seconds);
  return o.done();
}

std::string steal_json(const core::StealStats& s) {
  JsonWriter o;
  o.integer("attempts", s.steal_attempts);
  o.integer("successes", s.steal_successes);
  o.integer("nodes_stolen", s.nodes_stolen);
  o.real("success_rate", s.success_rate());
  return o.done();
}

}  // namespace

std::string SolveReport::to_json() const {
  JsonWriter inst;
  inst.str("name", instance_name);
  inst.integer("jobs", jobs);
  inst.integer("machines", machines);

  std::string perm = "[";
  for (std::size_t i = 0; i < best_permutation.size(); ++i) {
    if (i) perm += ",";
    perm += std::to_string(best_permutation[i]);
  }
  perm += "]";

  JsonWriter result;
  result.integer("best_makespan", best_makespan);
  result.boolean("proven_optimal", proven_optimal);
  result.str("stop_reason", core::to_string(stop_reason));
  result.field("best_permutation", perm);

  JsonWriter o;
  o.field("config", config_json(config));
  o.field("instance", inst.done());
  o.str("backend", backend);
  o.str("evaluator", evaluator);
  o.field("result", result.done());
  o.field("stats", stats_json(stats));
  o.field("eval", eval ? ledger_json(*eval) : "null");
  o.field("steal", steal ? steal_json(*steal) : "null");
  o.field("pool", pool ? pool_stats_to_json(*pool) : "null");
  return o.done();
}

void SolveReport::print_text(std::ostream& os) const {
  os << instance_name << " (" << jobs << "x" << machines << ") via " << backend;
  if (!evaluator.empty()) os << " [" << evaluator << "]";
  os << "\n  makespan " << best_makespan;
  if (proven_optimal) {
    os << " (proven optimal)";
  } else {
    os << " (not proven; stopped: " << core::to_string(stop_reason) << ")";
  }
  os << "\n  ";
  if (best_permutation.empty()) {
    os << "no schedule beat the initial bound";
  } else {
    os << "order";
    for (const fsp::JobId j : best_permutation) os << " J" << j;
  }
  os << "\n  " << stats.branched << " branched, " << stats.evaluated
     << " bounded, " << stats.pruned << " pruned, " << stats.leaves
     << " leaves, " << stats.ub_updates << " incumbent updates\n"
     << "  " << num(stats.wall_seconds) << " s total, "
     << static_cast<int>(stats.bounding_fraction() * 100)
     << "% in the bounding operator\n";
  if (steal) {
    os << "  " << steal->nodes_stolen << " nodes stolen in "
       << steal->steal_successes << "/" << steal->steal_attempts
       << " successful steals\n";
  }
  if (pool) {
    os << "  resident pool: " << pool->shards.size() << " shards x "
       << (pool->shards.empty() ? 0
                                : pool->capacity / pool->shards.size())
       << " slots, peak " << pool->peak_live() << " live, " << pool->refills
       << " refills, " << pool->overflow << " overflow";
    if (pool->devices > 1) {
      os << " (" << pool->devices << " devices, " << pool->rebalanced
         << " rebalanced)";
    }
    os << "\n";
  }
}

std::ostream& operator<<(std::ostream& os, const SolveReport& report) {
  report.print_text(os);
  return os;
}

std::string engine_stats_to_json(const core::EngineStats& s) {
  JsonWriter o;
  o.integer("branched", s.branched);
  o.integer("generated", s.generated);
  o.integer("evaluated", s.evaluated);
  o.integer("pruned", s.pruned);
  o.integer("leaves", s.leaves);
  o.integer("ub_updates", s.ub_updates);
  o.real("wall_seconds", s.wall_seconds);
  o.real("bounding_seconds", s.bounding_seconds);
  o.integer("initial_ub", s.initial_ub);
  return o.done();
}

core::EngineStats engine_stats_from_json(const JsonValue& v) {
  core::EngineStats s;
  s.branched = static_cast<std::uint64_t>(v.int_or("branched", 0));
  s.generated = static_cast<std::uint64_t>(v.int_or("generated", 0));
  s.evaluated = static_cast<std::uint64_t>(v.int_or("evaluated", 0));
  s.pruned = static_cast<std::uint64_t>(v.int_or("pruned", 0));
  s.leaves = static_cast<std::uint64_t>(v.int_or("leaves", 0));
  s.ub_updates = static_cast<std::uint64_t>(v.int_or("ub_updates", 0));
  if (const JsonValue* w = v.find("wall_seconds")) s.wall_seconds = w->as_number();
  if (const JsonValue* b = v.find("bounding_seconds")) {
    s.bounding_seconds = b->as_number();
  }
  s.initial_ub = static_cast<fsp::Time>(v.int_or("initial_ub", 0));
  return s;
}

std::string pool_stats_to_json(const core::ResidentPoolStats& p) {
  std::string shards = "[";
  for (std::size_t i = 0; i < p.shards.size(); ++i) {
    const core::ShardOccupancy& s = p.shards[i];
    JsonWriter o;
    o.integer("device", s.device);
    o.integer("live", s.live);
    o.integer("peak_live", s.peak_live);
    o.integer("allocated", s.allocated);
    o.integer("released", s.released);
    o.integer("spills", s.spills);
    o.integer("steals", s.steals);
    o.integer("refills", s.refills);
    if (i) shards += ",";
    shards += o.done();
  }
  shards += "]";

  JsonWriter o;
  o.integer("capacity", p.capacity);
  o.integer("slot_bytes", p.slot_bytes);
  o.integer("overflow", p.overflow);
  o.integer("refills", p.refills);
  o.integer("devices", p.devices);
  o.integer("rebalanced", p.rebalanced);
  o.integer("peak_live", p.peak_live());
  o.field("shards", shards);
  return o.done();
}

core::ResidentPoolStats pool_stats_from_json(const JsonValue& v) {
  core::ResidentPoolStats p;
  p.capacity = static_cast<std::uint64_t>(v.int_or("capacity", 0));
  p.slot_bytes = static_cast<std::uint64_t>(v.int_or("slot_bytes", 0));
  p.overflow = static_cast<std::uint64_t>(v.int_or("overflow", 0));
  p.refills = static_cast<std::uint64_t>(v.int_or("refills", 0));
  p.devices = static_cast<std::uint64_t>(v.int_or("devices", 1));
  p.rebalanced = static_cast<std::uint64_t>(v.int_or("rebalanced", 0));
  if (const JsonValue* shards = v.find("shards")) {
    for (const JsonValue& sv : shards->as_array()) {
      core::ShardOccupancy s;
      s.device = static_cast<std::uint64_t>(sv.int_or("device", 0));
      s.live = static_cast<std::uint64_t>(sv.int_or("live", 0));
      s.peak_live = static_cast<std::uint64_t>(sv.int_or("peak_live", 0));
      s.allocated = static_cast<std::uint64_t>(sv.int_or("allocated", 0));
      s.released = static_cast<std::uint64_t>(sv.int_or("released", 0));
      s.spills = static_cast<std::uint64_t>(sv.int_or("spills", 0));
      s.steals = static_cast<std::uint64_t>(sv.int_or("steals", 0));
      s.refills = static_cast<std::uint64_t>(sv.int_or("refills", 0));
      p.shards.push_back(s);
    }
  }
  return p;
}

void accumulate_engine_stats(core::EngineStats& into,
                             const core::EngineStats& more) {
  into.branched += more.branched;
  into.generated += more.generated;
  into.evaluated += more.evaluated;
  into.pruned += more.pruned;
  into.leaves += more.leaves;
  into.ub_updates += more.ub_updates;
  into.bounding_seconds += more.bounding_seconds;
  if (more.wall_seconds > into.wall_seconds) {
    into.wall_seconds = more.wall_seconds;
  }
  if (into.initial_ub == 0) into.initial_ub = more.initial_ub;
}

core::StopReason combine_stop_reasons(core::StopReason a, core::StopReason b) {
  // Severity for aggregation; a shard that was canceled or deadlined taints
  // the merged report even if every other shard finished optimal.
  const auto rank = [](core::StopReason r) {
    switch (r) {
      case core::StopReason::kCanceled:
        return 4;
      case core::StopReason::kDeadline:
        return 3;
      case core::StopReason::kBudget:
        return 2;
      case core::StopReason::kFrozen:
        return 1;
      case core::StopReason::kOptimal:
        return 0;
    }
    return 0;
  };
  return rank(a) >= rank(b) ? a : b;
}

}  // namespace fsbb::api
