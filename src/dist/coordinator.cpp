#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <thread>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "common/check.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/pool_io.h"
#include "dist/frontier.h"
#include "fsp/lb_data.h"

namespace fsbb::dist {
namespace {

std::string cli_json_array(const std::vector<std::string>& tokens) {
  std::string out = "[";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_escape(tokens[i]);
    out += '"';
  }
  out += ']';
  return out;
}

std::vector<fsp::JobId> parse_permutation(const JsonValue& event) {
  std::vector<fsp::JobId> perm;
  if (const JsonValue* array = event.find("permutation")) {
    if (array->is_array()) {
      perm.reserve(array->as_array().size());
      for (const JsonValue& item : array->as_array()) {
        perm.push_back(static_cast<fsp::JobId>(item.as_int()));
      }
    }
  }
  return perm;
}

}  // namespace

Coordinator::Coordinator(fsp::Instance instance, api::SolverConfig config,
                         CoordinatorOptions options)
    : instance_(std::move(instance)),
      config_(std::move(config)),
      options_(std::move(options)) {
  FSBB_CHECK_MSG(options_.workers >= 1, "coordinator needs >= 1 worker");
  FSBB_CHECK_MSG(options_.frontier_nodes >= 1, "frontier target must be >= 1");
  FSBB_CHECK_MSG(options_.slice_nodes >= 1, "slice_nodes must be >= 1");
  FSBB_CHECK_MSG(config_.instance.count == 1,
                 "distributed solving shards one instance; --count must be 1");
  if (options_.worker_command.empty()) {
    options_.worker_command = default_worker_command();
  }
}

void Coordinator::log(const std::string& message) const {
  if (options_.on_log) options_.on_log(message);
}

void Coordinator::spawn(std::size_t index) {
  Slot& slot = slots_[index];
  slot.proc = Subprocess::spawn(options_.worker_command);
  slot.reader = serve::BoundedLineReader(kUncappedLine);
  slot.alive = true;
  slot.eof = false;
  slot.busy = false;
  slot.recall_pending = false;
  slot.checkpoints_acked = 0;
  slot.kill_injected = false;
  log("worker " + std::to_string(index) + ": spawned pid " +
      std::to_string(slot.proc.pid()));
}

void Coordinator::dispatch(std::size_t index, std::string pool_text) {
  Slot& slot = slots_[index];
  std::string id = "s";
  id += std::to_string(next_shard_++);
  JsonWriter o;
  o.str("op", "solve");
  o.str("id", id);
  o.field("cli", cli_json_array(config_.to_cli()));
  o.str("pool", pool_text);
  o.integer("slice_nodes", options_.slice_nodes);
  if (!slot.proc.write_line(o.done())) {
    // The worker died between poll rounds; requeue and let the death
    // handling respawn it.
    pending_.push_front(std::move(pool_text));
    return;
  }
  slot.busy = true;
  slot.shard_id = id;
  slot.pool_text = std::move(pool_text);
  slot.pool_nodes =
      core::read_frozen_pool_string(slot.pool_text, id).nodes.size();
  ++summary_.shards_dispatched;
  log("worker " + std::to_string(index) + ": dispatched " + id + " (" +
      std::to_string(slot.pool_nodes) + " nodes)");

  // The shard's embedded incumbent may trail the fleet-wide best (it was
  // frozen at checkpoint time); re-tighten immediately.
  const fsp::Time best = bus_.best();
  if (best < std::numeric_limits<fsp::Time>::max()) {
    JsonWriter inject;
    inject.str("op", "inject_incumbent");
    inject.integer("value", best);
    slot.proc.write_line(inject.done());
  }
}

void Coordinator::dispatch_pending() {
  for (std::size_t i = 0; i < slots_.size() && !pending_.empty(); ++i) {
    if (!slots_[i].alive || slots_[i].busy) continue;
    std::string pool_text = std::move(pending_.front());
    pending_.pop_front();
    dispatch(i, std::move(pool_text));
  }
}

void Coordinator::maybe_rebalance() {
  if (!pending_.empty()) return;
  bool have_idle = false;
  for (const Slot& slot : slots_) {
    if (slot.recall_pending) return;  // one recall in flight at a time
    if (slot.alive && !slot.busy) have_idle = true;
  }
  if (!have_idle) return;

  // Recall the deepest live sub-pool: the busy worker whose last known
  // checkpoint holds the most nodes (>= 2, so a split actually shares).
  std::size_t victim = slots_.size();
  std::size_t victim_nodes = 1;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive && slots_[i].busy &&
        slots_[i].pool_nodes > victim_nodes) {
      victim = i;
      victim_nodes = slots_[i].pool_nodes;
    }
  }
  if (victim == slots_.size()) return;
  if (slots_[victim].proc.write_line("{\"op\":\"recall\"}")) {
    slots_[victim].recall_pending = true;
    ++summary_.rebalances;
    log("worker " + std::to_string(victim) + ": recalling " +
        slots_[victim].shard_id + " to feed an idle worker");
  }
}

void Coordinator::broadcast_incumbent(fsp::Time value, std::size_t source) {
  JsonWriter o;
  o.str("op", "inject_incumbent");
  o.integer("value", value);
  const std::string line = o.done();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i == source || !slots_[i].alive || !slots_[i].busy) continue;
    slots_[i].proc.write_line(line);
    ++summary_.broadcasts;
  }
}

void Coordinator::handle_event(std::size_t index, const std::string& line) {
  Slot& slot = slots_[index];
  JsonValue event;
  try {
    event = JsonValue::parse(line);
  } catch (const std::exception& e) {
    log("worker " + std::to_string(index) +
        ": unparseable event dropped: " + e.what());
    return;
  }
  const std::string kind = event.string_or("event", "");

  if (kind == "ready" || kind == "accepted") return;

  if (kind == "incumbent") {
    const auto value = static_cast<fsp::Time>(event.int_or(
        "value", std::numeric_limits<fsp::Time>::max()));
    if (bus_.offer(value, parse_permutation(event))) {
      log("incumbent " + std::to_string(value) + " from worker " +
          std::to_string(index));
      broadcast_incumbent(value, index);
    }
    return;
  }

  if (kind == "checkpoint") {
    if (const JsonValue* pool = event.find("pool")) {
      slot.pool_text = pool->as_string();
      slot.pool_nodes =
          static_cast<std::size_t>(event.int_or("nodes", 0));
    }
    ++slot.checkpoints_acked;
    if (options_.kill_worker == static_cast<int>(index) &&
        !slot.kill_injected &&
        slot.checkpoints_acked >= options_.kill_after_checkpoints) {
      slot.kill_injected = true;
      log("worker " + std::to_string(index) +
          ": fault injection, SIGKILL after checkpoint " +
          std::to_string(slot.checkpoints_acked));
      slot.proc.kill(SIGKILL);
    }
    return;
  }

  if (kind == "recalled") {
    slot.busy = false;
    slot.recall_pending = false;
    const auto value = static_cast<fsp::Time>(event.int_or(
        "incumbent", std::numeric_limits<fsp::Time>::max()));
    if (bus_.offer(value, parse_permutation(event))) {
      broadcast_incumbent(value, index);
    }
    if (const JsonValue* stats = event.find("stats")) {
      api::accumulate_engine_stats(stats_,
                                   api::engine_stats_from_json(*stats));
    }
    if (const JsonValue* pool = event.find("pool")) {
      const core::FrozenPool recalled =
          core::read_frozen_pool_string(pool->as_string(), slot.shard_id);
      for (core::FrozenPool& part : split_frontier(recalled, 2)) {
        part.incumbent = std::min(part.incumbent, bus_.best());
        pending_.push_back(core::write_frozen_pool_string(part));
      }
      log("worker " + std::to_string(index) + ": " + slot.shard_id +
          " recalled (" + std::to_string(recalled.nodes.size()) +
          " nodes, re-split)");
    } else {
      // Recall raced the shard draining: nothing left to redistribute,
      // and the exploration is complete — count it like a done shard.
      ++summary_.shards_completed;
    }
    return;
  }

  if (kind == "done") {
    slot.busy = false;
    slot.recall_pending = false;
    ++summary_.shards_completed;
    const auto value = static_cast<fsp::Time>(event.int_or(
        "best", std::numeric_limits<fsp::Time>::max()));
    if (bus_.offer(value, parse_permutation(event))) {
      broadcast_incumbent(value, index);
    }
    if (const JsonValue* stats = event.find("stats")) {
      api::accumulate_engine_stats(stats_,
                                   api::engine_stats_from_json(*stats));
    }
    const bool proven = event.bool_or("proven_optimal", false);
    proven_ = proven_ && proven;
    stop_reason_ = api::combine_stop_reasons(
        stop_reason_,
        core::parse_stop_reason(event.string_or("stop_reason", "optimal")));
    const std::string error = event.string_or("error", "");
    FSBB_CHECK_MSG(error.empty(), "worker " + std::to_string(index) +
                                      " failed shard " + slot.shard_id +
                                      ": " + error);
    log("worker " + std::to_string(index) + ": " + slot.shard_id +
        " done (best " + std::to_string(value) + ")");
    return;
  }

  if (kind == "rejected") {
    FSBB_CHECK_MSG(false, "worker " + std::to_string(index) +
                              " rejected a dispatch: " +
                              event.string_or("error", "unknown error"));
  }

  if (kind == "error") {
    log("worker " + std::to_string(index) +
        ": " + event.string_or("error", "unknown error"));
    return;
  }

  log("worker " + std::to_string(index) + ": unknown event '" + kind +
      "' dropped");
}

void Coordinator::handle_death(std::size_t index) {
  Slot& slot = slots_[index];
  slot.alive = false;
  int exit_code = -1;
  slot.proc.try_wait(&exit_code);
  log("worker " + std::to_string(index) + ": died (exit " +
      std::to_string(exit_code) + ")");
  if (slot.busy) {
    // The shard survives: re-dispatch from the last acked checkpoint (or
    // the original sub-pool when the worker never checkpointed).
    pending_.push_front(slot.pool_text);
    slot.busy = false;
    slot.recall_pending = false;
    log("worker " + std::to_string(index) + ": requeued " + slot.shard_id +
        " from its last checkpoint (" + std::to_string(slot.pool_nodes) +
        " nodes)");
  }
  if (summary_.respawns >= options_.max_respawns) {
    log("worker " + std::to_string(index) +
        ": respawn budget exhausted, abandoning the slot");
    return;
  }
  ++summary_.respawns;
  if (options_.respawn_backoff_seconds > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.respawn_backoff_seconds));
  }
  spawn(index);
}

void Coordinator::pump_events() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].alive || slots_[i].proc.stdout_fd() < 0) continue;
    fds.push_back(pollfd{slots_[i].proc.stdout_fd(), POLLIN, 0});
    owners.push_back(i);
  }
  FSBB_CHECK_MSG(!fds.empty(),
                 "all workers are dead with shards outstanding (respawn "
                 "budget exhausted)");
  ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);

  for (std::size_t f = 0; f < fds.size(); ++f) {
    if (fds[f].revents == 0) continue;
    const std::size_t index = owners[f];
    Slot& slot = slots_[index];
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fds[f].fd, buf, sizeof(buf));
      if (n > 0) {
        for (const serve::BoundedLineReader::Line& line :
             slot.reader.feed(buf, static_cast<std::size_t>(n))) {
          handle_event(index, line.text);
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      slot.eof = true;  // EOF or hard error: the worker is gone
      break;
    }
    if (slot.eof && slot.alive) handle_death(index);
  }

  // A worker can exit without its fd polling readable this round (e.g. it
  // was not in the poll set's revents); reap proactively.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive && slots_[i].proc.try_wait()) {
      // Drain whatever it flushed before exiting.
      const int fd = slots_[i].proc.stdout_fd();
      char buf[4096];
      ssize_t n;
      while (fd >= 0 && (n = ::read(fd, buf, sizeof(buf))) > 0) {
        for (const serve::BoundedLineReader::Line& line :
             slots_[i].reader.feed(buf, static_cast<std::size_t>(n))) {
          handle_event(i, line.text);
        }
      }
      if (slots_[i].alive) handle_death(i);
    }
  }
}

bool Coordinator::any_busy() const {
  return std::any_of(slots_.begin(), slots_.end(),
                     [](const Slot& s) { return s.alive && s.busy; });
}

std::size_t Coordinator::alive_workers() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.alive; }));
}

api::SolveReport Coordinator::make_report(double wall_seconds) const {
  api::SolveReport report;
  report.config = config_;
  report.instance_name = instance_.name();
  report.jobs = instance_.jobs();
  report.machines = instance_.machines();
  report.backend = "dist:" + config_.backend;
  report.best_makespan = bus_.best();
  report.best_permutation = bus_.best_permutation();
  report.proven_optimal = proven_;
  report.stop_reason = stop_reason_;
  report.stats = stats_;
  report.stats.wall_seconds = wall_seconds;
  return report;
}

api::SolveReport Coordinator::run() {
  FSBB_CHECK_MSG(!ran_, "Coordinator::run is single-shot");
  ran_ = true;
  const WallTimer timer;

  const fsp::LowerBoundData data = fsp::LowerBoundData::build(instance_);
  FrontierResult frontier = build_root_frontier(
      instance_, data, options_.frontier_nodes, config_.initial_ub);
  bus_.offer(frontier.best, frontier.best_permutation);
  stats_ = frontier.stats;
  if (frontier.solved) {
    log("root frontier solved the instance outright (" +
        std::to_string(frontier.best) + "); nothing to distribute");
    return make_report(timer.seconds());
  }

  for (core::FrozenPool& shard :
       split_frontier(frontier.frontier, options_.workers)) {
    pending_.push_back(core::write_frozen_pool_string(shard));
  }
  log("frontier: " + std::to_string(frontier.frontier.nodes.size()) +
      " nodes in " + std::to_string(pending_.size()) + " shards, incumbent " +
      std::to_string(frontier.frontier.incumbent));

  slots_.resize(options_.workers);
  for (std::size_t i = 0; i < slots_.size(); ++i) spawn(i);
  dispatch_pending();

  while (!pending_.empty() || any_busy()) {
    FSBB_CHECK_MSG(alive_workers() > 0,
                   "all workers are dead with shards outstanding (respawn "
                   "budget exhausted)");
    pump_events();
    dispatch_pending();
    maybe_rebalance();
  }

  for (Slot& slot : slots_) {
    if (!slot.alive) continue;
    slot.proc.write_line("{\"op\":\"shutdown\"}");
    slot.proc.close_stdin();
    slot.proc.wait();
  }
  log("all shards complete: best " + std::to_string(bus_.best()));
  return make_report(timer.seconds());
}

}  // namespace fsbb::dist
