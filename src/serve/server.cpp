#include "serve/server.h"

#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "core/search_control.h"
#include "fsp/makespan.h"

namespace fsbb::serve {
namespace {

/// Envelope helper: {"event":<event>,"id":<id>, ...extras}.
JsonWriter envelope(const std::string& event, const std::string& id) {
  JsonWriter o;
  o.str("event", event);
  o.str("id", id);
  return o;
}

/// Splits a "cli" payload (string or array of strings) into argv tokens.
std::vector<std::string> cli_tokens(const JsonValue& cli) {
  std::vector<std::string> tokens;
  if (cli.is_array()) {
    for (const JsonValue& item : cli.as_array()) {
      tokens.push_back(item.as_string());
    }
    return tokens;
  }
  std::istringstream stream(cli.as_string());
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

api::SolverConfig config_from_cli_tokens(
    const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"fsbb_serve"};
  argv.reserve(tokens.size() + 1);
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return api::SolverConfig::from_argv(static_cast<int>(argv.size()),
                                      argv.data());
}

/// Optional top-level "instance" object on submit: an explicit job-major
/// processing-time matrix replacing the generator spec in the cli
/// payload. Serving real workloads means accepting real matrices — and
/// the permutation-invariant result cache is only reachable over the
/// wire this way (a generator spec can never express a relabeled twin).
///   {"instance":{"name":"acme-1","ptm":[[5,3,2],[1,4,4]]}}
fsp::Instance instance_from_json(const JsonValue& value) {
  const JsonValue* ptm = value.find("ptm");
  FSBB_CHECK_MSG(ptm != nullptr && ptm->is_array(),
                 "explicit instance needs a \"ptm\" array of job rows");
  const auto& rows = ptm->as_array();
  FSBB_CHECK_MSG(!rows.empty(), "explicit instance needs >= 1 job row");
  const std::size_t machines = rows.front().as_array().size();
  Matrix<fsp::Time> pt(rows.size(), machines);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto& row = rows[j].as_array();
    FSBB_CHECK_MSG(row.size() == machines,
                   "\"ptm\" rows must all have the same machine count");
    for (std::size_t k = 0; k < machines; ++k) {
      const std::int64_t t = row[k].as_int();
      FSBB_CHECK_MSG(t >= 0 && t <= std::numeric_limits<fsp::Time>::max(),
                     "\"ptm\" entries must be integers in [0, " +
                         std::to_string(std::numeric_limits<fsp::Time>::max()) +
                         "], got " + std::to_string(t));
      pt(j, k) = static_cast<fsp::Time>(t);
    }
  }
  return fsp::Instance(value.string_or("name", "wire-instance"),
                       std::move(pt));
}

/// A proven-optimal cache hit becomes a full SolveReport without running
/// a search: backend "cache", zero stats, the cached bound doubling as
/// the (already optimal) initial upper bound.
api::SolveReport exact_hit_report(const fsp::Instance& inst,
                                  const api::SolverConfig& config,
                                  const CacheHit& hit) {
  api::SolveReport report;
  report.config = config;
  report.instance_name = inst.name();
  report.jobs = inst.jobs();
  report.machines = inst.machines();
  report.backend = "cache";
  report.evaluator = "result-cache (filled by '" + hit.source_instance + "')";
  report.best_makespan = hit.makespan;
  report.best_permutation = hit.permutation;
  report.proven_optimal = true;
  report.stop_reason = core::StopReason::kOptimal;
  report.stats.initial_ub = hit.makespan;
  return report;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      admission_(options.admission),
      cache_(options.cache),
      service_(api::SolverService::Options{options.workers}) {
  if (options_.metrics_interval_ms > 0) {
    logger_ = std::thread([this] {
      const auto interval =
          std::chrono::milliseconds(options_.metrics_interval_ms);
      auto next = std::chrono::steady_clock::now() + interval;
      while (!stop_logger_.load(std::memory_order_relaxed)) {
        // Sleep in short chunks so teardown never waits a full interval.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (std::chrono::steady_clock::now() < next) continue;
        next += interval;
        std::cerr << metrics_.log_line(service_.snapshot(), cache_.size())
                  << "\n";
      }
    });
  }
}

Server::~Server() {
  // Stop the logger before member destruction: service_ (declared last)
  // destructs first, and the logger reads its snapshot.
  stop_logger_.store(true, std::memory_order_relaxed);
  if (logger_.joinable()) logger_.join();
}

std::string Server::metrics_json() {
  return metrics_.to_json(service_.snapshot(), cache_.size());
}

Client::Client(Server& server, Sink sink)
    : server_(server), sink_(std::move(sink)) {
  FSBB_CHECK_MSG(sink_ != nullptr, "Client needs an output sink");
}

void Client::emit(const std::string& json) {
  const LockGuard lock(out_mu_);
  if (closed_) return;
  sink_(json);
}

void Client::reject(const std::string& id, const std::string& error) {
  JsonWriter o = envelope("rejected", id);
  o.str("error", error);
  emit(o.done());
}

void Client::protocol_error(const std::string& error) {
  server_.metrics().record_protocol_error();
  JsonWriter o;
  o.str("event", "error");
  o.str("error", error);
  emit(o.done());
}

void Client::handle_oversized_line() {
  server_.metrics().record_oversized_line();
  JsonWriter o;
  o.str("event", "error");
  o.str("error",
        "request line exceeds " +
            std::to_string(server_.options().max_line_bytes) +
            " bytes and was discarded");
  emit(o.done());
}

void Client::close() {
  {
    const LockGuard lock(out_mu_);
    closed_ = true;
  }
  // The peer is gone: its jobs only waste workers now. Cancellation is
  // cooperative; the completion callbacks still run (releasing quotas and
  // feeding the cache) but their output is discarded above.
  cancel_all();
}

void Client::cancel_all() {
  std::vector<api::SolveHandle> handles;
  {
    const LockGuard lock(mu_);
    for (auto& [id, handle] : jobs_) handles.push_back(handle);
  }
  for (api::SolveHandle& handle : handles) handle.cancel();
}

void Client::drain() {
  std::vector<api::SolveHandle> handles;
  {
    const LockGuard lock(mu_);
    for (auto& [id, handle] : jobs_) handles.push_back(handle);
  }
  for (api::SolveHandle& handle : handles) handle.wait();
}

std::size_t Client::jobs_open() const {
  const LockGuard lock(mu_);
  return jobs_.size();
}

Client::Action Client::handle_line(const std::string& line) {
  JsonValue request;
  try {
    request = JsonValue::parse(line);
  } catch (const std::exception& e) {
    protocol_error(e.what());
    return Action::kContinue;
  }
  const std::string op = request.string_or("op", "");
  if (op == "submit") {
    submit(request);
  } else if (op == "cancel") {
    cancel(request);
  } else if (op == "status") {
    status(request);
  } else if (op == "metrics") {
    metrics_request();
  } else if (op == "shutdown") {
    return Action::kShutdown;
  } else {
    protocol_error("unknown op '" + op + "'");
  }
  return Action::kContinue;
}

void Client::metrics_request() {
  JsonWriter o;
  o.str("event", "metrics");
  o.field("data", server_.metrics_json());
  emit(o.done());
}

void Client::submit(const JsonValue& request) {
  const std::string id = request.string_or("id", "");
  if (id.empty()) {
    reject(id, "submit needs a non-empty \"id\"");
    return;
  }
  const JsonValue* cli = request.find("cli");
  if (cli == nullptr) {
    reject(id, "submit needs a \"cli\" string or array");
    return;
  }
  {
    const LockGuard lock(mu_);
    if (jobs_.count(id) != 0) {
      reject(id, "job id already in use");
      return;
    }
  }

  // The job may start (and even finish) on a worker thread before this
  // thread prints the accepted line; every callback takes this gate, which
  // is held until the accepted line is out — so the event stream always
  // reads accepted → progress* → result for each id.
  auto gate = std::make_shared<Mutex>();
  const LockGuard announcing(*gate);

  Metrics& metrics = server_.metrics();
  bool quota_charged = false;
  std::string charged_tenant;
  try {
    api::SolverConfig config = config_from_cli_tokens(cli_tokens(*cli));
    // Top-level request fields override the cli payload — transports that
    // stamp tenancy per connection need not rewrite the flag string.
    if (const JsonValue* t = request.find("tenant")) {
      config.tenant = t->as_string();
    }
    if (const JsonValue* p = request.find("priority")) {
      config.priority = p->as_string();
    }
    FSBB_CHECK_MSG(!config.tenant.empty(), "tenant must be non-empty");
    const Priority priority = parse_priority(config.priority);
    const std::string cache_mode = request.string_or("cache", "use");
    FSBB_CHECK_MSG(
        cache_mode == "use" || cache_mode == "refresh" ||
            cache_mode == "bypass",
        "\"cache\" must be one of use | refresh | bypass");

    std::optional<fsp::Instance> parsed;
    if (const JsonValue* explicit_inst = request.find("instance")) {
      parsed = instance_from_json(*explicit_inst);
    } else {
      std::vector<fsp::Instance> instances =
          api::make_instances(config.instance);
      if (instances.size() != 1) {
        reject(id,
               "submit solves exactly one instance per job (got --count " +
                   std::to_string(instances.size()) + "); submit one job "
                   "per instance instead");
        return;
      }
      parsed = std::move(instances.front());
    }
    fsp::Instance inst = std::move(*parsed);

    // Cache consultation before admission: an exact hit costs no worker,
    // so it should not be charged against (or blocked by) any quota.
    std::shared_ptr<const fsp::CanonicalForm> form;
    std::optional<CacheHit> hit;
    if (cache_mode != "bypass") {
      form = std::make_shared<fsp::CanonicalForm>(fsp::CanonicalForm::of(inst));
      hit = server_.cache().lookup(inst, *form);
    }

    if (hit && hit->proven_optimal && cache_mode == "use") {
      metrics.record_cache_exact_hit();
      JsonWriter a = envelope("accepted", id);
      a.integer("job", 0);
      a.str("tenant", config.tenant);
      a.str("cache", "exact");
      emit(a.done());
      const api::SolveReport report = exact_hit_report(inst, config, *hit);
      metrics.record_completion("cache", true, core::StopReason::kOptimal,
                                0.0, 0);
      JsonWriter o = envelope("result", id);
      o.boolean("ok", true);
      o.str("stop_reason", core::to_string(report.stop_reason));
      o.str("cache", "exact");
      o.field("report", report.to_json());
      emit(o.done());
      return;
    }

    std::string cache_note = "bypass";
    std::optional<fsp::Time> warm_ub;
    std::vector<fsp::JobId> warm_perm;
    if (hit) {
      // Warm start: the cached incumbent becomes the root bound. Setting
      // initial_ub makes the engine start below it (and records it in
      // stats.initial_ub); offer_incumbent after submit covers a job that
      // was already queued with a weaker config-supplied bound.
      warm_ub = hit->makespan;
      warm_perm = hit->permutation;
      if (!config.initial_ub || hit->makespan < *config.initial_ub) {
        config.initial_ub = hit->makespan;
      }
      metrics.record_cache_warm_start();
      cache_note = "warm";
    } else if (form != nullptr) {
      metrics.record_cache_miss();
      cache_note = "miss";
    }

    const AdmissionDecision decision = server_.admission().try_admit(
        config.tenant, priority, server_.service().snapshot().queued,
        metrics.p50_latency_ms());
    if (!decision.admitted) {
      metrics.record_admission_reject(decision.reason);
      JsonWriter o = envelope("rejected", id);
      o.str("error", decision.detail);
      o.str("reason", decision.reason);
      o.integer("retry_after_ms", decision.retry_after_ms);
      o.str("tenant", config.tenant);
      emit(o.done());
      return;
    }
    quota_charged = true;
    charged_tenant = config.tenant;

    auto self = shared_from_this();
    api::SolverService::EventCallback on_event;
    if (!server_.options().quiet_progress) {
      on_event = [self, id, gate](const api::ProgressEvent& event) {
        if (event.kind == api::ProgressEvent::Kind::kFinished) return;
        const LockGuard announced(*gate);
        JsonWriter o = envelope("progress", id);
        o.field("data", event.to_json());
        self->emit(o.done());
      };
    }
    const auto submitted_at = std::chrono::steady_clock::now();
    const bool cache_writable = cache_mode != "bypass";
    auto on_complete = [self, id, gate, submitted_at, inst, form, warm_ub,
                        warm_perm, cache_writable,
                        tenant = config.tenant](
                           const api::SolveOutcome& outcome) {
      const double latency_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - submitted_at)
              .count();
      api::SolveOutcome final_outcome = outcome;
      Server& server = self->server_;
      if (final_outcome.ok()) {
        api::SolveReport& report = *final_outcome.report;
        // A warm-started job that never improved on the cached incumbent
        // returns an empty permutation (nothing beat the root bound);
        // splice the cached schedule back in so the peer still receives
        // a concrete schedule for the reported makespan.
        if (report.best_permutation.empty() && warm_ub.has_value() &&
            report.best_makespan == *warm_ub) {
          report.best_permutation = warm_perm;
        }
        server.metrics().record_completion(report.backend, true,
                                           report.stop_reason, latency_ms,
                                           report.stats.branched);
        if (cache_writable && form != nullptr &&
            !report.best_permutation.empty()) {
          const bool proven = report.proven_optimal &&
                              report.stop_reason == core::StopReason::kOptimal;
          if (server.cache().insert(inst, *form, report.best_makespan,
                                    report.best_permutation, proven)) {
            server.metrics().record_cache_insert();
          }
        }
      } else {
        server.metrics().record_completion("error", false,
                                           core::StopReason::kCanceled,
                                           latency_ms, 0);
      }
      server.admission().release(tenant);
      {
        const LockGuard announced(*gate);
        JsonWriter o = envelope("result", id);
        o.boolean("ok", final_outcome.ok());
        if (final_outcome.ok()) {
          o.str("stop_reason",
                core::to_string(final_outcome.report->stop_reason));
          o.field("report", final_outcome.report->to_json());
        } else {
          o.str("error", final_outcome.error);
        }
        self->emit(o.done());
      }
      // The result streamed: forget the job so a long-running server does
      // not accumulate every instance + report it ever solved.
      const LockGuard lock(self->mu_);
      self->jobs_.erase(id);
    };

    api::SolveHandle handle =
        server_.service().submit(std::move(inst), config, std::move(on_event),
                                 std::move(on_complete));
    if (warm_ub.has_value()) handle.offer_incumbent(*warm_ub);
    metrics.record_submit_accepted();
    {
      const LockGuard lock(mu_);
      jobs_.emplace(id, handle);
    }
    JsonWriter o = envelope("accepted", id);
    o.integer("job", handle.id());
    o.str("tenant", config.tenant);
    o.str("priority", config.priority);
    o.str("cache", cache_note);
    if (warm_ub.has_value()) o.integer("warm_ub", *warm_ub);
    emit(o.done());
  } catch (const std::exception& e) {
    if (quota_charged) server_.admission().release(charged_tenant);
    reject(id, e.what());
  }
}

void Client::cancel(const JsonValue& request) {
  const std::string id = request.string_or("id", "");
  api::SolveHandle handle;
  {
    const LockGuard lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      reject(id, "unknown job id");
      return;
    }
    handle = it->second;
  }
  handle.cancel();
  emit(envelope("canceling", id).done());
}

void Client::status(const JsonValue& request) {
  const std::string id = request.string_or("id", "");
  std::vector<std::pair<std::string, api::SolveHandle>> selected;
  {
    const LockGuard lock(mu_);
    for (auto& [job_id, handle] : jobs_) {
      if (id.empty() || job_id == id) selected.emplace_back(job_id, handle);
    }
  }
  if (!id.empty() && selected.empty()) {
    reject(id, "unknown job id");
    return;
  }
  for (auto& [job_id, handle] : selected) {
    JsonWriter o = envelope("status", job_id);
    o.str("state", api::to_string(handle.state()));
    emit(o.done());
  }
}

}  // namespace fsbb::serve
