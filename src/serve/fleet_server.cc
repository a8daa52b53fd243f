#include "serve/fleet_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/metrics.h"
#include "util/profiler.h"

namespace conformer::serve {

namespace {

FleetConfig Sanitize(FleetConfig config) {
  config.num_dispatchers = std::max<int64_t>(1, config.num_dispatchers);
  return config;
}

}  // namespace

FleetServer::FleetServer(FleetConfig config) : config_(Sanitize(config)) {
  dispatchers_.reserve(config_.num_dispatchers);
  for (int64_t i = 0; i < config_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
}

FleetServer::~FleetServer() { Shutdown(); }

Status FleetServer::AddTenant(const std::string& key, const TenantSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::Unavailable("fleet is shut down; tenant \"" + key +
                                 "\" not added");
    }
  }
  // The registry owns the key contract and duplicate rejection; concurrent
  // AddTenant calls for one key race here and exactly one wins.
  Status registered = registry_.Register(key, spec.session, spec.checkpoint);
  if (!registered.ok()) return registered;
  InferenceSession* session = registry_.Find(key);

  // The wake hook must not run under the tenant's queue lock (TenantQueue
  // guarantees this) so taking mu_ here is cycle-free: Submit releases the
  // queue lock, then wakes the shards.
  auto queue = std::make_unique<TenantQueue>(session, spec.queue, key, [this] {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  });

  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    // Shutdown won the race after the registry insert: the queue is empty,
    // so refusing submissions keeps every guarantee intact even though the
    // shards may already be gone.
    queue->BeginShutdown();
  }
  Tenant& tenant = tenants_[key];
  tenant.queue = std::move(queue);
  tenant.weight = std::max<int64_t>(1, spec.weight);
  return Status::OK();
}

std::future<Result<Forecast>> FleetServer::Submit(const std::string& key,
                                                  data::Batch request,
                                                  RequestOptions options) {
  TenantQueue* queue = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(key);
    if (it != tenants_.end()) queue = it->second.queue.get();
  }
  if (queue == nullptr) {
    std::promise<Result<Forecast>> promise;
    promise.set_value(Result<Forecast>(
        Status::NotFound("tenant \"" + key + "\" is not registered")));
    return promise.get_future();
  }
  // Queue pointers are stable: tenants are never removed, and destruction
  // happens only after Shutdown() joined every shard.
  return queue->Submit(std::move(request), options);
}

Status FleetServer::Reload(const std::string& key,
                           const std::string& checkpoint) {
  return registry_.Reload(key, checkpoint);
}

void FleetServer::Shutdown() {
  std::vector<TenantQueue*> queues;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    queues.reserve(tenants_.size());
    for (auto& [key, tenant] : tenants_) queues.push_back(tenant.queue.get());
  }
  // BeginShutdown fires the wake hook, which takes mu_ — so outside the lock.
  for (TenantQueue* queue : queues) queue->BeginShutdown();
  cv_.notify_all();
  std::call_once(join_once_, [this] {
    for (std::thread& shard : dispatchers_) {
      if (shard.joinable()) shard.join();
    }
  });
}

bool FleetServer::circuit_open(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  return it != tenants_.end() && it->second.queue->circuit_open();
}

Status FleetServer::ResetCircuitBreaker(const std::string& key) {
  TenantQueue* queue = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(key);
    if (it != tenants_.end()) queue = it->second.queue.get();
  }
  if (queue == nullptr) {
    return Status::NotFound("tenant \"" + key + "\" is not registered");
  }
  // Outside mu_: the reset wakes the shards through the hook above.
  queue->ResetCircuitBreaker();
  return Status::OK();
}

int64_t FleetServer::pending(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  return it == tenants_.end() ? 0 : it->second.queue->pending();
}

FleetServer::Tenant* FleetServer::ClaimTenantLocked(int64_t now_ns, bool drain,
                                                    int64_t* next_ripe_ns) {
  *next_ripe_ns = 0;
  Tenant* best = nullptr;
  int64_t total_weight = 0;
  for (auto& [key, tenant] : tenants_) {
    if (tenant.in_service) continue;  // Claimed by another shard.
    const TenantQueue::DispatchState state = tenant.queue->Peek();
    if (!state.has_work) continue;
    if (!drain && state.ripe_at_ns > now_ns) {
      if (*next_ripe_ns == 0 || state.ripe_at_ns < *next_ripe_ns) {
        *next_ripe_ns = state.ripe_at_ns;
      }
      continue;
    }
    // Smooth weighted round-robin (nginx): every ripe candidate earns its
    // weight in credit, the richest is picked and pays the round's total
    // back — over time each backlogged tenant is served in proportion to
    // its weight, with maximally interleaved (never bursty) pick order.
    tenant.wrr_credit += tenant.weight;
    total_weight += tenant.weight;
    if (best == nullptr || tenant.wrr_credit > best->wrr_credit) {
      best = &tenant;
    }
  }
  if (best != nullptr) {
    best->wrr_credit -= total_weight;
    best->in_service = true;
    static metrics::Counter& dispatches =
        metrics::Registry::Global().GetCounter("serve.fleet.dispatches");
    dispatches.Increment();
  }
  return best;
}

void FleetServer::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const bool drain = shutdown_;
    int64_t next_ripe_ns = 0;
    Tenant* claimed =
        ClaimTenantLocked(prof::internal::NowNs(), drain, &next_ripe_ns);
    if (claimed != nullptr) {
      TenantQueue* queue = claimed->queue.get();
      lock.unlock();
      queue->ServeOnce();
      lock.lock();
      claimed->in_service = false;
      // The tenant may still be backlogged, and the shutdown path below
      // waits on in_service draining — either way the other shards need a
      // look.
      cv_.notify_all();
      continue;
    }
    if (drain) {
      // Exit once nothing is claimable AND no shard is mid-batch (a serving
      // shard's tenant may still hold queued work this shard must not
      // abandon). In-service shards notify when they finish.
      const bool busy = std::any_of(
          tenants_.begin(), tenants_.end(),
          [](const auto& entry) { return entry.second.in_service; });
      if (!busy) return;
      cv_.wait(lock);
      continue;
    }
    if (next_ripe_ns == 0) {
      cv_.wait(lock);  // Idle: Submit/BeginShutdown/reset wake us.
      continue;
    }
    // Everything pending is coalescing; sleep until the earliest batch
    // ripens (or a Submit tops one up to full and wakes us early).
    const int64_t now_ns = prof::internal::NowNs();
    if (next_ripe_ns > now_ns) {
      cv_.wait_for(lock, std::chrono::nanoseconds(next_ripe_ns - now_ns));
    }
  }
}

}  // namespace conformer::serve
