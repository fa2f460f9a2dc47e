#include "svc/cache.hpp"

#include <utility>

#include "cost/hash.hpp"
#include "support/error.hpp"
#include "support/hashing.hpp"

namespace paradigm::svc {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  PARADIGM_CHECK(capacity_ >= 1, "result cache capacity must be >= 1");
}

const CacheEntry* ResultCache::lookup(const CacheKey& key,
                                      std::uint64_t cap) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  const CacheEntry& entry = it->second->entry;
  // A cached run that charged `ticks` completes identically under any
  // cap it would not have tripped; under a tighter cap the fresh run
  // would have been cancelled, so the memo must not stand in for it.
  if (cap != 0 && entry.memo.ticks >= cap) {
    ++stats_.misses;
    return nullptr;
  }
  order_.splice(order_.begin(), order_, it->second);
  ++stats_.hits;
  return &order_.front().entry;
}

void ResultCache::insert(const CacheKey& key, std::uint64_t shape,
                         core::RunMemo memo,
                         std::vector<double> allocation) {
  if (memo.cancelled) return;  // Cap-specific; never cacheable.
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry =
        CacheEntry{std::move(memo), std::move(allocation), shape};
    order_.splice(order_.begin(), order_, it->second);
    shape_index_[shape] = key;
    return;
  }
  if (order_.size() >= capacity_) {
    index_.erase(order_.back().key);
    order_.pop_back();
    ++stats_.evictions;
  }
  order_.push_front(
      Slot{key, CacheEntry{std::move(memo), std::move(allocation), shape}});
  index_.emplace(key, order_.begin());
  shape_index_[shape] = key;
  ++stats_.insertions;
}

const CacheEntry* ResultCache::nearest(std::uint64_t shape) const {
  const auto shape_it = shape_index_.find(shape);
  if (shape_it == shape_index_.end()) return nullptr;
  // The shape index is not maintained on eviction: the recorded
  // content key may point at an entry that has since been pushed out,
  // in which case the neighbor is simply gone (cold start).
  const auto it = index_.find(shape_it->second);
  if (it == index_.end()) return nullptr;
  return &it->second->entry;
}

namespace {

void hash_machine(Hasher& h, const sim::MachineConfig& m) {
  // size is deliberately excluded: the service overrides it per job
  // (max of the base size and the job's p) and the effective value is
  // hashed in job_cache_key.
  h.f64(m.send_startup)
      .f64(m.send_per_byte)
      .f64(m.recv_startup)
      .f64(m.recv_per_byte)
      .f64(m.net_latency)
      .f64(m.nic_per_byte)
      .f64(m.flop_time)
      .f64(m.elem_touch_time);
  for (const sim::KernelTiming& t :
       {m.init_timing, m.add_timing, m.mul_timing, m.transpose_timing}) {
    h.f64(t.serial_fraction).f64(t.per_proc_overhead);
  }
  h.f64(m.noise_sigma).u64(m.noise_seed);
}

void hash_policy_fields(Hasher& h, const core::PipelineConfig& c) {
  hash_machine(h, c.machine);

  h.u64(static_cast<std::uint64_t>(c.calibration_mode));
  h.u64(c.calibration.repetitions);
  // Measurement-point order matters: the regression accumulates floats
  // in it.
  h.size(c.calibration.group_sizes.size());
  for (const std::uint32_t g : c.calibration.group_sizes) h.u64(g);
  h.size(c.calibration.transfer_bytes.size());
  for (const std::size_t b : c.calibration.transfer_bytes) h.size(b);
  h.boolean(c.preset_calibration.has_value());
  if (c.preset_calibration) {
    h.u64(cost::hash_value(c.preset_calibration->machine));
    h.u64(cost::hash_value(c.preset_calibration->kernels));
  }

  const solver::ConvexAllocatorConfig& s = c.solver;
  h.f64(s.mu_x_initial)
      .f64(s.mu_t_rel_initial)
      .f64(s.continuation_factor)
      .size(s.continuation_rounds)
      .size(s.max_inner_iterations)
      .f64(s.gradient_tolerance)
      .f64(s.initial_step)
      .f64(s.armijo_c)
      .f64(s.backtrack_factor)
      .size(s.max_backtracks)
      .size(s.num_starts)
      .u64(s.start_seed)
      .size(s.work_unit_budget);

  h.boolean(c.psa.apply_rounding).boolean(c.psa.apply_bounding);
  h.boolean(c.psa.pb_override.has_value());
  if (c.psa.pb_override) h.u64(*c.psa.pb_override);

  h.boolean(c.run_simulation);

  const degrade::Policy& d = c.degradation;
  h.boolean(d.enabled)
      .boolean(d.strict)
      .f64(d.tau_limit)
      .f64(d.machine_param_limit)
      .f64(d.tau_range_limit)
      .size(d.fan_out_limit);

  const solver::RecoveryConfig& r = c.recovery;
  h.size(r.retry_starts)
      .f64(r.smoothing_mu_x)
      .f64(r.smoothing_mu_t_rel)
      .size(r.smoothing_extra_rounds);
}

}  // namespace

std::uint64_t policy_digest(const core::PipelineConfig& config) {
  Hasher h(0x90a1c7ULL);
  hash_policy_fields(h, config);
  return h.digest();
}

CacheKey job_cache_key(std::uint64_t policy, const mdg::MdgDigest& digest,
                       std::uint64_t processors, std::uint32_t machine_size,
                       std::size_t attempt, std::uint64_t stall, int rung) {
  CacheKey key;
  key.hi = Hasher(0xcac4e41ULL)
               .u64(policy)
               .u64(digest.content)
               .u64(processors)
               .u64(machine_size)
               .size(attempt)
               .u64(stall)
               .u64(static_cast<std::uint64_t>(rung))
               .digest();
  key.lo = Hasher(0xcac4e10ULL)
               .u64(digest.content)
               .u64(policy)
               .u64(stall)
               .size(attempt)
               .u64(machine_size)
               .u64(processors)
               .u64(static_cast<std::uint64_t>(rung))
               .digest();
  return key;
}

std::uint64_t job_shape_key(std::uint64_t policy,
                            const mdg::MdgDigest& digest,
                            std::uint64_t processors,
                            std::uint32_t machine_size,
                            std::uint64_t stall) {
  return Hasher(0x54a9eULL)
      .u64(policy)
      .u64(digest.shape)
      .u64(processors)
      .u64(machine_size)
      .u64(stall)
      .digest();
}

}  // namespace paradigm::svc
