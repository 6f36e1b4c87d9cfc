#include "runtime/backend_registry.hpp"

#include <algorithm>
#include <utility>

#include "common/strfmt.hpp"
#include "runtime/backends.hpp"

namespace nvsoc::runtime {

namespace {

std::string join_sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

BackendRegistry& BackendRegistry::global() {
  // Populated in place: the variant-cache mutex makes the registry
  // immovable.
  static BackendRegistry registry;
  static const bool initialized = [] {
    registry.add(std::make_unique<SocPlatformBackend>(core::Platform::kSoc))
        .expect_ok("register soc");
    registry
        .add(std::make_unique<SocPlatformBackend>(core::Platform::kSystemTop))
        .expect_ok("register system_top");
    registry.add(std::make_unique<VpBackend>()).expect_ok("register vp");
    registry.add(std::make_unique<LinuxBaselineBackend>())
        .expect_ok("register linux_baseline");
    return true;
  }();
  (void)initialized;
  return registry;
}

Status BackendRegistry::add(std::unique_ptr<ExecutionBackend> backend) {
  if (backend == nullptr) {
    return {StatusCode::kInvalidArgument, "backend must not be null"};
  }
  const std::string key(backend->name());
  const auto [it, inserted] = backends_.emplace(key, std::move(backend));
  (void)it;
  if (!inserted) {
    return {StatusCode::kAlreadyExists,
            strfmt("backend '{}' is already registered", key)};
  }
  return Status::ok();
}

StatusOr<const ExecutionBackend*> BackendRegistry::find(
    const std::string& name) const {
  if (const auto it = backends_.find(name); it != backends_.end()) {
    return it->second.get();
  }

  const auto spec = BackendSpec::parse(name);
  if (!spec.is_ok()) return spec.status();
  const auto base = backends_.find(spec->base);
  if (base == backends_.end()) {
    return Status(StatusCode::kNotFound,
                  strfmt("unknown backend '{}' (known: {})", spec->base,
                         join_sorted(names())));
  }
  if (!spec->configured()) {
    // Degenerate spec like "soc?": no configuration, so the base backend
    // itself is the answer.
    return base->second.get();
  }

  // Variants are cached — and named — by the canonical spec, so reordered
  // spellings ("soc?a=1&b=2" vs "soc?b=2&a=1") share one instance instead
  // of instantiating duplicate backends.
  BackendSpec canon = *spec;
  canon.full = canon.canonical();  // canonical() sorts its own params copy

  MutexLock lock(variants_mutex_);
  if (const auto it = variants_.find(canon.full); it != variants_.end()) {
    return it->second.get();
  }
  auto variant = base->second->configure(canon);
  if (!variant.is_ok()) return variant.status();
  const auto [it, inserted] =
      variants_.emplace(canon.full, std::move(variant).value());
  (void)inserted;
  return it->second.get();
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& [key, unused] : backends_) {
    (void)unused;
    out.push_back(key);
  }
  // std::map already iterates in key order; sort anyway so the contract
  // ("stable, sorted") survives a change of container.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nvsoc::runtime
