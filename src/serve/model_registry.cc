#include "serve/model_registry.h"

#include <utility>

#include "core/model_io.h"
#include "fault/fault_injector.h"

namespace gmpsvm {

Result<int64_t> ModelRegistry::Register(const std::string& name,
                                        MpSvmModel model) {
  if (model.num_classes < 2 || model.svms.empty()) {
    return Status::InvalidArgument("cannot register an empty model: " + name);
  }
  auto shared = std::make_shared<const ModelVersion>(std::move(model));
  // Validation, the injected-failure gate and the commit share one critical
  // section: concurrent swaps of the same name fully serialize, so the
  // version a Register returns always describes the model it carried — a
  // slower older candidate can never commit over a newer one (the
  // swap-under-load race). Every rejection happens before the entry is
  // touched, so a failed swap is an automatic rollback: the previous version
  // keeps serving.
  std::lock_guard<std::mutex> lock(mu_);
  if (validator_ != nullptr) {
    Status validated = validator_(shared->model);
    if (!validated.ok()) {
      return Status::InvalidArgument("model validation failed for " + name +
                                     ": " + validated.message());
    }
  }
  if (fault_ != nullptr && models_.count(name) != 0 &&
      fault_->ShouldInject(fault::Site::kModelSwap)) {
    return Status::Unavailable("injected hot-swap failure for " + name);
  }
  Entry& entry = models_[name];
  entry.current = std::move(shared);
  return ++entry.version;
}

void ModelRegistry::SetValidator(ModelValidator validator) {
  std::lock_guard<std::mutex> lock(mu_);
  validator_ = std::move(validator);
}

void ModelRegistry::SetFaultInjector(fault::FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_ = injector;
}

Result<int64_t> ModelRegistry::LoadFromFile(const std::string& name,
                                            const std::string& path) {
  GMP_ASSIGN_OR_RETURN(MpSvmModel model, LoadModel(path));
  return Register(name, std::move(model));
}

Result<ModelHandle> ModelRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::FailedPrecondition("no model registered as: " + name);
  }
  const std::shared_ptr<const ModelVersion>& current = it->second.current;
  return ModelHandle{{current, &current->model},
                     it->second.version,
                     name,
                     {current, &current->predictor}};
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

}  // namespace gmpsvm
