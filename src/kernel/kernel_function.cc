#include "kernel/kernel_function.h"

namespace gmpsvm {

const char* KernelTypeToString(KernelType) { return "gaussian"; }

Result<KernelType> KernelTypeFromString(const std::string& name) {
  if (name == "gaussian" || name == "rbf") return KernelType::kGaussian;
  return Status::InvalidArgument("unknown kernel type: " + name);
}

}  // namespace gmpsvm
