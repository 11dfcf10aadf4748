// The fleet's tenant table: spec checks, versioned per-tenant model chains in
// the fleet's ModelRegistry, and the validator/fault rollback gate, all
// reached through FleetServer::AddTenant / SwapTenantModel.

#include "fleet/fleet_server.h"

#include <gtest/gtest.h>

#include <string>

#include "../test_util.h"
#include "core/mp_trainer.h"
#include "fault/fault_injector.h"

namespace gmpsvm::fleet {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpSvmModel TrainSmallModel(uint64_t seed, int k = 3) {
  auto data = ValueOrDie(MakeMulticlassBlobs(k, 15, 5, 2.5, seed));
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

TenantSpec Spec(const std::string& name, int priority = 0) {
  TenantSpec spec;
  spec.name = name;
  spec.priority = priority;
  return spec;
}

TEST(TenantRegistryTest, RejectsMalformedSpecsWithoutCreatingTenants) {
  FleetServer fleet(FleetOptions{});
  EXPECT_TRUE(fleet.AddTenant(Spec(""), TrainSmallModel(1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fleet.AddTenant(Spec("a:b"), TrainSmallModel(1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fleet.AddTenant(Spec("a b"), TrainSmallModel(1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fleet.AddTenant(Spec("ok", -1), TrainSmallModel(1))
                  .status()
                  .IsInvalidArgument());
  TenantSpec negative_weight = Spec("w");
  negative_weight.weight = -1.0;
  EXPECT_TRUE(fleet.AddTenant(negative_weight, TrainSmallModel(1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fleet.Snapshot().tenants.empty());
  EXPECT_EQ(fleet.models().size(), 0u);
}

TEST(TenantRegistryTest, DuplicateTenantFails) {
  FleetServer fleet(FleetOptions{});
  EXPECT_EQ(ValueOrDie(fleet.AddTenant(Spec("acme"), TrainSmallModel(1))), 1);
  auto dup = fleet.AddTenant(Spec("acme"), TrainSmallModel(2));
  EXPECT_TRUE(dup.status().IsFailedPrecondition());
  EXPECT_EQ(fleet.Snapshot().tenants.size(), 1u);
}

TEST(TenantRegistryTest, SwapBumpsVersionPerTenant) {
  FleetServer fleet(FleetOptions{});
  ValueOrDie(fleet.AddTenant(Spec("a"), TrainSmallModel(1)));
  ValueOrDie(fleet.AddTenant(Spec("b"), TrainSmallModel(2)));
  EXPECT_EQ(ValueOrDie(fleet.SwapTenantModel("a", TrainSmallModel(3))), 2);
  EXPECT_EQ(ValueOrDie(fleet.SwapTenantModel("a", TrainSmallModel(4))), 3);
  // Tenant b's chain is independent.
  EXPECT_EQ(ValueOrDie(fleet.models().Get(TenantModelKey("b"))).version, 1);
  // Swapping a tenant that does not exist is an error, not a create.
  EXPECT_TRUE(fleet.SwapTenantModel("ghost", TrainSmallModel(5))
                  .status()
                  .IsFailedPrecondition());
  EXPECT_FALSE(fleet.models().Get(TenantModelKey("ghost")).ok());
}

TEST(TenantRegistryTest, ValidatorRejectionLeavesOldVersionServing) {
  FleetServer fleet(FleetOptions{});
  fleet.models().SetValidator([](const MpSvmModel& model) {
    return model.num_classes >= 3
               ? Status::OK()
               : Status::InvalidArgument("needs >= 3 classes");
  });
  ValueOrDie(fleet.AddTenant(Spec("acme"), TrainSmallModel(1, /*k=*/3)));
  auto rejected = fleet.SwapTenantModel("acme", TrainSmallModel(2, /*k=*/2));
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  auto handle = ValueOrDie(fleet.models().Get(TenantModelKey("acme")));
  EXPECT_EQ(handle.version, 1);
  EXPECT_EQ(handle.model->num_classes, 3);
  // A rejected initial registration must not create the tenant at all.
  EXPECT_FALSE(fleet.AddTenant(Spec("bad"), TrainSmallModel(3, /*k=*/2)).ok());
  EXPECT_TRUE(fleet.SwapTenantModel("bad", TrainSmallModel(4))
                  .status()
                  .IsFailedPrecondition());
  EXPECT_EQ(fleet.Snapshot().tenants.size(), 1u);
}

TEST(TenantRegistryTest, InjectedSwapFaultRollsBack) {
  fault::FaultPlan plan;
  plan.swap_fail_prob = 1.0;
  plan.max_consecutive_per_site = 0;
  fault::FaultInjector injector(plan);

  // The serve template's injector reaches the tenant swap gate.
  FleetOptions options;
  options.serve.fault = &injector;
  FleetServer fleet(options);
  ValueOrDie(fleet.AddTenant(Spec("acme"), TrainSmallModel(1)));
  auto failed = fleet.SwapTenantModel("acme", TrainSmallModel(2));
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  EXPECT_EQ(ValueOrDie(fleet.models().Get(TenantModelKey("acme"))).version, 1);
  fleet.models().SetFaultInjector(nullptr);
  EXPECT_EQ(ValueOrDie(fleet.SwapTenantModel("acme", TrainSmallModel(2))), 2);
}

TEST(TenantRegistryTest, TenantKeysCannotCollideWithDirectModels) {
  FleetServer fleet(FleetOptions{});
  ValueOrDie(fleet.AddTenant(Spec("acme"), TrainSmallModel(1)));
  // A model registered directly under a plain name is a different key space.
  ValueOrDie(fleet.models().Register("acme", TrainSmallModel(2)));
  EXPECT_EQ(fleet.models().size(), 2u);
  EXPECT_EQ(TenantModelKey("acme"), "tenant:acme");
  EXPECT_EQ(ValueOrDie(fleet.models().Get("tenant:acme")).name, "tenant:acme");
}

}  // namespace
}  // namespace gmpsvm::fleet
